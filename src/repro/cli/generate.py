"""``repro generate``: emit seeded random SIL scenario sources.

Writes to stdout or an ``--out`` directory, optionally cross-checking each
scenario against the reference engine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import options


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--count", type=int, default=5, help="scenarios to generate")
    parser.add_argument("--out", help="directory for .sil files (default: stdout)")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check each scenario against the reference engine",
    )
    options.add_generator_options(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from ..workloads.generators import cross_check_scenario

    scenarios = options.population(args, args.count)
    if args.verify:
        for scenario in scenarios:
            if not cross_check_scenario(scenario):
                print(f"cross-check FAILED: {scenario.name}", file=sys.stderr)
                return 1
        print(f"cross-checked {len(scenarios)} scenarios against the reference engine",
              file=sys.stderr)
    if args.out:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        for scenario in scenarios:
            (directory / f"{scenario.name}.sil").write_text(scenario.source.strip() + "\n")
        print(f"wrote {len(scenarios)} scenarios to {directory}")
    else:
        for scenario in scenarios:
            print(f"{{ scenario {scenario.name} (family {scenario.family}, "
                  f"seed {scenario.seed}) }}")
            print(scenario.source.strip())
            print()
    return 0
