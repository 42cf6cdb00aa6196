"""``repro reanalyze``: cross-run incremental re-analysis of an edited program.

Solves the old version, diffs, invalidates, re-solves only the dirty
frontier and (by default) verifies the warm solution bit-identical to a
from-scratch solve of the new version.  Takes two ``.sil`` files or a
seeded generated scenario plus a seeded edit script.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

from . import options

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.generators import EditScript


def configure(parser: argparse.ArgumentParser) -> None:
    add_edit_pair_options(parser)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="also write the JSON report here"
    )
    options.add_limits_options(parser)
    options.add_cache_options(parser)
    parser.set_defaults(func=run)


def add_edit_pair_options(sub: argparse.ArgumentParser) -> None:
    """Inputs of an edited program pair: two files, or a seeded scenario + edit script."""
    from ..workloads.generators import EDIT_KINDS, FAMILIES

    sub.add_argument("old", nargs="?", help="old program source file (.sil)")
    sub.add_argument("new", nargs="?", help="edited program source file (.sil)")
    sub.add_argument(
        "--family",
        choices=FAMILIES,
        default="deep",
        help="generated mode: scenario family (default: deep)",
    )
    sub.add_argument(
        "--seed", type=int, default=0, help="generated mode: scenario seed"
    )
    sub.add_argument(
        "--procedures", type=int, default=2, help="generated mode: walker procedures"
    )
    sub.add_argument(
        "--depth", type=int, default=6, help="generated mode: structure depth"
    )
    sub.add_argument(
        "--edits", type=int, default=1, metavar="N", help="edit-script length"
    )
    sub.add_argument(
        "--edit-seed", type=int, default=0, help="edit-script seed"
    )
    sub.add_argument(
        "--edit-kind",
        action="append",
        choices=EDIT_KINDS,
        default=None,
        metavar="KIND",
        help=f"restrict edit kinds (repeatable; from {', '.join(EDIT_KINDS)})",
    )
    sub.add_argument(
        "--target",
        default=None,
        metavar="PROC",
        help="pin every edit to one procedure (deterministic CI replays)",
    )
    sub.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the from-scratch verification solve of the new version",
    )


def resolve_edit_pair(
    args: argparse.Namespace,
) -> Tuple[str, str, Optional["EditScript"], str]:
    """``(old_source, new_source, script, name)`` from files or the generator.

    File mode: both positionals given.  Generated mode: neither given — a
    seeded scenario plus a seeded edit script (``--edits``/``--edit-kind``/
    ``--target``) produce the pair deterministically.
    """
    if bool(args.old) != bool(args.new):
        raise ValueError("give both OLD and NEW source files, or neither (generated mode)")
    if args.old:
        return (
            Path(args.old).read_text(),
            Path(args.new).read_text(),
            None,
            Path(args.new).stem,
        )
    from ..workloads.generators import GeneratorConfig, generate_edited_pair, generate_scenario

    scenario = generate_scenario(
        args.seed,
        GeneratorConfig(
            family=args.family, procedures=args.procedures, depth=args.depth
        ),
    )
    kinds = tuple(args.edit_kind) if args.edit_kind else None
    pair = generate_edited_pair(
        scenario.source,
        args.edit_seed,
        edits=args.edits,
        kinds=kinds,
        target_procedure=args.target,
    )
    return pair.old_source, pair.new_source, pair.script, scenario.name


def _print_reanalysis(report, name: str, script: Optional["EditScript"]) -> None:
    delta = report.delta
    print(
        f"program {name}: {len(delta.changed)} changed, {len(delta.added)} added, "
        f"{len(delta.removed)} removed, {len(delta.unchanged)} unchanged procedures"
    )
    if script is not None:
        print(f"edit script (seed {script.seed}): "
              + "; ".join(step.describe() for step in script.steps))
    print(f"dirty seed ({report.dirty_seed_size}): "
          + (", ".join(report.dirty_seed) or "-"))
    reanalyzed = ", ".join(report.procedures_reanalyzed) or "-"
    print(
        f"re-analyzed {len(report.procedures_reanalyzed)}/{report.procedures_total} "
        f"procedures ({reanalyzed})"
    )
    print(
        f"summaries: reused={report.summaries_reused} "
        f"invalidated={report.summaries_invalidated}; "
        f"transfer entries invalidated={report.transfers_invalidated}"
    )
    fired = {name: value for name, value in report.widening.items() if value}
    if fired:
        print("widening: " + " ".join(f"{k}={v}" for k, v in sorted(fired.items())))
    print(f"digest {report.digest[:12]} in {report.seconds:.3f}s")
    if report.verified is not None:
        print(
            f"verified against cold solve: {report.verified} "
            f"(cold digest {report.cold_digest[:12]})"
        )


def run(args: argparse.Namespace) -> int:
    from ..analysis.reanalysis import IncrementalSession
    from ..sil.normalize import parse_and_normalize

    try:
        old_source, new_source, script, name = resolve_edit_pair(args)
    except (OSError, ValueError, KeyError) as error:
        print(error, file=sys.stderr)
        return 2
    try:
        cache = options.cache_config(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    try:
        old_program, old_info = parse_and_normalize(old_source)
        new_program, new_info = parse_and_normalize(new_source)
    except Exception as error:  # noqa: BLE001 - front-end rejection
        print(f"front end rejected input: {type(error).__name__}: {error}", file=sys.stderr)
        return 2

    session = IncrementalSession(
        limits=options.effective_limits(args), cache=cache, policy=args.cache_policy
    )
    try:
        session.analyze(old_program, old_info)
        report = session.reanalyze(new_program, new_info, verify=not args.no_verify)
        session.flush()
    finally:
        session.close()

    payload = report.as_dict()
    payload["program"] = name
    if script is not None:
        payload["edit_script"] = script.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_reanalysis(report, name, script)
    if args.output:
        output = Path(args.output)
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if not args.json:
            print(f"wrote {output}")
    return 1 if report.verified is False else 0
