"""``repro analyze``: analyze named workloads and/or generated scenarios.

Optionally sharded across worker processes, streaming per-workload
outcomes as shards finish, plus the merged
:class:`~repro.analysis.context.AnalysisStats`.  ``--census`` adds the
parallelism census of every workload, computed by the shards from the same
parse and analysis as the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from . import options
from .report import print_report, print_workload_rows


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("names", nargs="*", help="workload names (default: all)")
    parser.add_argument("--shards", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--generated", type=int, default=0, metavar="N", help="add N generated scenarios"
    )
    parser.add_argument("--matrices", action="store_true", help="print main entry matrices")
    parser.add_argument(
        "--census", action="store_true", help="report the parallelism census per workload"
    )
    parser.add_argument("--list", action="store_true", help="list workloads and families")
    options.add_generator_options(parser)
    options.add_limits_options(parser)
    options.add_cache_options(parser)
    options.add_chaos_options(parser)
    options.add_trace_option(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from ..analysis.limits import base_limits
    from ..workloads.suite import WORKLOADS, ShardedSuiteRunner, source

    if args.list:
        from ..workloads.generators import FAMILIES

        print("named workloads:")
        for name in WORKLOADS:
            print(f"  {name}")
        print("scenario families:")
        for family in FAMILIES:
            print(f"  {family}")
        return 0

    names = args.names or (list(WORKLOADS) if not args.generated else [])
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        print(f"duplicate workloads: {duplicates}", file=sys.stderr)
        return 2
    items = [(name, source(name, depth=args.depth)) for name in names]
    if args.generated:
        items += [(s.name, s.source) for s in options.population(args, args.generated)]

    try:
        cache = options.cache_config(args)
        faults = options.fault_plan(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    limits = options.effective_limits(args)
    runner = ShardedSuiteRunner(
        items,
        shards=args.shards,
        limits=limits,
        cache=cache,
        faults=faults,
        max_attempts=args.max_attempts,
        census=args.census,
    )
    if faults is not None:
        print(f"chaos: {'; '.join(faults.describe())} (seed {faults.seed}, "
              f"max attempts {args.max_attempts})")

    # Streaming collection: rows appear as each shard finishes, not behind
    # the final barrier.
    def stream(output: Dict) -> None:
        print_workload_rows(output["results"], output["failures"], matrices=args.matrices)
        sys.stdout.flush()

    print(f"analyzing {len(items)} workloads across {min(args.shards, len(items))} "
          f"shard(s), streaming:")
    report = runner.run(progress=stream)
    print()
    print(f"analyzed {len(report.results)}/{len(items)} workloads "
          f"across {len(report.shards)} shard(s) in {report.seconds:.3f}s"
          f"{' [adaptive limits]' if args.adaptive else ''}")
    print_report(
        report,
        rows=False,
        cache=cache,
        cache_size=base_limits(limits).transfer_cache_size,
    )

    if args.census:
        print("\nparallelism census (path-matrix oracle):")
        for name, _ in items:
            row = report.census.get(name) or {"error": report.failures.get(name)}
            if "error" in row:
                print(f"  {name:24s} FAIL {row['error']}")
            else:
                print(
                    f"  {name:24s} groups={row['groups']:<3d} "
                    f"call_groups={row['call_groups']:<3d} "
                    f"independent={row['independent_answers']}/{row['queries']}"
                )
    return 1 if report.failures else 0
