"""``repro bench``: a whole population through the sharded suite runner.

Runs every named workload plus a seeded random scenario population, checks
the sharded results bit-identical to a single-process run, and writes the
merged per-shard stats artifact.  ``--time`` adds the wall-clock harness
(per-workload median analysis time + peak interning-table sizes in a
``timing`` section); ``--profile`` dumps a cProfile top-20 per workload to
an artifact directory; ``--ratchet`` compares cold medians against a
committed baseline; ``--edit-replay`` adds the edit-replay bench.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional

from . import options
from .report import print_report

#: Default artifact path of ``bench`` (matches the pytest bench artifact).
DEFAULT_ARTIFACT = "BENCH_analysis.json"


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=4, help="worker processes")
    parser.add_argument(
        "--seeds", type=int, default=50, metavar="N", help="generated scenarios in the population"
    )
    parser.add_argument(
        "--output", default=DEFAULT_ARTIFACT, help="merged stats artifact path"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the single-process bit-identity verification run",
    )
    parser.add_argument(
        "--time",
        action="store_true",
        help="wall-clock harness: record per-workload median analysis time "
        "and peak interning-table sizes into the artifact's timing section",
    )
    parser.add_argument(
        "--time-reps",
        type=int,
        default=5,
        metavar="N",
        help="analyses per workload for the timing median (default: 5)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="dump a cProfile top-20 per workload to the --profile-dir "
        "artifact directory (off by default)",
    )
    parser.add_argument(
        "--ratchet",
        metavar="BASELINE",
        default=None,
        help="cold-median ratchet: compare this run's --time cold medians "
        "against the timing section of a committed bench artifact "
        "(e.g. BENCH_analysis.json) and exit nonzero on regression "
        "beyond --ratchet-tolerance; medians are normalized by each "
        "side's calibration loop so baselines port across machines",
    )
    parser.add_argument(
        "--ratchet-tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="allowed fractional cold-median regression before the ratchet "
        "fails (default: 0.5)",
    )
    parser.add_argument(
        "--edit-replay",
        action="store_true",
        help="run the edit-replay bench (dirty-seeded re-analysis of edited "
        "programs vs cold solves over a program-size x edit-count grid) "
        "into the artifact's edit_replay section; exits nonzero unless "
        "every cell verifies bit-identical and re-analysis cost scales "
        "with edit size rather than program size",
    )
    parser.add_argument(
        "--profile-dir",
        default="BENCH_profiles",
        metavar="DIR",
        help="artifact directory for --profile output (default: BENCH_profiles)",
    )
    options.add_generator_options(parser)
    options.add_limits_options(parser)
    options.add_cache_options(parser)
    options.add_chaos_options(parser)
    options.add_trace_option(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from ..analysis.limits import base_limits
    from ..workloads.suite import WORKLOADS, ShardedSuiteRunner, source

    config = options.generator_config(args)
    scenarios = options.population(args, args.seeds)
    items = [(name, source(name, depth=min(config.depth, 4))) for name in WORKLOADS]
    items += [(s.name, s.source) for s in scenarios]
    print(
        f"population: {len(WORKLOADS)} named workloads + {len(scenarios)} generated "
        f"scenarios (seed {args.seed}, families {', '.join(options.family_list(args))})"
    )

    try:
        cache = options.cache_config(args)
        faults = options.fault_plan(args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    options.warn_if_memory_backend_sharded(cache, args.shards, len(items))
    limits = options.effective_limits(args)
    runner = ShardedSuiteRunner(
        items,
        shards=args.shards,
        limits=limits,
        cache=cache,
        policy=args.cache_policy,
        faults=faults,
        max_attempts=args.max_attempts,
    )
    if faults is not None:
        print(f"chaos: {'; '.join(faults.describe())} (seed {faults.seed}, "
              f"max attempts {args.max_attempts})")

    def stream(output: Dict) -> None:
        print(
            f"  shard {output['shard']} finished: {len(output['workloads'])} workloads "
            f"({len(output['failures'])} failed) in {output['seconds']:.3f}s",
            flush=True,
        )

    report = runner.run(progress=stream)
    print(f"\nsharded run ({args.shards} shards): {report.seconds:.3f}s"
          f"{' [adaptive limits]' if args.adaptive else ''}")
    print_report(
        report,
        cache=cache,
        cache_size=base_limits(limits).transfer_cache_size,
        cache_policy=args.cache_policy,
    )

    artifact: Dict[str, object] = {
        "population": {
            "named_workloads": len(WORKLOADS),
            "generated_scenarios": len(scenarios),
            "base_seed": args.seed,
            "adaptive_limits": bool(args.adaptive),
            "families": options.family_list(args),
            # The *effective* (clamped) knobs the population was generated
            # with, not the raw CLI values.
            "generator": {
                "procedures": config.procedures,
                "depth": config.depth,
                "aliasing": config.aliasing,
            },
        },
        # The persistent-cache configuration and outcome of this run.  The
        # persistent hit rate is the cold-vs-warm signal: ~0 against a fresh
        # --cache-dir, approaching 1 when rerun against a populated one —
        # while "results_digest" (under "sharded") must not move at all.
        "cache": {
            "backend": cache.backend if cache is not None else None,
            "directory": cache.directory if cache is not None else None,
            "policy": args.cache_policy,
            "transfer_cache_size": base_limits(limits).transfer_cache_size,
            "persistent": {
                "hits": report.stats.persistent_cache_hits,
                "misses": report.stats.persistent_cache_misses,
                "hit_rate": round(report.stats.persistent_cache_hit_rate, 4),
                "writes": report.stats.persistent_cache_writes,
                "evictions": report.stats.persistent_cache_evictions,
            },
        },
        "sharded": report.as_dict(),
        # Tail-latency accounting: per-workload p50/p90/p99 (plus the exact
        # bucket-merged "_overall" row) derived from the fixed-boundary
        # histograms every shard shipped home.
        "tails": report.tails(),
    }

    if faults is not None:
        # The chaos ledger: what was injected and what the recovery paths
        # did about it.  The headline acceptance check is elsewhere in the
        # artifact — "results_digest" must match a fault-free run's.
        counters = report.metrics.as_dict().get("counters", {})

        def metric_total(metric: str) -> int:
            return sum(
                int(entry["value"])
                for entry in counters.values()
                if entry["name"] == metric
            )

        chaos = {
            "plan": faults.describe(),
            "seed": faults.seed,
            "max_attempts": args.max_attempts,
            "injected": {
                key: int(entry["value"])
                for key, entry in sorted(counters.items())
                if entry["name"] == "faults.injected_total"
            },
            "workload_retries": metric_total("suite.workload_retries"),
            "shard_crashes": metric_total("suite.shard_crashes_total"),
            "workloads_abandoned": metric_total("suite.workloads_abandoned_total"),
            "cache_quarantined": metric_total("cache.quarantined_total"),
            "cache_backend_errors": metric_total("cache.backend_errors_total"),
            "attempts": {
                name: count for name, count in sorted(report.attempts.items()) if count
            },
        }
        artifact["chaos"] = chaos
        print(
            f"\nchaos ledger: {sum(chaos['injected'].values())} faults injected, "
            f"{chaos['workload_retries']} workload retries, "
            f"{chaos['shard_crashes']} shard crashes, "
            f"{chaos['workloads_abandoned']} abandoned, "
            f"{chaos['cache_quarantined']} cache entries quarantined"
        )

    ratchet_regressed = False
    if args.time or args.profile:
        from ..workloads.timing import (
            DEFAULT_RATCHET_TOLERANCE,
            PROFILE_TOP,
            check_cold_medians,
            format_profile_top,
            format_ratchet,
            format_timing,
            time_items,
        )

        # --profile alone only needs the profiled run per workload, not the
        # full timing medians — drop to a single rep in that case.
        reps = args.time_reps if args.time else 1
        print(f"\nwall-clock timing ({reps} reps per workload"
              f"{', profiling' if args.profile else ''}):")
        timing = time_items(
            items,
            limits=limits,
            reps=reps,
            profile_dir=args.profile_dir if args.profile else None,
        )
        print(format_timing(timing))
        if args.profile:
            profile_top = timing.get("profile_top")
            if profile_top:
                print(f"\naggregated cross-workload profile (top {PROFILE_TOP} "
                      f"by total tottime):")
                print(format_profile_top(profile_top))
            print(f"cProfile top-{PROFILE_TOP} tables written to {args.profile_dir}/ "
                  f"(aggregate: {args.profile_dir}/_aggregate.txt)")
        if args.time:
            artifact["timing"] = timing
        if args.ratchet is not None:
            if not args.time:
                print("--ratchet requires --time", file=sys.stderr)
                return 2
            baseline_path = Path(args.ratchet)
            try:
                baseline_timing = json.loads(baseline_path.read_text())["timing"]
            except (OSError, KeyError, json.JSONDecodeError) as error:
                print(
                    f"cannot load ratchet baseline timing from {baseline_path}: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                return 2
            tolerance = (
                args.ratchet_tolerance
                if args.ratchet_tolerance is not None
                else DEFAULT_RATCHET_TOLERANCE
            )
            verdict = check_cold_medians(timing, baseline_timing, tolerance=tolerance)
            print(f"\ncold-median ratchet vs {baseline_path} "
                  f"({verdict['workloads_compared']} shared workloads):")
            print(format_ratchet(verdict))
            artifact["ratchet"] = verdict
            ratchet_regressed = bool(verdict["regressed"])

    edit_replay_failed = False
    if args.edit_replay:
        from ..workloads.timing import format_edit_replay, measure_edit_replay

        print("\nedit-replay bench (dirty-seeded re-analysis vs cold solves):")
        replay = measure_edit_replay(limits=base_limits(limits))
        print(format_edit_replay(replay))
        artifact["edit_replay"] = replay
        every_cell_verified = all(
            cell["verified"] for cell in replay["cells"].values()
        )
        edit_replay_failed = not (
            every_cell_verified
            and replay["scaling"]["scales_with_edit_not_program"]
        )
        if edit_replay_failed:
            print("edit-replay bench FAILED: verification or scaling did not hold",
                  file=sys.stderr)

    verified: Optional[bool] = None
    if not args.no_verify:
        single = runner.run_single_process()
        verified = report.matches(single)
        speedup = single.seconds / report.seconds if report.seconds else 0.0
        print(f"\nsingle-process reference: {single.seconds:.3f}s "
              f"(sharded speedup {speedup:.2f}x)")
        print(f"sharded results bit-identical to single process: {verified}")
        artifact["single_process"] = {"seconds": round(single.seconds, 4)}
        artifact["verified_identical"] = verified

    output = Path(args.output)
    output.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if report.failures or verified is False or ratchet_regressed or edit_replay_failed:
        return 1
    return 0
