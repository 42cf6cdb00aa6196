"""Text rendering of suite reports, shared by ``analyze``, ``bench`` and ``client``."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.backend import CacheConfig
    from ..workloads.suite import ShardedSuiteReport


def print_workload_rows(
    results: Dict[str, Dict], failures: Dict[str, str], matrices: bool = False
) -> None:
    """Per-workload ``ok``/``FAIL`` rows (used streaming and post-merge)."""
    for name, canonical in results.items():
        procedures = len(canonical["entry_matrices"])
        diagnostics = len(canonical["diagnostics"])
        print(f"  ok    {name:24s} procs={procedures:<3d} diagnostics={diagnostics}")
        if matrices:
            for procedure, matrix in canonical["entry_matrices"].items():
                for source_handle, target_handle, paths in matrix["entries"]:
                    print(f"          {procedure}: {source_handle} -> {target_handle} : {paths}")
    for name, error in failures.items():
        print(f"  FAIL  {name:24s} {error}")


def print_report(
    report: "ShardedSuiteReport",
    matrices: bool = False,
    rows: bool = True,
    cache: Optional["CacheConfig"] = None,
    cache_size: Optional[int] = None,
    cache_policy: Optional[str] = None,
) -> None:
    from ..analysis.context import AnalysisStats
    from ..analysis.limits import DEFAULT_LIMITS

    if rows:
        print_workload_rows(report.results, report.failures, matrices)
        print()
    print(f"shards ({len(report.shards)}):")
    header = f"  {'shard':>5s} {'n':>4s} {'pops':>6s} {'hits':>7s} {'misses':>7s} {'seconds':>8s}"
    print(header)
    for shard in report.shards:
        stats = shard.stats
        print(
            f"  {shard.shard:5d} {len(shard.workloads):4d} {stats.worklist_pops:6d} "
            f"{stats.transfer_cache_hits:7d} {stats.transfer_cache_misses:7d} "
            f"{shard.seconds:8.3f}"
        )
    print()
    stats = report.stats
    size = cache_size if cache_size is not None else DEFAULT_LIMITS.transfer_cache_size
    if cache_policy is not None:
        policy = cache_policy
    else:
        policy = cache.policy if cache is not None else "lru"
    if cache is None:
        tier = "none (in-process only)"
    else:
        where = f" @ {cache.directory}" if cache.directory else ""
        tier = f"{cache.backend}{where}"
    print(f"transfer cache: size={size} policy={policy} persistent={tier}")
    if stats.persistent_cache_requests:
        print(
            f"  persistent: hits={stats.persistent_cache_hits} "
            f"misses={stats.persistent_cache_misses} "
            f"hit_rate={stats.persistent_cache_hit_rate:.4f} "
            f"writes={stats.persistent_cache_writes} "
            f"evictions={stats.persistent_cache_evictions}"
        )
    print()
    print("merged AnalysisStats:")
    # Counters only: the intern tables live in the worker processes.
    for key, value in report.stats.counters().items():
        print(f"  {key:28s} {value}")
    print(f"  {'transfer_cache_hit_rate':28s} {report.stats.transfer_cache_hit_rate:.4f}")
    if report.intern_tables:
        print()
        print("interning-table growth (summed across shard workers):")
        for table in sorted(report.intern_tables):
            print(f"  {table:28s} {report.intern_tables[table]}")

    tails = report.tails()
    if tails:
        print()
        print("workload latency tails (from merged histogram buckets):")
        print(f"  {'workload':24s} {'n':>4s} {'p50':>10s} {'p90':>10s} {'p99':>10s}")
        for name, row in tails.items():
            print(
                f"  {name:24s} {row['count']:4d} {row['p50_seconds']:10.6f} "
                f"{row['p90_seconds']:10.6f} {row['p99_seconds']:10.6f}"
            )

    widening_counters = AnalysisStats.WIDENING_FIELDS + ("adaptive_escalations",)
    widened = {
        name: row
        for name, row in report.widening.items()
        if any(row.get(counter, 0) for counter in widening_counters)
    }
    print()
    print(f"widening telemetry ({len(widened)}/{len(report.widening)} workloads widened):")
    for name, row in widened.items():
        parts = [
            f"{counter}={row[counter]}"
            for counter in widening_counters
            if row.get(counter, 0)
        ]
        limits_used = row.get("final_limits", {})
        print(f"  {name:24s} {' '.join(parts)}"
              f"  (final max_segments={limits_used.get('max_segments')}, "
              f"max_paths={limits_used.get('max_paths_per_entry')})")
