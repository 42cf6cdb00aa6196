"""EXT-D — cost of the analysis and ablation of the domain limits.

The paper stresses that restricting the method to regular recursive
structures keeps the analysis efficient.  This bench measures

* how whole-program analysis time scales with program size (number of
  statements) and with the number of live handles (the path-matrix
  dimension), using generated programs with known shape,
* an ablation over the :class:`AnalysisLimits` bounds showing that tighter
  widening keeps the key disjointness facts while reducing work, and
* the engine-architecture counters: worklist pops stay strictly below the
  seed's rounds x procedures product, the memoized transfer cache answers
  re-analyses, and the :class:`AnalysisStats` snapshot is written to
  ``bench-artifacts/BENCH_analysis.json`` (git-ignored) for CI to pick up.
"""

import json
import time

import pytest
from conftest import FRESH_STATS_ARTIFACT

from repro.analysis import analyze_many, analyze_program, analyze_program_reference
from repro.analysis.limits import AnalysisLimits
from repro.sil import ast
from repro.workloads import (
    WORKLOADS,
    load,
    make_handle_web_program,
    make_independent_loads_program,
    source,
    time_items,
)
from repro.workloads.generators import GeneratorConfig, generate_scenarios

#: Stats artifact consumed by the CI bench-smoke job.  It has the layout of
#: the committed ``BENCH_analysis.json`` ratchet baseline, so the timing
#: population below must stay identical to the CI ratchet job's
#: ``bench --time --seeds 12 --family dag,deep,mixed`` invocation.
STATS_ARTIFACT = FRESH_STATS_ARTIFACT

#: The ratchet population: every named workload plus the widening-heavy
#: generated families, with the bench CLI's default generator knobs.
RATCHET_FAMILIES = ("dag", "deep", "mixed")
RATCHET_SEEDS = 12


def ratchet_population():
    """The exact ``(name, source)`` items the CI cold-median ratchet times."""
    config = GeneratorConfig(procedures=2, depth=4, aliasing=0.3).clamped()
    scenarios = generate_scenarios(
        RATCHET_SEEDS, base_seed=0, config=config, families=RATCHET_FAMILIES
    )
    items = [(name, source(name, depth=4)) for name in WORKLOADS]
    items += [(scenario.name, scenario.source) for scenario in scenarios]
    return items


def banner(title: str) -> None:
    print("\n" + "=" * 78 + f"\n{title}\n" + "=" * 78)


def timed_analysis(program, info, limits=None):
    start = time.perf_counter()
    analysis = analyze_program(program, info, limits=limits or AnalysisLimits())
    elapsed = time.perf_counter() - start
    return analysis, elapsed


def test_ext_analysis_cost_scaling(benchmark):
    program, info = load("add_and_reverse", depth=4)
    benchmark(lambda: analyze_program(program, info))

    banner("EXT-D — analysis cost scaling")
    print("scaling with program size (independent load pairs):")
    print(f"{'pairs':>7s} {'stmts':>7s} {'seconds':>9s}")
    size_rows = []
    for pairs in (4, 8, 16, 32):
        generated, generated_info = make_independent_loads_program(pairs)
        _, elapsed = timed_analysis(generated, generated_info)
        stmts = ast.count_statements(generated)
        size_rows.append((pairs, stmts, elapsed))
        print(f"{pairs:7d} {stmts:7d} {elapsed:9.4f}")

    print("\nscaling with live-handle count (path-matrix dimension):")
    print(f"{'handles':>8s} {'seconds':>9s}")
    handle_rows = []
    for handles in (4, 8, 16):
        generated, generated_info = make_handle_web_program(handles)
        _, elapsed = timed_analysis(generated, generated_info)
        handle_rows.append((handles, elapsed))
        print(f"{handles:8d} {elapsed:9.4f}")

    # Sanity: everything analyzes in well under a second at these sizes, and
    # cost grows with size (no pathological blow-up, no constant-time fluke).
    assert all(elapsed < 5.0 for _, _, elapsed in size_rows)
    assert size_rows[-1][1] > size_rows[0][1]
    assert all(elapsed < 5.0 for _, elapsed in handle_rows)


def test_ext_analysis_limit_ablation(benchmark):
    program, info = load("add_and_reverse", depth=4)

    configurations = {
        "default (k=8, segs=4)": AnalysisLimits(),
        "tight (k=2, segs=2)": AnalysisLimits(
            max_exact_count=2, max_open_count=2, max_segments=2, max_paths_per_entry=3
        ),
        "wide (k=16, segs=6)": AnalysisLimits(
            max_exact_count=16, max_open_count=16, max_segments=6, max_paths_per_entry=16
        ),
    }

    def run_all():
        results = {}
        for label, limits in configurations.items():
            analysis, elapsed = timed_analysis(program, info, limits)
            point_b = analysis.point_before_call("add_n", "add_n", 0)
            results[label] = {
                "seconds": elapsed,
                "iterations": analysis.iterations,
                "disjoint": point_b.unrelated("l", "r"),
                "pB_h_star_h": point_b.get("h*", "h").format(),
            }
        return results

    results = benchmark(run_all)

    banner("EXT-D — ablation of the widening limits (add_and_reverse)")
    print(f"{'configuration':24s} {'seconds':>9s} {'iters':>6s} {'l⊥r?':>6s}  p[h*,h]")
    for label, row in results.items():
        print(
            f"{label:24s} {row['seconds']:9.4f} {row['iterations']:6d} "
            f"{str(row['disjoint']):>6s}  {row['pB_h_star_h']}"
        )

    # The key disjointness fact (and hence Figure 8) survives every setting.
    assert all(row["disjoint"] for row in results.values())


def test_ext_analysis_worklist_and_cache_stats():
    """EXT-D' — engine-architecture counters (worklist + memoized transfers).

    Asserts the two structural speedups of the pipeline engine:

    * the worklist solver performs strictly fewer procedure analyses than
      the seed's rounds x procedures bound (measured per workload against
      the retained reference engine), and
    * a re-analysis of the same program is fully served by the memoized
      transfer cache (nonzero hit rate; in fact 100%).

    Writes the aggregate :class:`AnalysisStats` snapshot to
    ``bench-artifacts/BENCH_analysis.json``.
    """
    banner("EXT-D' — worklist + transfer-cache statistics")
    print(
        f"{'workload':16s} {'pops':>5s} {'rounds':>7s} {'procs':>6s} "
        f"{'bound':>6s} {'rerun-hit%':>10s}"
    )

    per_workload = {}
    names = sorted(name for name in WORKLOADS)
    for name in names:
        program, info = load(name, depth=3)
        reference = analyze_program_reference(program, info)
        first = analyze_program(program, info)
        rerun = analyze_program(program, info)

        procedures = len(reference.entry_matrices)
        bound = reference.iterations * procedures
        pops = first.stats.worklist_pops
        hit_rate = rerun.stats.transfer_cache_hit_rate

        per_workload[name] = {
            "worklist_pops": pops,
            "reference_rounds": reference.iterations,
            "procedures": procedures,
            "rounds_times_procedures": bound,
            "rerun_hit_rate": round(hit_rate, 4),
            # Per-workload widening telemetry (fresh stats per run, so the
            # counters are this workload's own — and the safety net never
            # fires at default limits).
            "widening": first.stats.widening_counters(),
        }
        assert first.stats.iteration_guard_trips == 0
        print(
            f"{name:16s} {pops:5d} {reference.iterations:7d} {procedures:6d} "
            f"{bound:6d} {hit_rate:10.1%}"
        )

        # The worklist never exceeds the seed's rounds x procedures work.
        assert pops <= bound
        # Identical results, served from the cache on the second run.
        assert rerun.entry_matrices == first.entry_matrices
        assert rerun.stats.transfer_cache_hits > 0
        assert hit_rate > 0.0

    # Multi-procedure workloads must genuinely beat the old bound.
    multi = {k: v for k, v in per_workload.items() if v["procedures"] > 1}
    assert multi and all(
        row["worklist_pops"] < row["rounds_times_procedures"] for row in multi.values()
    )

    # Batch analysis over the whole suite shares one context; its aggregate
    # stats are the artifact CI uploads.
    suite_results = analyze_many([load(name, depth=3) for name in names])
    suite_stats = suite_results[0].stats
    print("\naggregate AnalysisStats over the batched suite:")
    print(suite_stats.format())
    assert suite_stats.programs_analyzed == len(names)

    # Wall-clock axis over the ratchet population (the same harness
    # `python -m repro bench --time` drives): cold + warm medians per
    # workload, peak interning tables, and the calibration loop the
    # cold-median CI ratchet normalizes with.
    items = ratchet_population()
    timing = time_items(items, reps=5)
    print("\nper-workload cold/warm median wall time (5 reps each):")
    for name, row in timing["workloads"].items():
        print(
            f"  {name:16s} cold {row['median_seconds']:.6f}s "
            f"warm {row['warm_median_seconds']:.6f}s"
        )
    assert not timing["failures"]
    assert len(timing["workloads"]) == len(items)
    assert all(row["median_seconds"] > 0 for row in timing["workloads"].values())
    # Warm (memoized replay) must beat cold computation across the
    # population — asserted on the totals, which are noise-stable.
    cold_total = sum(row["median_seconds"] for row in timing["workloads"].values())
    warm_total = sum(row["warm_median_seconds"] for row in timing["workloads"].values())
    assert warm_total < cold_total, (warm_total, cold_total)
    assert timing["calibration_seconds"] > 0
    assert timing["intern_tables_peak"].get("matrix_rows_interned", 0) > 0
    assert timing["intern_tables_peak"].get("symbols_interned", 0) > 0

    # Tail-latency accounting over the same population: one suite run whose
    # per-workload latency histograms yield the p50/p90/p99 rows (plus the
    # exact bucket-merged ``_overall``) CI surfaces from the artifact.
    from repro.workloads.suite import ShardedSuiteRunner

    suite_report = ShardedSuiteRunner(items, shards=1).run()
    assert not suite_report.failures
    tails = suite_report.tails()
    print("\nworkload latency tails (from merged histogram buckets):")
    for name, row in tails.items():
        print(
            f"  {name:24s} n={row['count']} p50={row['p50_seconds']:.6f} "
            f"p90={row['p90_seconds']:.6f} p99={row['p99_seconds']:.6f}"
        )
    assert set(tails) >= set(WORKLOADS) | {"_overall"}

    artifact = {
        "suite": suite_stats.as_dict(),
        "per_workload": per_workload,
        "timing": timing,
        "tails": tails,
    }
    STATS_ARTIFACT.parent.mkdir(exist_ok=True)
    STATS_ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {STATS_ARTIFACT}")
