"""``cli-oneshot``: sequential ``python -m repro analyze <name> --census`` processes.

Why this workload: it is the user's one-shot path, and most of it is
interpreter start plus ``import repro.cli`` (about 0.3 s of a 0.35 s
invocation on a 2-vCPU Xeon VM under Python 3.11), so trimming start-up
moves it while a faster solver barely can (about 5 ms of analysis per run).

The invocations rotate over the ten named workloads in a seeded order, each
at a seeded ``--depth``; the census row each one prints is checked against
an in-process ``parallelism_census``.  ``setup_s`` is the median of five
discarded warm-up invocations.
"""

from __future__ import annotations

import itertools
import os
import re
import resource
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Tuple

import gate
import inputs
import layers
from stats import describe, ratio

NAME = "cli-oneshot"
WARMUPS = 5
DEPTHS = (3, 4, 5)

_STAT_ROW = re.compile(r"^\s+(?P<name>[a-z_]+)\s+(?P<value>\d+)\s*$")
_STATS = (
    "worklist_pops",
    "statements_visited",
    "matrices_allocated",
    "transfer_cache_hits",
    "transfer_cache_misses",
    "path_set_collapses",
    "segment_collapses",
)


def rotation(seed: int) -> Iterator[Tuple[str, int]]:
    """``(workload, depth)`` pairs: a seeded order of the ten named workloads, repeated."""
    from repro.workloads import WORKLOADS

    rng = inputs.rng_for("cli", seed)
    order = sorted(WORKLOADS)
    rng.shuffle(order)
    plan = [(name, rng.choice(DEPTHS)) for name in order]
    return itertools.cycle(plan)


def invoke(ctx, name: str, depth: int, trace_file: str = None):
    argv = [sys.executable, "-m", "repro", "analyze", name, "--depth", str(depth), "--census"]
    if trace_file:
        argv += ["--trace", trace_file]
    start = time.perf_counter_ns()
    process = subprocess.run(
        argv, cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=120
    )
    end = time.perf_counter_ns()
    return start, end, process


def parse_stats(stdout: str) -> Dict[str, int]:
    """The counters of the CLI's ``merged AnalysisStats`` block."""
    block = stdout.split("merged AnalysisStats:", 1)
    values: Dict[str, int] = {}
    if len(block) == 2:
        for line in block[1].splitlines()[1:]:
            match = _STAT_ROW.match(line)
            if not match:
                break
            values[match["name"]] = int(match["value"])
    return values


def run(ctx) -> None:
    plan = rotation(ctx.seed)
    references: Dict[Tuple[str, int], Dict[str, int]] = {}

    setup = []
    for _ in range(WARMUPS):
        name, depth = next(plan)
        start, end, process = invoke(ctx, name, depth)
        setup.append((end - start) / 1e9)

    untraced: List[float] = []
    traced: List[float] = []
    events: List[Dict] = []
    stats_total: Dict[str, int] = {key: 0 for key in _STATS}
    census_total = {key: 0 for key in gate.CENSUS_FIELDS}
    checked = []
    measured = 0.0
    while measured < ctx.seconds:
        name, depth = next(plan)
        # With --trace 1, every other invocation writes a trace.
        tracing = ctx.trace and len(untraced) > len(traced)
        trace_file = os.path.join(ctx.workdir, f"cli-{len(traced)}.json") if tracing else None
        start, end, process = invoke(ctx, name, depth, trace_file)
        seconds = (end - start) / 1e9
        measured += seconds
        (traced if tracing else untraced).append(seconds)
        checked.append((name, depth, process, tracing))
        if tracing and process.returncode == 0:
            events.append(layers.bench_event("cli:invoke", start, end))
            events.extend(layers.trace_file_events(trace_file))
            os.unlink(trace_file)
            for key, value in parse_stats(process.stdout).items():
                if key in stats_total:
                    stats_total[key] += value

    # The gate, untimed: each printed census row against the in-process one.
    for name, depth, process, tracing in checked:
        ctx.attempted += 1
        if (name, depth) not in references:
            references[name, depth] = gate.reference_census(name, depth)
        printed = gate.parse_census(process.stdout).get(name)
        ctx.fail(gate.check_census(name, process.returncode, printed, references[name, depth]))
        if printed is not None and tracing:
            for key in census_total:
                census_total[key] += printed[key]

    # End-to-end figures come from the untraced invocations only.
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ctx.report += [
        f"invocations: {len(untraced)} untraced, {len(traced)} traced (+{WARMUPS} warm-up), "
        f"rotating over {len(references)} (workload, depth) pairs",
        f"per-invocation latency: {describe(untraced)}",
        f"setup runs (warm-up invocations): {', '.join(f'{s:.4f}' for s in setup)} s",
    ]
    ctx.timings(untraced, setup, len(untraced), sum(untraced))
    ctx.e2e["peak_rss_mb"] = (rss_mb, "MB")
    ctx.notes["peak_rss_mb"] = "largest ru_maxrss of any repro child process"
    if not ctx.trace:
        return

    from repro.workloads import source

    events = layers.with_self_times(events)
    names = layers.by_name(events)
    table = layers.by_layer(events)
    runs = len(traced)

    def per(value: float) -> float:
        return value / runs if runs else 0.0

    hits, misses = stats_total["transfer_cache_hits"], stats_total["transfer_cache_misses"]
    metrics = layers.cli_probe(ctx.env)
    sources = [source(name, depth) for name, depth in references]
    metrics.update(layers.sil_probe(sources))
    metrics.update(layers.analysis_metrics(names))
    metrics.update(
        {
            "analysis.worklist_pops": per(stats_total["worklist_pops"]),
            "analysis.statements_visited": per(stats_total["statements_visited"]),
            "analysis.matrices_allocated": per(stats_total["matrices_allocated"]),
            "analysis.transfer_hit_ratio": ratio(hits, hits + misses),
            "analysis.path_set_collapses": per(stats_total["path_set_collapses"]),
            "analysis.segment_collapses": per(stats_total["segment_collapses"]),
            "analysis.canonical_s": layers.canonical_probe(sources),
            "cache.decode_s": per(layers.span_seconds(names, "codec.decode", "self_s")),
            "cache.encode_s": per(layers.span_seconds(names, "codec.encode", "self_s")),
            "cache.flush_s": per(layers.span_seconds(names, "cache.flush", "self_s")),
            "parallel.transform_s": layers.transform_probe(sources),
            "parallel.queries": per(census_total["queries"]),
            "parallel.independent_ratio": ratio(
                census_total["independent_answers"], census_total["queries"]
            ),
            "parallel.groups": per(census_total["groups"]),
            "parallel.call_groups": per(census_total["call_groups"]),
        }
    )
    metrics.update(layers.layer_self_metrics(table, runs))
    metrics.update(layers.overhead_metrics(untraced, traced))
    ctx.layer_metrics = metrics
    ctx.report += [
        f"traced invocations: {runs}; untraced: {len(untraced)}",
        f"analysis.transfer_hit_ratio base: {hits + misses} lookups; "
        f"parallel.independent_ratio base: {census_total['queries']} queries",
        f"traced latency: {describe(traced)}",
    ] + layers.format_layer_table(table, runs, "invocations")

