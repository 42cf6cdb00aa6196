"""``batch-population``: one in-process batch over a seeded program population.

Why this workload: the front end (``sil``) and the ``analysis`` solver do
most of its work — one ``BatchAnalyzer`` over many distinct programs, as
``repro bench`` and ``analyze_suite`` run them — and it has no persistent
cache tier and no repeated program, so a cache or server change should
leave it unchanged.  It is also where the parallelized programs are run
concretely, so it carries the safety gate and ``speedup_geomean``.

Each program runs ``parse_and_normalize`` → ``BatchAnalyzer.analyze`` →
``result_digest`` (``canonical()`` plus its SHA-256) → ``parallelize_program``
with the path-matrix oracle over that analysis.  Programs come in chunks:
the first chunk is the ten named workloads plus 60 generated programs, each
later chunk the next 60 of a stratified stream that cycles through all six
families (``list``, ``tree``, ``web``, ``mixed``, ``dag``, ``deep``) and the
generator sizes in ``inputs.py``.  A chunk is generated before its timed
loop and executed concretely after it, so neither generation nor the gate
is timed.  At least ``MIN_CHUNKS`` chunks run whatever ``--seconds`` says;
``peak_rss_mb`` is read after them, so it covers the same amount of work in
every run and a faster program is not charged for processing more.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from typing import Dict, List

import gate
import inputs
import layers
from stats import describe, geomean, mean, ratio

NAME = "batch-population"
CHUNK = 60
SETUP_REPS = 5
#: ``speedup_geomean`` is taken over the first chunk only, which every run
#: processes whole, so it is a deterministic function of the seed.
SPEEDUP_CHUNKS = 1
#: Chunks every run processes; one full cycle of the size strata fits in them.
MIN_CHUNKS = 5


def chunk_items(seed: int, index: int) -> List[inputs.Item]:
    items = inputs.population(inputs.rng_for("batch", seed, index), index * CHUNK, CHUNK)
    return inputs.named_items() + items if index == 0 else items


def load_inputs(seed: int) -> List[inputs.Item]:
    """What ``setup_s`` covers beyond interpreter start and ``import repro``."""
    import repro  # noqa: F401 - the import is part of the set-up being timed

    return chunk_items(seed, 0)


def setup_seconds(seed: int, env: Dict[str, str]) -> List[float]:
    code = (
        "import sys; sys.path[:0] = ['perfbench']; import wl_batch; "
        f"wl_batch.load_inputs({int(seed)})"
    )
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


class _Tally:
    """Accumulates one phase's per-program observations."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.timed = 0.0
        self.core_statements = 0
        self.parallel = {"queries": 0, "independent_answers": 0, "groups": 0, "call_groups": 0}
        self.counters: Dict[str, int] = {}


def run(ctx) -> None:
    from repro.analysis.engine import BatchAnalyzer
    from repro.analysis.reanalysis import result_digest
    from repro.obs.trace import Tracer, install_tracer, span, uninstall_tracer
    from repro.parallel.oracle import PathMatrixOracle
    from repro.parallel.transform import parallelize_program
    from repro.sil import parse_and_normalize
    from repro.sil.ast import count_statements

    setup = setup_seconds(ctx.seed, ctx.env)
    load_inputs(ctx.seed)

    batch = BatchAnalyzer()
    tracer = Tracer()
    untraced, traced = _Tally(), _Tally()
    speedups: List[float] = []
    verdicts = {"flagged": 0, "unflagged": 0, "work": [], "span": []}
    diagnosed_programs = 0
    chunk = 0
    rss_mb = 0.0
    while untraced.timed + traced.timed < ctx.seconds or chunk < MIN_CHUNKS:
        items = chunk_items(ctx.seed, chunk)
        # With --trace 1, odd chunks run under the tracer and even chunks
        # without it, interleaved so both see the same warm-up.
        tracing = ctx.trace and chunk % 2 == 1
        tally = traced if tracing else untraced
        counters_before = batch.stats.counters()
        if tracing:
            install_tracer(tracer)
        done = []
        try:
            for name, text in items:
                start = time.perf_counter()
                try:
                    if tracing:
                        program, info = layers.front_end(text, span)
                        with span("analysis:analyze"):
                            result = batch.analyze(program, info)
                        with span("analysis:canonical"):
                            result_digest(result)
                        with span("parallel:transform"):
                            parallel = parallelize_program(
                                program, info, oracle=PathMatrixOracle(analysis=result)
                            )
                    else:
                        program, info = parse_and_normalize(text)
                        result = batch.analyze(program, info)
                        result_digest(result)
                        parallel = parallelize_program(
                            program, info, oracle=PathMatrixOracle(analysis=result)
                        )
                except Exception as error:  # noqa: BLE001 - counted, never dropped
                    ctx.attempted += 1
                    ctx.fail([f"{name}: {type(error).__name__}: {error}"])
                    continue
                elapsed = time.perf_counter() - start
                tally.latencies.append(elapsed)
                tally.timed += elapsed
                done.append((name, program, info, bool(result.diagnostics), parallel))
        finally:
            if tracing:
                uninstall_tracer()
        for key, value in batch.stats.counters().items():
            tally.counters[key] = tally.counters.get(key, 0) + value - counters_before.get(key, 0)

        # The gate, untimed: run each program and its parallel version.
        for name, program, info, diagnosed, parallel in done:
            ctx.attempted += 1
            if tracing:
                tally.core_statements += count_statements(program)
                for key in tally.parallel:
                    tally.parallel[key] += getattr(parallel.stats, key)
                install_tracer(tracer)
            try:
                with span("runtime:exec"):
                    verdict = gate.check_parallelization(name, program, info, diagnosed, parallel.program)
            finally:
                if tracing:
                    uninstall_tracer()
            ctx.fail(verdict.failures)
            diagnosed_programs += diagnosed
            verdicts["flagged"] += verdict.races_flagged
            verdicts["unflagged"] += verdict.races_unflagged
            if not verdict.failures:
                verdicts["work"].append(verdict.parallel_work)
                verdicts["span"].append(verdict.parallel_span)
            if chunk < SPEEDUP_CHUNKS and not diagnosed and verdict.parallel_span:
                speedups.append(verdict.sequential_span / verdict.parallel_span)
        chunk += 1
        if chunk == MIN_CHUNKS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # End-to-end figures come from the untraced chunks only.
    measured = untraced.latencies
    speedup = geomean(speedups)
    ctx.report += [
        f"population: {ctx.attempted} programs in {chunk} chunk(s) of {CHUNK} generated "
        f"(+10 named in the first); generator procedures {inputs.PROCEDURES}, "
        f"depth {inputs.DEPTHS}, aliasing {inputs.ALIASING}; peak RSS after {MIN_CHUNKS} chunks",
        f"per-program latency: {describe(measured)}",
        f"speedup_geomean over the first chunk's {len(speedups)} diagnostic-free programs "
        f"(sequential span / parallel span): {speedup:.4f}",
        f"structure diagnostics: {diagnosed_programs}/{ctx.attempted} programs; "
        f"races flagged {verdicts['flagged']}, unflagged {verdicts['unflagged']}",
        f"setup runs: {', '.join(f'{s:.4f}' for s in setup)} s",
    ]
    ctx.extra["speedup_geomean"] = (speedup, "ratio")
    ctx.timings(measured, setup, len(measured), untraced.timed)
    ctx.e2e["peak_rss_mb"] = (rss_mb, "MB")
    ctx.notes["peak_rss_mb"] = f"ru_maxrss of this process after {MIN_CHUNKS} chunks"
    ctx.notes["speedup_geomean"] = f"over {len(speedups)} diagnostic-free programs"
    if not ctx.trace:
        return

    events = layers.with_self_times(layers.tracer_events(tracer))
    names = layers.by_name(events)
    table = layers.by_layer(events)
    programs = len(traced.latencies)
    counters = traced.counters

    def per(value: float) -> float:
        return value / programs if programs else 0.0

    hits, misses = counters["transfer_cache_hits"], counters["transfer_cache_misses"]
    metrics = layers.cli_probe(ctx.env)
    metrics.update(layers.sil_metrics(names, programs, traced.core_statements))
    metrics.update(layers.analysis_metrics(names))
    metrics.update(
        {
            "analysis.worklist_pops": per(counters["worklist_pops"]),
            "analysis.statements_visited": per(counters["statements_visited"]),
            "analysis.matrices_allocated": per(counters["matrices_allocated"]),
            "analysis.transfer_hit_ratio": ratio(hits, hits + misses),
            "analysis.path_set_collapses": per(counters["path_set_collapses"]),
            "analysis.segment_collapses": per(counters["segment_collapses"]),
            "analysis.canonical_s": per(layers.span_seconds(names, "analysis:canonical")),
            "cache.decode_s": per(layers.span_seconds(names, "codec.decode", "self_s")),
            "cache.encode_s": per(layers.span_seconds(names, "codec.encode", "self_s")),
            "cache.flush_s": per(layers.span_seconds(names, "cache.flush", "self_s")),
            "cache.entries": len(batch.cache),
            "cache.evictions": batch.cache.evictions,
            "parallel.transform_s": per(layers.span_seconds(names, "parallel:transform", "self_s")),
            "parallel.queries": per(traced.parallel["queries"]),
            "parallel.independent_ratio": ratio(
                traced.parallel["independent_answers"], traced.parallel["queries"]
            ),
            "parallel.groups": per(traced.parallel["groups"]),
            "parallel.call_groups": per(traced.parallel["call_groups"]),
            "runtime.exec_s": per(layers.span_seconds(names, "runtime:exec")),
            "runtime.work": mean(verdicts["work"]),
            "runtime.span": mean(verdicts["span"]),
            "runtime.races_flagged": verdicts["flagged"],
            "runtime.races_unflagged": verdicts["unflagged"],
            "runtime.speedup_geomean": speedup,
        }
    )
    metrics.update(layers.layer_self_metrics(table, programs))
    metrics.update(layers.overhead_metrics(untraced.latencies, traced.latencies))
    ctx.layer_metrics = metrics
    ctx.report += [
        f"traced chunks: {programs} programs; untraced chunks: {len(untraced.latencies)} programs",
        f"analysis.transfer_hit_ratio base: {hits + misses} lookups; "
        f"parallel.independent_ratio base: {traced.parallel['queries']} queries",
        f"untraced latency: {describe(untraced.latencies)}",
        f"traced latency:   {describe(traced.latencies)}",
    ] + layers.format_layer_table(table, programs, "programs")
