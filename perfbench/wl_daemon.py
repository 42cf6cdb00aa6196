"""``daemon-session``: one ``repro serve`` and one closed-loop client connection.

Why this workload: it exercises the ``server``, ``cache`` and ``reanalysis``
layers, and it separates reads from writes.  The client sends each request
only after the previous reply, as an editor session would, from a seeded
mix:

* 70% ``analyze`` repeats, drawn Zipf-weighted (exponent 1) from a
  fixed catalog of the ten named workloads plus 12 generated programs, all
  sent once before the measured session so every later one is a true
  repeat;
* 20% ``analyze`` of never-seen generated programs, which add
  misses, writes and evictions beside the hits;
* 10% ``reanalyze`` steps along ``generate_edit_script`` chains over
  mid-size ``make_edit_bench_scenario`` programs (8 walkers).

The seed draws the request sequence, the novel programs and the edits; the
catalog and its Zipf ranking are the same for every seed, so the repeat
latencies do not depend on which program one seed put at the head.

A cache change that speeds up reads at the cost of writes shows in its own
per-kind figure.  Every ``analyze`` result is compared with a cold
in-process ``analyze_program(...).canonical()`` and every ``reanalyze``
digest with ``cold_solve`` of the new version; the references are computed
after the session, outside the timed region, while the daemon is idle.
``setup_s`` is the median of five spawn-to-first-``ping`` times.  At least
``SNAPSHOT_REQUESTS`` requests run whatever ``--seconds`` says; memory and
cache occupancy are read after exactly that many, so they cover the same
amount of work in every run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import gate
import inputs
import layers
from stats import describe, mean, median, ratio

NAME = "daemon-session"
SPAWNS = 5
CATALOG_GENERATED = 12
ZIPF_EXPONENT = 1.0
#: Request kinds come in blocks of ten, shuffled by the seed, so every run
#: sends the same shares and only their order depends on the seed.
BLOCK = ("repeat",) * 7 + ("novel",) * 2 + ("edit",)
EDIT_PROCEDURES = 8
EDIT_STEPS = 4
#: With --trace 1, a ``ping`` is sent before every this-many requests.
PING_EVERY = 10
#: At most this many distinct sources go through the in-process sil probe.
SIL_PROBE_SOURCES = 60
CONNECT_TIMEOUT = 60.0
SNAPSHOT_REQUESTS = 200


class Daemon:
    """A ``repro serve`` child process and one client connection to it."""

    def __init__(self, ctx, tag: str, trace_file: Optional[str] = None):
        from repro.server import AnalysisClient

        self.socket = os.path.join(os.path.relpath(ctx.workdir, ctx.root), f"{tag}.sock")
        argv = [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
                "--log-level", "warning"]
        if trace_file:
            argv += ["--trace", trace_file]
        self.log = open(os.path.join(ctx.workdir, f"{tag}.log"), "w", encoding="utf-8")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ctx.root, env=ctx.env, stdout=self.log, stderr=subprocess.STDOUT
        )
        self.client = AnalysisClient(socket_path=self.socket, timeout=120.0)
        try:
            while True:
                try:
                    self.client.connect()
                    break
                except OSError:
                    if self.process.poll() is not None or time.perf_counter() - start > CONNECT_TIMEOUT:
                        raise
                    time.sleep(0.002)
            self.client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - start

    def memory_mb(self, field: str) -> float:
        """``VmRSS`` or ``VmHWM`` of the daemon process, in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise KeyError(field)

    def stop(self) -> None:
        """Graceful shutdown (which writes the trace), SIGKILL if it hangs."""
        try:
            if self.process.poll() is None:
                try:
                    self.client.request("shutdown")
                except Exception:  # noqa: BLE001 - fall back to the signal below
                    self.process.terminate()
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.client.close()
            self.log.close()


def catalog() -> List[inputs.Item]:
    """The repeat catalog, ranked for the Zipf draw: the same for every seed."""
    known = inputs.named_items() + inputs.population(
        inputs.rng_for("daemon-catalog"), 0, CATALOG_GENERATED
    )
    inputs.rng_for("daemon-ranking").shuffle(known)
    return known


def requests(seed: int, known: List[inputs.Item]) -> Iterator[Tuple[str, str, str, str]]:
    """``(kind, name, old_source, source)``; ``old_source`` is set for edits only."""
    rng = inputs.rng_for("daemon", seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(known))]
    novel = inputs.fresh_programs(
        inputs.rng_for("daemon-novel", seed), {text for _, text in known}
    )
    edits = inputs.edit_chains(inputs.rng_for("daemon-edits", seed), EDIT_PROCEDURES, EDIT_STEPS)
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat":
                name, text = rng.choices(known, weights)[0]
                yield kind, name, "", text
            elif kind == "novel":
                name, text = next(novel)
                yield kind, name, "", text
            else:
                name, old, new = next(edits)
                yield kind, name, old, new


class Record:
    __slots__ = ("kind", "name", "old", "source", "response", "error", "rtt", "start_ns", "end_ns")

    def __init__(self, kind, name, old, source):
        self.kind, self.name, self.old, self.source = kind, name, old, source
        self.response: Dict = {}
        self.error = ""
        self.rtt = 0.0
        self.start_ns = self.end_ns = 0


class Session:
    """One measured session's replies, ping times and memory/cache snapshots."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.ping_rtts: List[float] = []
        #: Daemon state right after set-up and after ``SNAPSHOT_REQUESTS``.
        self.start: Dict = {}
        self.snapshot: Dict = {}


def _state(daemon: Daemon) -> Dict:
    return {
        "rss_mb": daemon.memory_mb("VmRSS"),
        "peak_mb": daemon.memory_mb("VmHWM"),
        "cache_stats": daemon.client.request("cache_stats"),
    }


def session(ctx, daemon: Daemon, seconds: float, pings: bool) -> Session:
    """Warm the catalog, then send requests until ``seconds`` of round trips."""
    from repro.server import ServerError

    result = Session()
    result.start = _state(daemon)
    known = catalog()
    for name, text in known:
        daemon.client.request("analyze", programs=[{"name": name, "source": text}])
    records = result.records
    measured = 0.0
    for kind, name, old, text in requests(ctx.seed, known):
        if len(records) == SNAPSHOT_REQUESTS:
            result.snapshot = _state(daemon)
            if measured >= seconds:
                break
        elif measured >= seconds and len(records) > SNAPSHOT_REQUESTS:
            break
        if pings and len(records) % PING_EVERY == 0:
            start = time.perf_counter()
            if not daemon.client.ping():
                ctx.fail(["ping answered without pong"])
            result.ping_rtts.append(time.perf_counter() - start)
        record = Record(kind, name, old, text)
        record.start_ns = time.perf_counter_ns()
        try:
            if kind == "edit":
                record.response = daemon.client.request(
                    "reanalyze", old_source=old, new_source=text, name=name
                )
            else:
                record.response = daemon.client.request(
                    "analyze", programs=[{"name": name, "source": text}]
                )
        except ServerError as error:
            record.error = str(error)
        record.end_ns = time.perf_counter_ns()
        record.rtt = (record.end_ns - record.start_ns) / 1e9
        measured += record.rtt
        records.append(record)
    return result


def check(ctx, records: List[Record], cold_seconds: Optional[List[float]] = None) -> None:
    """The gate: every reply against its cold in-process reference."""
    canonical: Dict[str, Dict] = {}
    digests: Dict[str, str] = {}
    for record in records:
        ctx.attempted += 1
        if record.error:
            ctx.fail([f"{record.name}: error reply {record.error}"])
        elif record.kind == "edit":
            if record.source not in digests:
                start = time.perf_counter()
                digests[record.source] = gate.cold_digest(record.source)
                if cold_seconds is not None:
                    cold_seconds.append(time.perf_counter() - start)
            ctx.fail(gate.check_reanalyze(record.name, record.response, digests[record.source]))
        else:
            if record.source not in canonical:
                canonical[record.source] = gate.cold_canonical(record.source)
            ctx.fail(gate.check_analyze(record.name, record.response, canonical[record.source]))


def _rtts(records: List[Record], kind: Optional[str] = None) -> List[float]:
    return [r.rtt for r in records if kind is None or r.kind == kind]


def run(ctx) -> None:
    from repro.server.protocol import encode_frame

    setup = []
    for index in range(SPAWNS - 1):
        probe = Daemon(ctx, f"spawn{index}")
        setup.append(probe.setup_seconds)
        probe.stop()
    daemon = Daemon(ctx, "session")
    setup.append(daemon.setup_seconds)
    try:
        # With --trace 1 the time is split between this untraced daemon and
        # a traced one that replays the same request stream.
        untraced = session(ctx, daemon, ctx.seconds / 2 if ctx.trace else ctx.seconds, False)
    finally:
        daemon.stop()
    records = untraced.records
    check(ctx, records)

    everything = _rtts(records)
    kinds = {kind: _rtts(records, kind) for kind in ("repeat", "novel", "edit")}
    ctx.report += [
        f"requests: {len(records)} in {sum(everything):.3f} s of round trips "
        f"(catalog {10 + CATALOG_GENERATED} programs, Zipf s={ZIPF_EXPONENT}); "
        f"memory and cache read after {SNAPSHOT_REQUESTS} requests",
        f"all requests: {describe(everything)}",
    ] + [f"{kind:6s} requests: {describe(samples)}" for kind, samples in kinds.items()] + [
        f"setup runs (spawn to first ping): {', '.join(f'{s:.4f}' for s in setup)} s",
    ]
    for kind, metric in (("repeat", "repeat_p50_s"), ("novel", "novel_p50_s"), ("edit", "edit_p50_s")):
        if kinds[kind]:
            ctx.extra[metric] = (median(kinds[kind]), "s")
    ctx.timings(everything, setup, len(records), sum(everything))
    ctx.e2e["peak_rss_mb"] = (untraced.snapshot["peak_mb"], "MB")
    ctx.notes["peak_rss_mb"] = f"daemon VmHWM after {SNAPSHOT_REQUESTS} requests"
    for kind, metric in (("repeat", "repeat_p50_s"), ("novel", "novel_p50_s"), ("edit", "edit_p50_s")):
        ctx.notes[metric] = f"nearest-rank p50 of n={len(kinds[kind])}"
    if not ctx.trace:
        return

    trace_file = os.path.join(ctx.workdir, "daemon-trace.json")
    traced_daemon = Daemon(ctx, "traced", trace_file)
    try:
        traced = session(ctx, traced_daemon, ctx.seconds / 2, True)
    finally:
        traced_daemon.stop()
    traced_records, ping_rtts = traced.records, traced.ping_rtts
    cold_seconds: List[float] = []
    check(ctx, traced_records, cold_seconds)

    first = traced_records[0].start_ns // 1000 if traced_records else 0
    events = [
        layers.bench_event("server:request", r.start_ns, r.end_ns) for r in traced_records
    ] + [e for e in layers.trace_file_events(trace_file) if e["ts"] >= first]
    events = layers.with_self_times(events)
    names = layers.by_name(events)
    table = layers.by_layer(events)
    count = len(traced_records)

    def per(value: float) -> float:
        return value / count if count else 0.0

    stats = [r.response.get("stats") or r.response.get("request_stats") or {} for r in traced_records]

    def total(key: str) -> int:
        return sum(int(s.get(key, 0)) for s in stats)

    edits = [r.response for r in traced_records if r.kind == "edit" and not r.error]
    reused = sum(e["summaries_reused"] for e in edits)
    invalidated = sum(e["summaries_invalidated"] for e in edits)
    analyzes = [r for r in records if r.kind != "edit" and not r.error]
    hits, misses = total("transfer_cache_hits"), total("transfer_cache_misses")
    p_hits, p_misses = total("persistent_cache_hits"), total("persistent_cache_misses")
    run_warm = layers.span_count(names, "suite.run_warm")
    sources = list(dict.fromkeys(r.source for r in traced_records))[:SIL_PROBE_SOURCES]

    snapshot = untraced.snapshot
    metrics = layers.cli_probe(ctx.env)
    metrics.update(layers.sil_probe(sources))
    metrics.update(layers.analysis_metrics(names))
    metrics.update(
        {
            "analysis.worklist_pops": per(total("worklist_pops")),
            "analysis.statements_visited": per(total("statements_visited")),
            "analysis.matrices_allocated": per(total("matrices_allocated")),
            "analysis.transfer_hit_ratio": ratio(hits, hits + misses),
            "analysis.path_set_collapses": per(total("path_set_collapses")),
            "analysis.segment_collapses": per(total("segment_collapses")),
            "analysis.canonical_s": layers.canonical_probe(sources),
            "reanalysis.seconds": mean(e["seconds"] for e in edits),
            "reanalysis.reuse_ratio": ratio(reused, reused + invalidated),
            "reanalysis.dirty_seed_size": mean(e["dirty_seed_size"] for e in edits),
            "reanalysis.vs_cold_ratio": ratio(mean(e["seconds"] for e in edits), mean(cold_seconds)),
            "cache.persistent_hit_ratio": ratio(p_hits, p_hits + p_misses),
            "cache.decode_s": per(layers.span_seconds(names, "codec.decode", "self_s")),
            "cache.encode_s": per(layers.span_seconds(names, "codec.encode", "self_s")),
            "cache.flush_s": per(layers.span_seconds(names, "cache.flush", "self_s")),
            "cache.entries": snapshot["cache_stats"]["transfer_cache"]["entries"],
            "cache.evictions": snapshot["cache_stats"]["transfer_cache"]["evictions"],
            "server.ping_rtt_s": median(ping_rtts),
            "server.rtt_repeat_s": median(kinds["repeat"]),
            "server.rtt_novel_s": median(kinds["novel"]),
            "server.rtt_reanalyze_s": median(kinds["edit"]) if kinds["edit"] else 0.0,
            "server.handler_s": median([r.response["seconds"] for r in analyzes]),
            "server.overhead_s": median([r.rtt - r.response["seconds"] for r in analyzes]),
            "server.response_bytes": mean(len(encode_frame(r.response)) for r in records),
            "server.rss_growth_mb": snapshot["rss_mb"] - untraced.start["rss_mb"],
            "server.intern_growth": sum(snapshot["cache_stats"]["intern_tables"].values())
            - sum(untraced.start["cache_stats"]["intern_tables"].values()),
            "workloads.run_warm_self_s": ratio(
                layers.span_seconds(names, "suite.run_warm")
                - layers.span_seconds(names, "suite.workload"),
                run_warm,
            ),
        }
    )
    metrics.update(layers.layer_self_metrics(table, count))
    metrics.update(layers.overhead_metrics(everything, _rtts(traced_records)))
    ctx.layer_metrics = metrics
    ctx.report += [
        f"traced session: {count} requests, {len(ping_rtts)} pings; "
        f"untraced session: {len(records)} requests",
        f"traced requests: {describe(_rtts(traced_records))}",
        f"bases: analysis.transfer_hit_ratio {hits + misses} lookups, "
        f"cache.persistent_hit_ratio {p_hits + p_misses} persistent lookups, "
        f"reanalysis.reuse_ratio {reused + invalidated} summaries over {len(edits)} edits, "
        f"reanalysis.vs_cold_ratio {len(cold_seconds)} cold solves",
        f"server.handler_s / server.overhead_s: p50 over {len(analyzes)} untraced analyze "
        f"requests; server.rtt_*: p50 per kind, untraced",
    ] + layers.format_layer_table(table, count, "requests")
