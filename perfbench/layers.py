"""Per-layer attribution: span events → count, total and self time per layer.

Spans come from two places and share one event shape (Chrome "X" events:
``name``, ``ts`` and ``dur`` in microseconds of ``CLOCK_MONOTONIC``):

* the program's own flight recorder (``analysis.<pass>``, ``solve.visit``,
  ``codec.*``, ``cache.flush``, ``sil.parse``, ``suite.*``), turned on with
  ``install_tracer`` in-process or ``--trace FILE`` on a child process;
* the benchmark's spans around each call into a layer, named
  ``<layer>:<call>`` (``sil:tokenize``, ``server:request``, ...).

A span's self time is its duration minus the time its direct children
cover.  Events of a child process the benchmark waited on nest inside the
waiting span (both use ``CLOCK_MONOTONIC``), so a ``cli:invoke`` span's self
time is the invocation minus everything the child itself recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence

from stats import median

#: The layers of the per-layer table, named after the program's modules.
LAYERS = ("cli", "sil", "analysis", "cache", "parallel", "runtime", "server", "workloads")

#: First dotted component of a program span name → layer.
_PROGRAM_PREFIX = {
    "sil": "sil",
    "analysis": "analysis",
    "solve": "analysis",
    "codec": "cache",
    "cache": "cache",
    "suite": "workloads",
}

#: The analysis pipeline passes whose ``analysis.<pass>`` spans the
#: program emits, in execution order.
PASSES = ("validate", "typecheck", "summaries", "solve", "assemble")


def layer_of(name: str) -> str:
    if ":" in name:
        return name.split(":", 1)[0]
    return _PROGRAM_PREFIX.get(name.split(".", 1)[0], "other")


def bench_event(name: str, start_ns: int, end_ns: int) -> Dict:
    """A benchmark span in the program's event shape."""
    return {
        "name": name,
        "ph": "X",
        "ts": start_ns // 1000,
        "dur": max(0, end_ns - start_ns) // 1000,
    }


def tracer_events(tracer) -> List[Dict]:
    """Complete events of an in-process :class:`repro.obs.trace.Tracer`."""
    return [event for event in tracer.events() if event.get("ph") == "X"]


def trace_file_events(path: str) -> List[Dict]:
    """Complete events of a Chrome trace written by ``repro ... --trace``."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [event for event in document.get("traceEvents", []) if event.get("ph") == "X"]


def with_self_times(events: Iterable[Dict]) -> List[Dict]:
    """Copies of ``events`` with ``self`` (µs) and ``parent`` (name) set.

    All events are taken to lie on one timeline: the benchmark runs one
    operation at a time and waits for it, and the program records spans on
    one thread per operation.  Nesting is by interval containment; an event
    that starts inside an open span but ends after it is that span's sibling.
    """
    ordered = sorted((dict(event) for event in events), key=lambda e: (e["ts"], -e["dur"]))
    stack: List[Dict] = []
    for event in ordered:
        end = event["ts"] + event["dur"]
        # Two microseconds of slack: ``ts`` and ``dur`` are truncated
        # separately, so a child can appear to outlive its parent by one.
        while stack and stack[-1]["ts"] + stack[-1]["dur"] + 2 < end:
            stack.pop()
        event["self"] = event["dur"]
        event["parent"] = stack[-1]["name"] if stack else None
        if stack:
            stack[-1]["self"] -= event["dur"]
        stack.append(event)
    for event in ordered:
        event["self"] = max(0, event["self"])
    return ordered


def by_name(events: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"count", "total_s", "self_s"}}`` over self-timed events."""
    table: Dict[str, Dict[str, float]] = {}
    for event in events:
        row = table.setdefault(event["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += event["dur"] / 1e6
        row["self_s"] += event["self"] / 1e6
    return table


def by_layer(events: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """The per-layer table: count, total and self seconds for every layer.

    ``total_s`` counts only spans not nested inside a span of the same
    layer, so a layer's total is wall time spent inside it.
    """
    table = {layer: {"count": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for event in events:
        layer = layer_of(event["name"])
        row = table.setdefault(layer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += event["self"] / 1e6
        parent = event.get("parent")
        if parent is None or layer_of(parent) != layer:
            row["total_s"] += event["dur"] / 1e6
    return table


def span_seconds(table: Dict[str, Dict[str, float]], name: str, key: str = "total_s") -> float:
    return table.get(name, {}).get(key, 0.0)


def span_count(table: Dict[str, Dict[str, float]], name: str) -> int:
    return int(table.get(name, {}).get("count", 0))


def analysis_metrics(names: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Pipeline metrics from the program's ``analysis.<pass>``/``solve.visit`` spans.

    Normalized per pipeline run (one ``analysis.validate`` span each).
    """
    runs = span_count(names, "analysis.validate")
    per_run = (lambda value: value / runs) if runs else (lambda value: 0.0)
    metrics = {
        "analysis.solve_s": per_run(
            sum(span_seconds(names, f"analysis.{name}") for name in PASSES)
        ),
        "analysis.solve_visits": per_run(span_count(names, "solve.visit")),
    }
    for name in PASSES:
        metrics[f"analysis.pass_{name}_self_s"] = per_run(
            span_seconds(names, f"analysis.{name}", "self_s")
        )
    return metrics


def layer_self_metrics(layers: Dict[str, Dict[str, float]], operations: int) -> Dict[str, float]:
    """``<layer>.self_s``: each layer's self time per measured operation."""
    return {
        f"{layer}.self_s": layers[layer]["self_s"] / operations if operations else 0.0
        for layer in LAYERS
    }


def format_layer_table(layers: Dict[str, Dict[str, float]], operations: int, unit: str) -> List[str]:
    lines = [
        f"per-layer table ({operations} {unit}; self = duration minus direct children):",
        f"  {'layer':10s} {'spans':>8s} {'total_s':>10s} {'self_s':>10s} {'self/op_s':>11s}",
    ]
    for layer, row in layers.items():
        per_op = row["self_s"] / operations if operations else 0.0
        lines.append(
            f"  {layer:10s} {int(row['count']):8d} {row['total_s']:10.4f} "
            f"{row['self_s']:10.4f} {per_op:11.6f}"
        )
    return lines


# ---------------------------------------------------------------------------
# cli layer probes
# ---------------------------------------------------------------------------


def _child_seconds(argv: List[str], env: Dict[str, str], reps: int) -> List[float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def cli_probe(env: Dict[str, str], reps: int = 5) -> Dict[str, float]:
    """``cli.interpreter_s`` (bare interpreter) and ``cli.import_s`` (``import repro.cli``).

    Medians of ``reps`` child processes each; the import figure is the
    importing child minus the bare one.
    """
    bare = median(_child_seconds([sys.executable, "-c", "pass"], env, reps))
    imported = median(_child_seconds([sys.executable, "-c", "import repro.cli"], env, reps))
    return {"cli.interpreter_s": bare, "cli.import_s": imported - bare}


# ---------------------------------------------------------------------------
# sil layer: the front end, one public function per phase
# ---------------------------------------------------------------------------


def front_end(source: str, span):
    """``parse_and_normalize`` split into its phases, each under a span.

    Same work as ``parse_and_normalize``: the parser consumes the
    tokenizer's output and ``normalize_program`` gets the type checker's.
    """
    from repro.sil import check_program, normalize_program, tokenize
    from repro.sil.parser import Parser

    with span("sil:tokenize"):
        tokens = tokenize(source)
    with span("sil:parse"):
        program = Parser(tokens).parse_program()
    with span("sil:typecheck"):
        info = check_program(program)
    with span("sil:normalize"):
        return normalize_program(program, info)


def sil_metrics(names: Dict[str, Dict[str, float]], programs: int, core_statements: int) -> Dict[str, float]:
    def per(value: float) -> float:
        return value / programs if programs else 0.0

    return {
        "sil.tokenize_s": per(span_seconds(names, "sil:tokenize")),
        "sil.parse_s": per(span_seconds(names, "sil:parse")),
        "sil.typecheck_s": per(span_seconds(names, "sil:typecheck")),
        "sil.normalize_s": per(span_seconds(names, "sil:normalize")),
        "sil.core_statements": per(core_statements),
    }


def sil_probe(sources: Sequence[str]) -> Dict[str, float]:
    """Front-end phase times per program over ``sources``, in this process."""
    from repro.obs.trace import Tracer
    from repro.sil.ast import count_statements

    tracer = Tracer()
    statements = 0
    for source in sources:
        program, _ = front_end(source, tracer.span)
        statements += count_statements(program)
    names = by_name(with_self_times(tracer_events(tracer)))
    return sil_metrics(names, len(sources), statements)


def canonical_probe(sources: Sequence[str]) -> float:
    """Mean seconds of ``result_digest`` (``canonical()`` + SHA-256) per program."""
    from repro import analyze_program, parse_and_normalize
    from repro.analysis.reanalysis import result_digest

    total = 0.0
    for source in sources:
        result = analyze_program(*parse_and_normalize(source))
        start = time.perf_counter()
        result_digest(result)
        total += time.perf_counter() - start
    return total / len(sources) if sources else 0.0


def transform_probe(sources: Sequence[str]) -> float:
    """Mean seconds of ``parallelize_program`` over a prepared oracle, per program."""
    from repro import parse_and_normalize
    from repro.parallel.oracle import PathMatrixOracle
    from repro.parallel.transform import parallelize_program

    total = 0.0
    for source in sources:
        program, info = parse_and_normalize(source)
        oracle = PathMatrixOracle()
        oracle.prepare(program, info)
        start = time.perf_counter()
        parallelize_program(program, info, oracle=oracle)
        total += time.perf_counter() - start
    return total / len(sources) if sources else 0.0


def overhead_metrics(untraced: List[float], traced: List[float]) -> Dict[str, float]:
    """Tracing overhead: traced minus untraced median latency, and its ratio."""
    if not untraced or not traced:
        return {"obs.overhead_s": 0.0, "obs.overhead_ratio": 0.0}
    base = median(untraced)
    return {
        "obs.overhead_s": median(traced) - base,
        "obs.overhead_ratio": median(traced) / base - 1.0 if base else 0.0,
    }
