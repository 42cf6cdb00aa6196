"""EXT-G — the flight recorder must not tax the un-instrumented hot path.

The observability layer's cost contract: with no tracer installed (the
default), every ``span()`` call site in the analysis hot paths reduces to
one module-global read returning a shared no-op object.  This bench holds
that contract against the committed cold-median baseline:

* tracing is **off** in a fresh process (nobody may leave a tracer
  installed at import time),
* the timing harness over the ratchet population — running through every
  instrumented layer (parse, passes, solver visits, cache flushes) —
  stays within the ratchet tolerance of the baseline cold medians, i.e.
  instrumenting the code paths did not slow them down.  The baseline is
  the stats artifact this test session's EXT-D bench just wrote (the
  git-ignored ``bench-artifacts/BENCH_analysis.json``) when there is one,
  else the committed ``BENCH_analysis.json``, and
* for scale, one traced run of the same population shows the recorder
  actually captured the span taxonomy (so the zero-cost path and the
  recording path are both exercised by this one module).
"""

import json

from conftest import COMMITTED_STATS_ARTIFACT, FRESH_STATS_ARTIFACT, banner

from repro.obs.trace import Tracer, install_tracer, tracing_enabled, uninstall_tracer
from repro.workloads import WORKLOADS, source
from repro.workloads.timing import (
    DEFAULT_RATCHET_TOLERANCE,
    check_cold_medians,
    format_ratchet,
    time_items,
)


def baseline_artifact():
    """The fresh stats artifact when a bench wrote one, else the committed one."""
    if FRESH_STATS_ARTIFACT.exists():
        return FRESH_STATS_ARTIFACT
    return COMMITTED_STATS_ARTIFACT


def population():
    """Every named workload — the stable core of the ratchet population."""
    return [(name, source(name, depth=4)) for name in WORKLOADS]


def test_ext_disabled_tracer_keeps_cold_medians():
    assert not tracing_enabled(), "a tracer leaked into the bench process"

    items = population()
    # Untimed warm-up pass: the baseline artifact (and the CLI ratchet
    # job) measure in a process whose global interning tables are already
    # populated; first-touch interning must not masquerade as span cost.
    from repro.workloads.suite import ShardedSuiteRunner

    assert not ShardedSuiteRunner(items, shards=1).run().failures
    timing = time_items(items, reps=5)
    assert not timing["failures"]

    baseline_path = baseline_artifact()
    baseline = json.loads(baseline_path.read_text())
    verdict = check_cold_medians(
        timing, baseline["timing"], tolerance=DEFAULT_RATCHET_TOLERANCE
    )
    banner(f"EXT-G — cold medians with tracing disabled vs {baseline_path}")
    print(format_ratchet(verdict))
    assert verdict["workloads_compared"] == len(items)
    assert not verdict["regressed"], (
        "instrumented hot paths regressed the cold-median ratchet: "
        f"total ratio {verdict['total_ratio']}"
    )


def test_ext_traced_run_records_the_span_taxonomy():
    from repro.workloads.suite import ShardedSuiteRunner

    tracer = install_tracer(Tracer())
    try:
        report = ShardedSuiteRunner(population(), shards=1).run()
    finally:
        uninstall_tracer()
    assert not report.failures

    names = {event["name"] for event in tracer.events()}
    expected = {"sil.parse", "analysis.typecheck", "analysis.solve",
                "solve.visit", "cache.flush", "suite.run", "suite.workload"}
    banner("EXT-G' — recorded span taxonomy (traced single-process run)")
    print(f"{len(tracer)} events, {len(names)} distinct span names:")
    for name in sorted(names):
        count = sum(1 for event in tracer.events() if event["name"] == name)
        print(f"  {name:24s} {count:6d}")
    assert expected <= names
    # The trace and the report agree on scale: at least one workload span
    # per analyzed workload.
    workload_spans = [e for e in tracer.events() if e["name"] == "suite.workload"]
    assert len(workload_spans) == len(report.results)
