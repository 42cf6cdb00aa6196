"""Shard-mergeable metrics: exact merges, bucket quantiles, determinism.

The registry's one load-bearing promise is the same one
``AnalysisStats``/``WideningTally`` already keep: **sharded ==
single-process, bit for bit**.  These tests pin the three mechanisms that
promise rests on —

* integer-only storage, so every merge is exact integer addition;
* quantiles derived from fixed bucket boundaries, so a merge of shard
  histograms reports exactly the quantiles one process observing the
  union would report;
* canonical snapshots (key-sorted minified JSON), compared byte for byte
  for a real suite run at 1, 2 and 4 shards — and across subprocesses
  with different ``PYTHONHASHSEED`` values, mirroring
  ``test_cache_determinism.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    latency_tails,
    render_prometheus,
)
from repro.workloads.suite import ShardedSuiteRunner, source


def _deterministic(registry: MetricsRegistry) -> MetricsRegistry:
    """Strip wall-clock metrics; what's left must be shard-count-invariant."""
    return registry.filtered(lambda name: not name.endswith("_seconds"))


class TestInstruments:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", op="ping").inc()
        registry.counter("requests_total", op="ping").inc(2)
        registry.gauge("inflight").set(4)
        registry.gauge("inflight").dec()
        snapshot = registry.as_dict()
        assert snapshot["counters"]["requests_total{op=ping}"]["value"] == 3
        assert snapshot["gauges"]["inflight"]["value"] == 3

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram("h", boundaries=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        # sum is kept in integer nanoseconds: exact.
        assert histogram.sum_ns == 500_000 + 5_000_000 + 50_000_000 + 5_000_000_000

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))

    def test_redeclared_boundaries_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))

    def test_count_histogram_is_exact_for_integers(self):
        histogram = Histogram("pops", boundaries=DEFAULT_COUNT_BUCKETS)
        histogram.observe(12345)
        assert histogram.sum_ns == 12345 * 10**9


class TestQuantiles:
    def test_interpolation_inside_bucket(self):
        histogram = Histogram("h", boundaries=(0.0, 1.0))
        for _ in range(4):
            histogram.observe(0.5)
        # All mass in (0, 1]: the median interpolates to the bucket midpoint,
        # and no quantile exceeds the largest observation.
        assert histogram.quantile(0.5) == 0.5
        assert histogram.quantile(1.0) == 0.5

    def test_overflow_clamps_to_last_boundary(self):
        histogram = Histogram("h", boundaries=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(50.0)
        assert histogram.quantile(0.9) == 2.0

    def test_single_sample_quantiles_are_the_sample(self):
        # One 13.5 ms observation in the (10 ms, 25 ms] bucket: interpolating
        # across the bucket would report p50 = 17.5 ms and p99 = 24.85 ms.
        histogram = Histogram("h", DEFAULT_LATENCY_BUCKETS)
        histogram.observe(0.0135)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0135
        overflow = Histogram("h", boundaries=(1.0, 2.0))
        overflow.observe(50.0)
        assert overflow.quantile(0.5) == 50.0

    def test_extremes_are_exact_and_merge(self):
        shard_a = MetricsRegistry()
        shard_b = MetricsRegistry()
        shard_a.histogram("h").observe(0.004)
        shard_b.histogram("h").observe(0.0001)
        shard_b.histogram("h").observe(3.0)
        (merged,) = shard_a.merge(shard_b).histograms("h")
        assert (merged.min_ns, merged.max_ns) == (100_000, 3_000_000_000)
        clone = MetricsRegistry.from_dict(shard_a.merge(shard_b).as_dict())
        (round_tripped,) = clone.histograms("h")
        assert (round_tripped.min_ns, round_tripped.max_ns) == (100_000, 3_000_000_000)

    def test_empty_histogram(self):
        assert Histogram("h").quantile(0.99) == 0.0
        assert Histogram("h").mean() == 0.0
        assert Histogram("h").min_ns is None and Histogram("h").max_ns is None

    def test_merged_quantiles_equal_union_quantiles(self):
        shard_a = MetricsRegistry()
        shard_b = MetricsRegistry()
        union = Histogram("h", DEFAULT_LATENCY_BUCKETS)
        for value in (0.0002, 0.003, 0.04, 0.8):
            shard_a.histogram("h").observe(value)
            union.observe(value)
        for value in (0.0007, 0.02, 0.3, 7.0, 0.0001):
            shard_b.histogram("h").observe(value)
            union.observe(value)
        (merged,) = shard_a.merge(shard_b).histograms("h")
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == union.quantile(q)
        assert merged.sum_ns == union.sum_ns


class TestSnapshots:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("a_total").inc(7)
        registry.counter("b_total", op="x").inc(1)
        registry.gauge("level").set(-2)
        registry.histogram("h_seconds", workload="w").observe(0.004)
        return registry

    def test_roundtrip_is_canonical_identical(self):
        registry = self._populated()
        clone = MetricsRegistry.from_dict(registry.as_dict())
        assert clone.canonical() == registry.canonical()

    def test_json_roundtrip(self):
        registry = self._populated()
        clone = MetricsRegistry.from_dict(json.loads(json.dumps(registry.as_dict())))
        assert clone.canonical() == registry.canonical()

    def test_absorb_sums_everything(self):
        merged = self._populated().merge(self._populated())
        snapshot = merged.as_dict()
        assert snapshot["counters"]["a_total"]["value"] == 14
        assert snapshot["gauges"]["level"]["value"] == -4
        assert snapshot["histograms"]["h_seconds{workload=w}"]["count"] == 2

    def test_filtered_drops_by_name(self):
        registry = self._populated()
        survivor = registry.filtered(lambda name: not name.endswith("_seconds"))
        assert survivor.histograms() == []
        assert survivor.as_dict()["counters"]["a_total"]["value"] == 7

    def test_latency_tails_rows_and_overall(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", workload="fast").observe(0.001)
        registry.histogram("h_seconds", workload="slow").observe(1.0)
        tails = latency_tails(registry, "h_seconds", "workload")
        assert list(tails) == ["fast", "slow", "_overall"]
        assert tails["_overall"]["count"] == 2
        for row in tails.values():
            assert set(row) == {
                "count", "p50_seconds", "p90_seconds", "p99_seconds", "mean_seconds",
            }

    def test_prometheus_rendering(self):
        text = render_prometheus(self._populated())
        assert "# TYPE a_total counter" in text
        assert "b_total{op=\"x\"} 1" in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{workload="w",le="+Inf"} 1' in text
        assert 'h_seconds_count{workload="w"} 1' in text


class TestShardMergeDeterminism:
    """Sharded metrics == single-process metrics, bit for bit."""

    NAMES = ["add_and_reverse", "tree_add", "bst_build", "list_walk",
             "tree_mirror", "bitonic_sort"]

    def _canonical(self, shards: int) -> str:
        items = [(name, source(name, depth=3)) for name in self.NAMES]
        report = ShardedSuiteRunner(items, shards=shards).run()
        assert not report.failures
        return _deterministic(report.metrics).canonical()

    def test_two_and_four_shards_match_single_process(self):
        single = self._canonical(1)
        assert self._canonical(2) == single
        assert self._canonical(4) == single


#: Runs one sharded suite and prints the canonical deterministic snapshot
#: digest; launched under controlled PYTHONHASHSEED values.
_WORKER = """
import hashlib, json, sys
sys.path.insert(0, {src!r})

from repro.workloads.suite import ShardedSuiteRunner, source

names = ["add_and_reverse", "tree_add", "bst_build", "list_walk"]
report = ShardedSuiteRunner(
    [(name, source(name, depth=3)) for name in names], shards=2
).run()
assert not report.failures
canonical = report.metrics.filtered(
    lambda name: not name.endswith("_seconds")).canonical()
print(json.dumps({{
    "digest": hashlib.sha256(canonical.encode()).hexdigest(),
    "instruments": len(report.metrics),
}}, sort_keys=True))
"""


def _run_worker(hash_seed: str) -> dict:
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER.format(src=SRC)],
        capture_output=True,
        text=True,
        env=environment,
        check=True,
    )
    return json.loads(completed.stdout)


class TestHashSeedIndependence:
    def test_metrics_identical_across_hash_seeds(self):
        first = _run_worker("0")
        second = _run_worker("12345")
        assert first["instruments"] > 0
        assert first == second
