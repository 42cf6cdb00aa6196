"""The persistent transfer-cache subsystem: codec, LRU layer, disk store, wiring."""

import json

import pytest

from repro.analysis import AnalysisLimits
from repro.analysis.context import AnalysisStats
from repro.analysis.engine import BatchAnalyzer
from repro.analysis.matrix import PathMatrix
from repro.analysis.pathset import PathSet
from repro.analysis.telemetry import WideningTally, widening_scope
from repro.analysis.transfer import (
    TransferCache,
    apply_basic_statement,
    apply_basic_statement_cached,
)
from repro.cache import (
    CacheConfig,
    CacheDecodeError,
    DiskBackend,
    PolicyCache,
    decode_entry,
    encode_entry,
    open_backend,
    transfer_key,
)
from repro.sil import ast
from repro.workloads import generate_scenarios, load
from repro.workloads.suite import source


def sample_matrix(limits=None):
    matrix = PathMatrix(["a", "b", "c"], limits=limits or AnalysisLimits())
    matrix.set("a", "b", PathSet.parse("L1"))
    matrix.set("b", "c", PathSet.parse("S?, D+?"))
    return matrix


class TestCodec:
    def test_transfer_key_is_stable_and_content_addressed(self):
        stmt = ast.CopyHandle(target="a", source="b")
        twin = ast.CopyHandle(target="a", source="b")  # distinct object, same content
        limits = AnalysisLimits()
        key = transfer_key(stmt, limits, sample_matrix())
        assert key == transfer_key(stmt, limits, sample_matrix())
        assert key == transfer_key(twin, limits, sample_matrix())
        assert len(key) == 64 and int(key, 16) >= 0

    def test_key_separates_statement_kinds_with_equal_rendering(self):
        # A scalar assign renders exactly like a handle copy but has a
        # different transfer function; the kind must keep them apart.
        copy_stmt = ast.CopyHandle(target="x", source="y")
        scalar_stmt = ast.ScalarAssign(target="x", expr=ast.Name(ident="y"))
        limits = AnalysisLimits()
        matrix = sample_matrix()
        assert transfer_key(copy_stmt, limits, matrix) != transfer_key(
            scalar_stmt, limits, matrix
        )

    def test_key_depends_on_limits_and_matrix(self):
        stmt = ast.AssignNil(target="a")
        matrix = sample_matrix()
        base = transfer_key(stmt, AnalysisLimits(), matrix)
        assert base != transfer_key(stmt, AnalysisLimits(max_segments=8), matrix)
        other = sample_matrix()
        other.set("a", "c", PathSet.parse("R1"))
        assert base != transfer_key(stmt, AnalysisLimits(), other)

    def test_key_ignores_transfer_cache_size(self):
        # The cache size is a memory knob, not a semantics knob: runs with
        # different sizes must share persistent entries.
        from dataclasses import replace

        stmt = ast.AssignNil(target="a")
        limits = AnalysisLimits()
        resized = replace(limits, transfer_cache_size=7)
        assert transfer_key(stmt, limits, sample_matrix(limits)) == transfer_key(
            stmt, resized, sample_matrix(resized)
        )

    def test_round_trip_is_exact(self):
        limits = AnalysisLimits()
        matrix = sample_matrix(limits)
        stmt = ast.StoreField(target="a", field_name=ast.Field.LEFT, source="c")
        computed = apply_basic_statement(matrix, stmt, limits)
        tally = WideningTally(segment_collapses=2, exact_widenings=1)

        decoded, replayed = decode_entry(encode_entry(computed, tally), limits)
        assert decoded.matrix == computed.matrix
        assert decoded.matrix.handles == computed.matrix.handles
        assert decoded.diagnostics == computed.diagnostics
        assert replayed == tally
        # Decoded matrices are shared like cached ones: sealed.
        with pytest.raises(ValueError, match="sealed"):
            decoded.matrix.add_handle("z")

    def test_decode_fires_no_widening_telemetry(self):
        # Paths are rebuilt verbatim, never re-normalized — even under
        # limits far tighter than the ones the entry was computed with.
        wide = AnalysisLimits(max_segments=16, max_exact_count=64)
        matrix = PathMatrix(["a", "b"], limits=wide)
        matrix.set("a", "b", PathSet.parse("L9L9R9L9R9"))
        stmt = ast.AssignNil(target="c")
        computed = apply_basic_statement(matrix, stmt, wide)
        payload = encode_entry(computed, WideningTally())

        observer = WideningTally()
        with widening_scope(observer):
            decoded, _ = decode_entry(payload, wide)
        assert not observer.fired
        assert decoded.matrix == computed.matrix

    def test_malformed_payloads_raise_decode_error(self):
        limits = AnalysisLimits()
        for payload in ("not json", "{}", json.dumps({"v": 999}),
                        json.dumps({"v": 1, "matrix": {"handles": [], "entries": [["a", "b", "L1&"]]},
                                    "diagnostics": [], "widening": {}})):
            with pytest.raises(CacheDecodeError):
                decode_entry(payload, limits)


class TestPolicyCache:
    def test_lru_evicts_least_recently_used(self):
        cache = PolicyCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the victim
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_put_of_existing_key_is_touch_only(self):
        cache = PolicyCache(2)
        cache.put("a", 1)
        assert cache.put("a", 99) == 0
        assert cache.get("a") == 1  # entries are immutable once admitted

    def test_remove_drops_without_counting_an_eviction(self):
        cache = PolicyCache(2)
        cache.put("a", 1)
        assert cache.remove("a") is True
        assert cache.remove("a") is False
        assert "a" not in cache and cache.evictions == 0
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)
        assert len(cache) == 2 and cache.evictions == 1


class TestDiskBackend:
    def test_persists_across_reopen(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        assert store.write({"k1": "p1"}) == (1, 0)
        store.close()
        reopened = DiskBackend(str(tmp_path))
        assert reopened.get("k1") == "p1"
        assert len(reopened) == 1
        reopened.close()

    def test_content_addressed_writes_are_idempotent(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        store.write({"k": "p"})
        assert store.write({"k": "p"}) == (0, 0)
        store.close()

    def test_capacity_enforced_by_policy(self, tmp_path):
        store = DiskBackend(str(tmp_path), capacity=2)
        store.write({"a": "1", "b": "2"})
        assert store.get("a") == "1"  # touch a in a later flush epoch
        written, evicted = store.write({"c": "3"})
        assert (written, evicted) == (1, 1)
        assert store.get("b") is None  # b was least recently used
        assert store.get("a") == "1" and store.get("c") == "3"
        store.close()

    def test_discard_reclassifies_the_hit_and_deletes_the_row(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        store.write({"bad": "garbage"})
        assert store.get("bad") == "garbage"
        store.discard("bad")
        assert store.get("bad") is None
        # The failed lookup reads as a miss, not a hit; rewriting works.
        assert store.write({"bad": "repaired"}) == (1, 0)
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert store.get("bad") == "repaired"
        store.close()

    def test_store_with_a_policy_meta_row_still_opens(self, tmp_path):
        # Stores written before LRU became the only order carry a 'policy'
        # row in meta; they must open, serve and accept writes unchanged.
        import sqlite3

        from repro.cache import STORE_FILENAME

        store = DiskBackend(str(tmp_path))
        store.write({"k": "p"})
        store.close()
        connection = sqlite3.connect(str(tmp_path / STORE_FILENAME))
        connection.execute("INSERT INTO meta (key, value) VALUES ('policy', 'lfu')")
        connection.commit()
        connection.close()

        reopened = DiskBackend(str(tmp_path))
        assert reopened.get("k") == "p"
        assert reopened.write({"k2": "p2"}) == (1, 0)
        stats = reopened.stats()
        assert stats["entries"] == 2 and stats["writes"] == 2
        reopened.close()

    def test_stats_accumulate_across_sessions(self, tmp_path):
        store = DiskBackend(str(tmp_path))
        store.write({"k": "p"})
        store.get("k")
        store.get("absent")
        store.write({})
        store.close()
        reopened = DiskBackend(str(tmp_path))
        stats = reopened.stats()
        assert stats["writes"] == 1 and stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["size_bytes"] > 0
        assert reopened.clear() == 1
        assert reopened.stats()["writes"] == 0
        reopened.close()


class TestCacheConfig:
    def test_disk_requires_directory(self):
        with pytest.raises(ValueError, match="requires a directory"):
            CacheConfig(directory=None).validated()

    def test_open_backend_dispatches(self, tmp_path):
        disk = open_backend(CacheConfig(directory=str(tmp_path)))
        assert disk.kind == "disk"
        disk.close()


class TestTransferCachePersistentTier:
    def make_stmt_and_matrix(self):
        matrix = PathMatrix(["a", "b", "c"])
        matrix.set("b", "c", PathSet.parse("L1"))
        return ast.CopyHandle(target="a", source="b"), matrix

    def test_read_through_promotes_and_replays(self, tmp_path):
        stmt, matrix = self.make_stmt_and_matrix()
        backend = DiskBackend(str(tmp_path))

        cold_cache = TransferCache(capacity=64, backend=backend)
        cold = AnalysisStats()
        computed = apply_basic_statement_cached(matrix, stmt, cache=cold_cache, stats=cold)
        cold_cache.flush(cold)
        assert cold.persistent_cache_misses == 1 and cold.persistent_cache_writes == 1

        # A fresh in-memory cache over the same backend: the lookup misses
        # memory, hits the store, decodes and promotes.
        warm_cache = TransferCache(capacity=64, backend=backend)
        warm = AnalysisStats()
        twin = ast.CopyHandle(target="a", source="b")
        served = apply_basic_statement_cached(matrix.copy(), twin, cache=warm_cache, stats=warm)
        assert served.matrix == computed.matrix
        assert warm.persistent_cache_hits == 1 and warm.transfer_cache_misses == 0
        # The promoted entry now answers from memory.
        again = apply_basic_statement_cached(matrix.copy(), twin, cache=warm_cache, stats=warm)
        assert again is served
        assert warm.transfer_cache_hits == 2 and warm.persistent_cache_hits == 1
        backend.close()

    def test_equal_statement_hits_memory_before_flush(self, tmp_path):
        # Same statement content at two distinct objects: the second lookup
        # hits the content-keyed memory layer without consulting the store.
        stmt, matrix = self.make_stmt_and_matrix()
        backend = DiskBackend(str(tmp_path))
        cache = TransferCache(capacity=64, backend=backend)
        stats = AnalysisStats()
        first = apply_basic_statement_cached(matrix, stmt, cache=cache, stats=stats)
        twin = ast.CopyHandle(target="a", source="b")
        second = apply_basic_statement_cached(matrix.copy(), twin, cache=cache, stats=stats)
        assert second is first
        assert stats.transfer_cache_hits == 1 and stats.transfer_cache_misses == 1
        assert stats.persistent_cache_hits == 0 and stats.persistent_cache_misses == 1
        written, _ = cache.flush(stats)
        assert written == 1  # one computation, one delta
        backend.close()

    def test_corrupt_store_entry_self_heals(self, tmp_path):
        # A payload that fails to decode must be discarded and re-admitted
        # from the recomputation at the next flush — not ignored forever.
        import sqlite3

        from repro.cache import STORE_FILENAME

        stmt, matrix = self.make_stmt_and_matrix()
        config = CacheConfig(directory=str(tmp_path))
        cold = BatchAnalyzer(limits=AnalysisLimits(), cache=config)
        reference = apply_basic_statement_cached(
            matrix, stmt, cache=cold.cache, stats=cold.stats
        )
        cold.close()

        connection = sqlite3.connect(str(tmp_path / STORE_FILENAME))
        (key,) = connection.execute("SELECT key FROM entries").fetchone()
        connection.execute("UPDATE entries SET payload = 'corrupt'")
        connection.commit()
        connection.close()

        warm = BatchAnalyzer(limits=AnalysisLimits(), cache=config)
        healed = apply_basic_statement_cached(
            matrix.copy(), stmt, cache=warm.cache, stats=warm.stats
        )
        assert healed.matrix == reference.matrix
        assert warm.stats.persistent_cache_hits == 0  # corrupt row is a miss
        assert warm.stats.transfer_cache_misses == 1
        warm.close()

        # The store now holds the repaired payload: a third run hits it.
        third = BatchAnalyzer(limits=AnalysisLimits(), cache=config)
        assert apply_basic_statement_cached(
            matrix.copy(), stmt, cache=third.cache, stats=third.stats
        ).matrix == reference.matrix
        assert third.stats.persistent_cache_hits == 1
        store = DiskBackend(str(tmp_path))
        row = store._connection.execute(
            "SELECT payload FROM entries WHERE key = ?", (key,)
        ).fetchone()
        assert row[0] != "corrupt"
        store.close()
        third.close()

    def test_memory_evictions_are_counted_into_stats(self):
        cache = TransferCache(capacity=1)
        stats = AnalysisStats()
        matrix = PathMatrix(["v0", "v1", "v2"])
        for index in range(3):
            apply_basic_statement_cached(
                matrix, ast.AssignNil(target=f"v{index}"), cache=cache, stats=stats
            )
        assert stats.transfer_cache_evictions == 2
        assert cache.evictions == 2


class TestWarmBatchAnalyzer:
    """Satellite: persistent hits must replay widening counters exactly."""

    def deep_program(self):
        scenario = generate_scenarios(1, base_seed=7, families=["deep"])[0]
        from repro.sil.normalize import parse_and_normalize

        return parse_and_normalize(scenario.source)

    def test_warm_run_replays_widening_telemetry_exactly(self, tmp_path):
        program, info = self.deep_program()
        config = CacheConfig(directory=str(tmp_path))

        cold = BatchAnalyzer(cache=config)
        cold_result = cold.analyze(program, info)
        cold.close()
        assert cold.stats.widening_fired()  # deep scenarios widen at defaults

        warm = BatchAnalyzer(cache=config)
        warm_result = warm.analyze(program, info)
        warm.close()

        assert warm.stats.widening_counters() == cold.stats.widening_counters()
        assert warm.stats.persistent_cache_hits > 0
        assert warm.stats.transfer_cache_misses == 0  # nothing recomputed
        assert warm_result.canonical() == cold_result.canonical()

    def test_warm_run_under_higher_cache_pressure_still_bit_identical(self, tmp_path):
        # A tiny in-memory layer forces constant eviction and re-reading
        # through the persistent tier; outcomes must not change.
        from dataclasses import replace

        program, info = load("add_and_reverse", depth=3)
        config = CacheConfig(directory=str(tmp_path))
        cold = BatchAnalyzer(cache=config)
        reference = cold.analyze(program, info).canonical()
        cold.close()

        tiny = replace(AnalysisLimits(), transfer_cache_size=2)
        warm = BatchAnalyzer(limits=tiny, cache=config)
        assert warm.analyze(program, info).canonical() == reference
        assert warm.stats.transfer_cache_evictions > 0
        assert warm.stats.transfer_cache_misses == 0
        warm.close()


CALLER = """program {name}

procedure main()
  x, y, z: handle
begin
  x := new();
  y := new();
  x.left := y;
  p(x);
  z := x.left
end

procedure p(h: handle)
  t: handle
begin
{body}
end
"""


class TestContentKeyedMemo:
    """The in-memory transfer memo keys on statement content, not identity."""

    def test_reparsed_program_warms_across_batches_in_process(self):
        # A second batch on the same TransferCache, fed a fresh parse (new
        # statement objects), recomputes nothing: the memo keys on content.
        from repro.analysis.reanalysis import cold_solve, result_digest
        from repro.sil.normalize import parse_and_normalize

        scenario = generate_scenarios(1, base_seed=7, families=["deep"])[0]
        cold_digest, cold_widening = cold_solve(*parse_and_normalize(scenario.source))
        first = BatchAnalyzer()
        first.analyze(*parse_and_normalize(scenario.source))
        second = BatchAnalyzer(transfer_cache=first.cache)
        result = second.analyze(*parse_and_normalize(scenario.source))
        assert second.stats.transfer_cache_misses == 0
        assert second.stats.transfer_cache_hits > 0
        assert result_digest(result) == cold_digest
        assert any(cold_widening.values())  # deep scenarios widen at defaults
        assert second.stats.widening_counters() == cold_widening

    def test_equal_call_text_with_different_callees_stays_apart(self):
        # Both programs reach ``p(x)`` with the same matrix, but only one
        # ``p`` relinks its argument: a call's outcome depends on the
        # callee's summary, so call sites must never share memo entries by
        # their text alone.
        from repro.analysis.reanalysis import cold_solve, result_digest
        from repro.sil.normalize import parse_and_normalize

        relinks = CALLER.format(
            name="relinks", body="  t := h.left;\n  h.left := nil;\n  h.right := t"
        )
        keeps = CALLER.format(name="keeps", body="  h.value := 1")
        for order in ((relinks, keeps), (keeps, relinks)):
            batch = BatchAnalyzer()
            for text in order:
                result = batch.analyze(*parse_and_normalize(text))
                assert result_digest(result) == cold_solve(*parse_and_normalize(text))[0]

    def test_memory_key_separates_statement_kinds_with_equal_rendering(self):
        # ``x := y`` renders alike as a handle copy and a scalar assign, but
        # only the copy relates x to y; the in-memory key must keep them
        # apart just as the persistent key does.
        matrix = PathMatrix(["x", "y"])
        matrix.set("y", "x", PathSet.parse("L1"))
        matrix = matrix.seal()
        copy_stmt = ast.CopyHandle(target="x", source="y")
        scalar_stmt = ast.ScalarAssign(target="x", expr=ast.Name(ident="y"))
        cache = TransferCache(capacity=64)
        stats = AnalysisStats()
        copied = apply_basic_statement_cached(matrix, copy_stmt, cache=cache, stats=stats)
        scalar = apply_basic_statement_cached(matrix, scalar_stmt, cache=cache, stats=stats)
        assert stats.transfer_cache_misses == 2 and stats.transfer_cache_hits == 0
        assert copied.matrix == apply_basic_statement(matrix, copy_stmt).matrix
        assert scalar.matrix == apply_basic_statement(matrix, scalar_stmt).matrix
        assert copied.matrix != scalar.matrix


class TestStatsRoundTrip:
    def test_new_counters_merge_and_round_trip(self):
        stats = AnalysisStats(
            persistent_cache_hits=3,
            persistent_cache_misses=2,
            persistent_cache_writes=2,
            persistent_cache_evictions=1,
            transfer_cache_evictions=4,
        )
        assert AnalysisStats.from_dict(stats.as_dict()) == stats
        merged = stats.merge(stats)
        assert merged.persistent_cache_hits == 6
        assert merged.persistent_cache_hit_rate == pytest.approx(6 / 10)
        assert stats.persistent_cache_hit_rate == pytest.approx(3 / 5)
