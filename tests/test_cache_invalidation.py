"""Targeted invalidation of the transfer caches, and disk-store compaction.

The in-memory transfer layer and the disk store must both honor the
delete-by-statement-label contract that incremental re-analysis relies
on: entries keyed by statements an edit removed are reclaimed, everything
else stays warm, and disk rows written without labels (pre-label-tracking
stores) are never matched.  The disk store also supports generation-based
compaction with VACUUM.
"""

import sqlite3

from repro.analysis.context import AnalysisStats
from repro.analysis.matrix import PathMatrix
from repro.analysis.pathset import PathSet
from repro.analysis.transfer import TransferCache, apply_basic_statement_cached
from repro.cache import STORE_FILENAME, DiskBackend
from repro.sil import ast
from repro.sil.printer import statement_label


def populate(backend):
    backend.write(
        {"key-a": "payload-a", "key-b": "payload-b", "key-c": "payload-c"},
        labels={"key-a": "Assign|x := nil", "key-b": "Assign|x := nil", "key-c": "Load|y := x.left"},
    )


class TestMemoryInvalidation:
    """The in-memory layer finds each entry's label from its content key."""

    NIL = ast.AssignNil(target="x")
    LOAD = ast.LoadField(target="y", source="x", field_name=ast.Field.LEFT)

    def populated(self):
        first = PathMatrix(["x", "y"]).seal()
        second = PathMatrix(["x", "y"])
        second.set("x", "y", PathSet.parse("L1"))
        second = second.seal()
        cache = TransferCache(capacity=64)
        for matrix, stmt in ((first, self.NIL), (second, self.NIL), (first, self.LOAD)):
            apply_basic_statement_cached(matrix, stmt, cache=cache)
        return cache, first

    def test_invalidate_drops_only_matching_labels(self):
        cache, matrix = self.populated()
        assert cache.invalidate_statements({statement_label(self.NIL)}) == 2
        assert len(cache) == 1
        stats = AnalysisStats()
        apply_basic_statement_cached(matrix, self.LOAD, cache=cache, stats=stats)
        apply_basic_statement_cached(matrix, self.NIL, cache=cache, stats=stats)
        assert stats.transfer_cache_hits == 1 and stats.transfer_cache_misses == 1

    def test_empty_label_set_is_a_noop(self):
        cache, _ = self.populated()
        assert cache.invalidate_statements(set()) == 0
        assert len(cache) == 3


class TestDiskInvalidation:
    def test_invalidate_drops_only_matching_labels(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            assert backend.invalidate({"Load|y := x.left"}) == 1
            assert backend.get("key-c") is None
            assert backend.get("key-a") == "payload-a"
            assert backend.stats()["invalidations"] == 1
        finally:
            backend.close()

    def test_unlabeled_rows_never_match(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            backend.write({"bare": "payload"})
            assert backend.invalidate({"Assign|x := nil"}) == 0
            assert backend.get("bare") == "payload"
        finally:
            backend.close()

    def test_invalidations_persist_across_reopens(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        populate(backend)
        backend.invalidate({"Assign|x := nil"})
        backend.close()
        reopened = DiskBackend(str(tmp_path))
        try:
            assert reopened.get("key-a") is None
            assert reopened.get("key-c") == "payload-c"
            assert reopened.stats()["invalidations"] == 2
        finally:
            reopened.close()

    def test_old_schema_store_migrates_in_place(self, tmp_path):
        # A store written before label tracking has no stmt column; opening
        # it adds the column, and its rows simply never match a sweep.
        path = tmp_path / STORE_FILENAME
        connection = sqlite3.connect(str(path))
        connection.executescript(
            """
            CREATE TABLE entries (
                key TEXT PRIMARY KEY,
                payload TEXT NOT NULL,
                created INTEGER NOT NULL,
                last_used INTEGER NOT NULL,
                hits INTEGER NOT NULL DEFAULT 0
            );
            CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL);
            INSERT INTO entries (key, payload, created, last_used)
                VALUES ('legacy', 'old-payload', 1, 1);
            """
        )
        connection.commit()
        connection.close()
        backend = DiskBackend(str(tmp_path))
        try:
            assert backend.get("legacy") == "old-payload"
            assert backend.invalidate({"Assign|x := nil"}) == 0
            assert backend.get("legacy") == "old-payload"
        finally:
            backend.close()


class TestDiskCompaction:
    def test_compact_sweeps_only_stale_generations(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            # Age the clock: each write bumps the store's flush generation.
            for generation in range(6):
                backend.write({f"fresh-{generation}": "payload"})
            report = backend.compact(max_age=4)
            assert report["swept"] > 0
            assert report["remaining"] == len(backend)
            # Recently-written entries survive.
            assert backend.get("fresh-5") == "payload"
            stats = backend.stats()
            assert stats["compactions"] == 1
            assert stats["swept"] == report["swept"]
        finally:
            backend.close()

    def test_compact_on_fresh_store_sweeps_nothing(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            report = backend.compact(max_age=8)
            assert report["swept"] == 0
            assert report["remaining"] == 3
        finally:
            backend.close()

    def test_compact_max_age_zero_sweeps_everything_stale(self, tmp_path):
        backend = DiskBackend(str(tmp_path))
        try:
            populate(backend)
            backend.write({"later": "payload"})  # bump the clock past 0
            report = backend.compact(max_age=0)
            assert report["remaining"] < 4
        finally:
            backend.close()
