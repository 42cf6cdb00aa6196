"""The bounded LRU mapping behind the in-memory cache layers.

One small mapping type, :class:`PolicyCache`, backs both memo spaces of
:class:`repro.analysis.transfer.TransferCache` (transfers and joins); the
disk store applies the same least-recently-used order in SQL (see
:mod:`repro.cache.disk`).  A hit refreshes the entry; the victim is the
entry untouched for longest — transfer lookups cluster heavily around the
current fixed-point region.

Evictions are counted on the cache (``evictions``) and surfaced by the
callers into :class:`~repro.analysis.context.AnalysisStats`, whose counters
merge exactly across shard processes — the same discipline as the widening
telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional


class PolicyCache:
    """A size-bounded mapping with least-recently-used eviction.

    ``put`` of an existing key is a no-op beyond a recency touch (entries
    are immutable once admitted — the caches built on this are
    content-addressed), and capacity is enforced on admission, never below
    one entry.
    """

    __slots__ = ("capacity", "evictions", "_entries")

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self.evictions = 0
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[object]:
        return iter(self._entries)

    def get(self, key: object) -> Optional[object]:
        """The stored value, refreshing its recency; ``None`` on a miss."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: object, value: object) -> int:
        """Admit ``key`` (touch-only if present); returns evictions performed."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return 0
        evicted = 0
        while len(self._entries) >= self.capacity:
            # Least recently used is first: hits move_to_end.
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
            evicted += 1
        self._entries[key] = value
        return evicted

    def remove(self, key: object) -> bool:
        """Drop an entry without counting an eviction (e.g. it proved unusable)."""
        if key not in self._entries:
            return False
        del self._entries[key]
        return True

    def clear(self) -> None:
        self._entries.clear()
