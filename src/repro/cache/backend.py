"""The persistent cache-backend protocol and its configuration.

A :class:`CacheBackend` is the second tier behind the in-process memoized
transfer cache: a content-addressed store of canonical transfer payloads
(see :mod:`repro.cache.codec`) keyed by SHA-256 hex digests.  The analysis
layer talks to it through exactly two hot calls —

* :meth:`CacheBackend.get` — read-through on an in-memory miss;
* :meth:`CacheBackend.write` — one batched flush of this run's computed
  deltas (plus read-touch metadata), performed when a run or shard
  completes, never per transfer;

plus a cold management surface (``stats`` / ``clear`` / ``close``) used by
the ``repro cache`` CLI subcommand.

Backends are **not** shipped across process boundaries.  A
:class:`CacheConfig` — a small frozen dataclass — travels in the shard
payload instead, and each worker opens its own backend from it
(:func:`open_backend`); SQLite connections and fork do not mix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

try:  # Protocol is 3.8+; keep a graceful fallback for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py<3.8 only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from .policy import POLICIES

#: Backend kinds :func:`open_backend` understands.
BACKENDS = ("memory", "disk")

#: Default cap on persistent-store *entries* (not bytes).  Transfer payloads
#: are small (a few hundred bytes), so the default bounds the store around
#: tens of MB while staying far above any tier-1 workload's unique-key count.
DEFAULT_STORE_CAPACITY = 1 << 17


@runtime_checkable
class CacheBackend(Protocol):
    """What the transfer layer and the CLI need from a persistent store."""

    #: ``"memory"`` or ``"disk"`` — mirrored from the opening config.
    kind: str

    def get(self, key: str) -> Optional[str]:
        """The payload stored under ``key``, or ``None``; records a touch."""

    def write(
        self, pending: Mapping[str, str], labels: Optional[Mapping[str, str]] = None
    ) -> Tuple[int, int]:
        """Flush computed deltas and touch metadata; enforce capacity.

        Returns ``(written, evicted)`` — entries newly admitted (a key
        already present counts zero: the store is content-addressed, equal
        keys hold equal payloads) and entries evicted by the policy.
        ``labels`` optionally maps pending keys to their statement labels
        (:func:`repro.sil.delta.statement_label`), stored alongside each
        row so :meth:`invalidate` can sweep by edited statement.
        """

    def invalidate(self, labels) -> int:
        """Drop every entry recorded under the given statement labels.

        The targeted counterpart of :meth:`clear`: rows whose statement was
        removed or rewritten by an edit are deleted, everything else stays
        warm.  Rows written before label tracking (or via a labels-less
        :meth:`write`) have no label and are never matched — which is safe:
        the store is content-addressed, so a stale row can never be looked
        up by the edited program; invalidation reclaims space, it does not
        guard correctness.  Returns the number of entries dropped.
        """

    def discard(self, key: str) -> None:
        """Drop one entry whose payload proved unusable (corrupt/foreign).

        Reclassifies the lookup that surfaced it as a miss — the caller
        will recompute, and the recomputed delta re-admits the key at the
        next :meth:`write` (which skips keys *present* in the store, so the
        bad row must actually be gone).
        """

    def stats(self) -> Dict[str, object]:
        """Cumulative store statistics (entry count, hits/misses/... )."""

    def clear(self) -> int:
        """Drop every entry (and reset cumulative counters); returns count."""

    def close(self) -> None:
        """Release any underlying resources; further calls are undefined."""

    def __len__(self) -> int:
        """Current number of stored entries."""


@dataclass(frozen=True)
class CacheConfig:
    """Everything needed to open the same persistent store anywhere.

    Frozen and made of primitives, so it pickles into shard payloads the
    same way :class:`~repro.analysis.limits.AnalysisLimits` does.  The
    ``policy`` governs both the in-memory transfer-cache layer and the
    store's own capacity enforcement.
    """

    backend: str = "disk"
    #: Store directory (``disk``) or a shared-store namespace (``memory``).
    directory: Optional[str] = None
    policy: str = "lru"
    #: Entry cap of the *persistent* store (the in-memory layer is bounded
    #: separately by ``AnalysisLimits.transfer_cache_size``).
    capacity: int = DEFAULT_STORE_CAPACITY

    def validated(self) -> "CacheConfig":
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown cache backend {self.backend!r}; known: {BACKENDS}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown cache policy {self.policy!r}; known: {POLICIES}")
        if self.backend == "disk" and not self.directory:
            raise ValueError("the disk cache backend requires a directory (--cache-dir)")
        return replace(self, capacity=max(1, int(self.capacity)))


def open_backend(config: CacheConfig) -> CacheBackend:
    """Open (creating if needed) the store a config describes."""
    config = config.validated()
    if config.backend == "memory":
        from .memory import shared_memory_backend

        return shared_memory_backend(
            namespace=config.directory or "default",
            policy=config.policy,
            capacity=config.capacity,
        )
    from .disk import DiskBackend

    return DiskBackend(config.directory, policy=config.policy, capacity=config.capacity)


def __getattr__(name: str) -> object:
    # ``BACKEND_ERRORS`` — the exception surface a persistent backend is
    # allowed to fail with, ``(sqlite3.Error, OSError)``.  The transfer
    # layer catches exactly these around every backend call, counting them
    # toward its circuit breaker instead of raising into the analysis hot
    # path, so a backend that fails with anything else is a bug, not an
    # operational fault.  Resolved on first use so that a run without a
    # persistent tier never imports sqlite3.
    if name == "BACKEND_ERRORS":
        import sqlite3

        errors: Tuple[type, ...] = (sqlite3.Error, OSError)
        globals()[name] = errors
        return errors
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
