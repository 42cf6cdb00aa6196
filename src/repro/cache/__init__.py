"""Persistent cross-run transfer-cache subsystem.

The memoized transfer application of :mod:`repro.analysis.transfer` is the
hot path of the whole analysis; this package makes its results outlive a
process.  Layers, bottom to top:

* :mod:`~repro.cache.codec` — canonical (process- and hash-seed-
  independent) keys and payloads for transfer results, including the
  captured widening tally so replayed hits keep the telemetry exact;
* :mod:`~repro.cache.policy` — the bounded :class:`PolicyCache` with
  selectable eviction (``lru`` / ``lfu`` / ``fifo``) and eviction counters;
* :mod:`~repro.cache.backend` — the :class:`CacheBackend` protocol, the
  picklable :class:`CacheConfig` that travels into shard workers, and the
  :func:`open_backend` factory;
* :mod:`~repro.cache.memory` / :mod:`~repro.cache.disk` — the in-process
  shared store and the SQLite content-addressed store shards and runs
  share on disk.

Wiring: :class:`repro.analysis.transfer.TransferCache` takes an optional
backend and reads through to it on in-memory misses, buffering computed
deltas until ``flush()``;  :class:`repro.analysis.engine.BatchAnalyzer`
and the sharded suite runner (:mod:`repro.workloads.suite`) accept a
:class:`CacheConfig`; the CLI exposes ``--cache-dir`` / ``--cache-backend``
/ ``--cache-policy`` plus the ``repro cache stats|clear`` subcommand.
"""

from .._lazy import lazy_exports

__all__ = [
    "BACKENDS",
    "CODEC_VERSION",
    "DEFAULT_STORE_CAPACITY",
    "POLICIES",
    "STORE_FILENAME",
    "CacheBackend",
    "CacheConfig",
    "CacheDecodeError",
    "DiskBackend",
    "MemoryBackend",
    "PolicyCache",
    "canonical_matrix",
    "canonical_statement",
    "decode_entry",
    "encode_entry",
    "open_backend",
    "reset_memory_backends",
    "shared_memory_backend",
    "transfer_key",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backend": (
            "BACKENDS", "DEFAULT_STORE_CAPACITY", "CacheBackend", "CacheConfig",
            "open_backend",
        ),
        ".codec": (
            "CODEC_VERSION", "CacheDecodeError", "canonical_matrix",
            "canonical_statement", "decode_entry", "encode_entry", "transfer_key",
        ),
        ".disk": ("STORE_FILENAME", "DiskBackend"),
        ".memory": ("MemoryBackend", "reset_memory_backends", "shared_memory_backend"),
        ".policy": ("POLICIES", "PolicyCache"),
    },
)
