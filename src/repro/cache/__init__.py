"""Persistent cross-process transfer-cache subsystem.

The memoized transfer application of :mod:`repro.analysis.transfer` is the
hot path of the whole analysis.  Within one process its content-keyed
in-memory memo already serves every repeat; this package makes results
outlive a process — shard workers and later runs share them on disk.
Layers, bottom to top:

* :mod:`~repro.cache.codec` — canonical (process- and hash-seed-
  independent) keys and payloads for transfer results, including the
  captured widening tally so replayed hits keep the telemetry exact;
* :mod:`~repro.cache.policy` — the bounded LRU :class:`PolicyCache` with
  eviction counters behind the in-memory layers;
* :mod:`~repro.cache.backend` — the :class:`CacheBackend` protocol, the
  picklable :class:`CacheConfig` that travels into shard workers, and the
  :func:`open_backend` factory;
* :mod:`~repro.cache.disk` — the SQLite content-addressed store shards and
  runs share.

Wiring: :class:`repro.analysis.transfer.TransferCache` takes an optional
backend and reads through to it on in-memory misses, buffering computed
deltas until ``flush()``;  :class:`repro.analysis.engine.BatchAnalyzer`
and the sharded suite runner (:mod:`repro.workloads.suite`) accept a
:class:`CacheConfig`; the CLI exposes ``--cache-dir`` plus the
``repro cache stats|clear|compact`` subcommand.
"""

from .._lazy import lazy_exports

__all__ = [
    "CODEC_VERSION",
    "DEFAULT_STORE_CAPACITY",
    "STORE_FILENAME",
    "CacheBackend",
    "CacheConfig",
    "CacheDecodeError",
    "DiskBackend",
    "PolicyCache",
    "canonical_matrix",
    "canonical_statement",
    "decode_entry",
    "encode_entry",
    "open_backend",
    "transfer_key",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backend": (
            "DEFAULT_STORE_CAPACITY", "CacheBackend", "CacheConfig", "open_backend",
        ),
        ".codec": (
            "CODEC_VERSION", "CacheDecodeError", "canonical_matrix",
            "canonical_statement", "decode_entry", "encode_entry", "transfer_key",
        ),
        ".disk": ("STORE_FILENAME", "DiskBackend"),
        ".policy": ("PolicyCache",),
    },
)
