"""The batch-analysis command line: ``python -m repro <command>``.

One module per subcommand, each importing its own stack only when it runs:

* ``analyze`` (:mod:`.analyze`) — analyze named workloads and/or generated
  scenarios, optionally sharded, streaming per-workload outcomes plus the
  merged :class:`~repro.analysis.context.AnalysisStats`; ``--census`` adds
  the parallelism census from the same analysis.
* ``bench`` (:mod:`.bench`) — a whole population through the sharded
  suite runner, verified bit-identical to a single-process run, written as
  the merged stats artifact (``--time``, ``--profile``, ``--ratchet``,
  ``--edit-replay`` add the timing harnesses).
* ``generate`` (:mod:`.generate`) — emit seeded random SIL scenarios.
* ``reanalyze`` (:mod:`.reanalyze`) — incremental re-analysis of an edited
  program, verified against a cold solve.
* ``cache`` (:mod:`.cache`) — ``stats``/``clear``/``compact`` a persistent
  transfer-cache store created with ``--cache-dir``.
* ``serve`` (:mod:`.serve`) — the long-lived analysis daemon
  (:mod:`repro.server`).
* ``client`` (:mod:`.client`) — talk to a running daemon.

``analyze``, ``bench``, ``reanalyze`` and ``serve`` accept the
cache knobs of :mod:`.options`: ``--cache-dir`` (a disk store shards and
*runs* share) and ``--cache-size``.  Parsing and dispatch live in :mod:`.main`.
"""

from .main import build_parser, main

__all__ = ["build_parser", "main"]
