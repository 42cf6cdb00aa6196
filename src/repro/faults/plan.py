"""Declarative fault plans: *what* to inject, *where*, and *how often*.

A :class:`FaultPlan` is a frozen, picklable description of the faults a
chaos run should experience: a seed plus a tuple of :class:`FaultRule`
rows, each naming an injection **site** (a dotted string like
``"shard.workload"`` compiled into the production code), a fault **kind**
(one of :data:`FAULT_KINDS`), a firing probability, and an optional
``match`` substring that restricts the rule to specific decision keys.

Plans carry no mutable state — all bookkeeping (occurrence counters,
injected totals) lives in the per-process :class:`~repro.faults.inject.
FaultInjector` — so a plan can ride a :data:`~repro.workloads.suite.
ShardPayload` into a spawned worker, or a :class:`~repro.server.daemon.
ServerConfig` into a daemon, unchanged.

Determinism is the design center: whether a fault fires is a pure function
of ``(seed, site, kind, key, occurrence)`` (see :func:`draw`), never of
wall-clock time or process-global RNG state, so a chaos scenario replays
identically run over run — which is what lets the chaos suite assert
*bit-identical* result digests against fault-free baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: The fault taxonomy.  Sites interpret the kinds they understand and
#: ignore the rest (a ``drop`` rule on a cache site never fires anything).
FAULT_KINDS = ("crash", "io_error", "corrupt", "slow", "drop")

#: The injection sites compiled into the production code.  The set is open
#: (``FaultRule`` does not reject unknown sites, so plans stay forward
#: compatible), but these are the ones that exist today.
KNOWN_SITES = (
    "shard.worker",  # worker process dies before analyzing (kind: crash)
    "shard.workload",  # mid-shard poisoning / slowdown (kinds: crash, slow)
    "cache.get",  # persistent-store read raises an I/O error (kind: io_error)
    "cache.write",  # persistent-store flush raises an I/O error (kind: io_error)
    "cache.payload",  # stored payload is corrupted before decode (kind: corrupt)
    "server.frame",  # daemon drops the connection after a request (kind: drop)
)


def draw(seed: int, site: str, kind: str, full_key: str) -> float:
    """The deterministic uniform draw in ``[0, 1)`` behind every decision.

    SHA-256 over the decision coordinates, so the outcome is identical in
    every process that evaluates the same coordinates — regardless of which
    pool worker picked up the payload, and regardless of evaluation order.
    """
    import hashlib

    digest = hashlib.sha256(
        f"{seed}|{site}|{kind}|{full_key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire ``kind`` at ``site`` with ``probability``.

    ``match`` (when non-empty) restricts the rule to decision keys whose
    ``"{key}#{occurrence}"`` form contains it as a substring — e.g.
    ``match="@0"`` on ``shard.workload`` fires only on a workload's first
    attempt (retries carry ``@1``, ``@2`` … keys), and ``match="#1"`` on
    ``cache.get`` fires only on the first try of each key, so the backend's
    bounded retry deterministically succeeds.  ``delay`` is the sleep, in
    seconds, a ``slow`` rule injects.
    """

    site: str
    kind: str
    probability: float = 1.0
    match: str = ""
    delay: float = 0.01

    def validated(self) -> "FaultRule":
        if not self.site:
            raise ValueError("fault rule needs a site")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not (0.0 < self.probability <= 1.0):
            raise ValueError(
                f"fault probability must be in (0, 1], got {self.probability}"
            )
        if self.delay < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay}")
        return self

    def describe(self) -> str:
        spec = f"{self.site}={self.kind}:{self.probability:g}"
        if self.match:
            spec += f":{self.match}"
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules; frozen and picklable, carries no state."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def validated(self) -> "FaultPlan":
        for rule in self.rules:
            rule.validated()
        return self

    def describe(self) -> List[str]:
        """The rules back in their CLI spec form (for artifacts/logs)."""
        return [rule.describe() for rule in self.rules]

    @classmethod
    def parse(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI rule specs.

        Grammar (colons separate the optional tail pieces)::

            SITE=KIND[:PROBABILITY[:MATCH[:DELAY]]]

        e.g. ``shard.workload=crash:1.0:@0`` (every workload's first
        attempt crashes its shard) or ``cache.get=io_error:0.25``.
        """
        rules = []
        for spec in specs:
            text = spec.strip()
            if "=" not in text:
                raise ValueError(
                    f"bad fault spec {spec!r}: expected SITE=KIND[:PROB[:MATCH[:DELAY]]]"
                )
            site, _, tail = text.partition("=")
            pieces = tail.split(":")
            kind = pieces[0].strip()
            probability = 1.0
            match = ""
            delay = 0.01
            if len(pieces) > 1 and pieces[1].strip():
                try:
                    probability = float(pieces[1])
                except ValueError:
                    raise ValueError(
                        f"bad fault spec {spec!r}: probability {pieces[1]!r} is not a number"
                    ) from None
            if len(pieces) > 2:
                match = pieces[2].strip()
            if len(pieces) > 3 and pieces[3].strip():
                try:
                    delay = float(pieces[3])
                except ValueError:
                    raise ValueError(
                        f"bad fault spec {spec!r}: delay {pieces[3]!r} is not a number"
                    ) from None
            if len(pieces) > 4:
                raise ValueError(f"bad fault spec {spec!r}: too many ':' pieces")
            rules.append(
                FaultRule(
                    site=site.strip(),
                    kind=kind,
                    probability=probability,
                    match=match,
                    delay=delay,
                ).validated()
            )
        return cls(rules=tuple(rules), seed=int(seed)).validated()
