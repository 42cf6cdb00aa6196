"""Shared setup for the benchmark harness (one module per paper figure/table)."""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

sys.setrecursionlimit(200_000)

#: The committed stats artifact: the cold-median ratchet baseline, which
#: only a deliberate ``python -m repro bench --output`` rewrites.
COMMITTED_STATS_ARTIFACT = _ROOT / "BENCH_analysis.json"

#: Where a test run writes its fresh stats artifact (git-ignored), so the
#: suite leaves the committed baseline — and ``git status`` — untouched.
FRESH_STATS_ARTIFACT = _ROOT / "bench-artifacts" / "BENCH_analysis.json"


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
