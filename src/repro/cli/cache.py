"""``repro cache``: inspect, empty or compact a persistent transfer-cache store.

``stats``, ``clear`` and ``compact`` (stale-generation sweep + SQLite
VACUUM) operate on a store created with ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from ..cache.disk import STORE_FILENAME, DiskBackend
from ..cache.policy import POLICIES


def configure(parser: argparse.ArgumentParser) -> None:
    cache_commands = parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="entry count, size and lifetime hit/miss/write/eviction totals"
    )
    cache_stats.add_argument("--json", action="store_true", help="machine-readable output")
    cache_stats.set_defaults(func=run_stats)
    cache_clear = cache_commands.add_parser("clear", help="drop every stored entry")
    cache_clear.set_defaults(func=run_clear)
    cache_compact = cache_commands.add_parser(
        "compact",
        help="sweep entries unused for --max-age generations, then VACUUM "
        "the store file",
    )
    cache_compact.add_argument(
        "--max-age",
        type=int,
        default=8,
        metavar="N",
        help="sweep entries last used more than N flush generations ago "
        "(default: 8)",
    )
    cache_compact.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_compact.set_defaults(func=run_compact)
    for sub in (cache_stats, cache_clear, cache_compact):
        sub.add_argument("--cache-dir", required=True, metavar="DIR", help="store directory")
        sub.add_argument(
            "--cache-policy", choices=POLICIES, default="lru", help=argparse.SUPPRESS
        )


def _open_store(args: argparse.Namespace) -> Optional[DiskBackend]:
    """Open the disk store under ``--cache-dir``; None if never created."""
    store_path = Path(args.cache_dir) / STORE_FILENAME
    if not store_path.exists():
        return None
    return DiskBackend(args.cache_dir, policy=args.cache_policy)


def run_stats(args: argparse.Namespace) -> int:
    backend = _open_store(args)
    if backend is None:
        message = f"no transfer-cache store under {args.cache_dir} (nothing written yet)"
        if args.json:
            print(json.dumps({"path": str(Path(args.cache_dir) / STORE_FILENAME),
                              "entries": 0, "exists": False}, indent=2, sort_keys=True))
        else:
            print(message)
        return 0
    try:
        stats = backend.stats()
    finally:
        backend.close()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        for key in sorted(stats):
            print(f"  {key:12s} {stats[key]}")
    return 0


def run_clear(args: argparse.Namespace) -> int:
    backend = _open_store(args)
    if backend is None:
        print(f"no transfer-cache store under {args.cache_dir}; nothing to clear")
        return 0
    try:
        dropped = backend.clear()
    finally:
        backend.close()
    print(f"cleared {dropped} entries from {args.cache_dir}")
    return 0


def run_compact(args: argparse.Namespace) -> int:
    backend = _open_store(args)
    if backend is None:
        print(f"no transfer-cache store under {args.cache_dir}; nothing to compact")
        return 0
    try:
        result = backend.compact(max_age=args.max_age)
        stats = backend.stats()
    finally:
        backend.close()
    if args.json:
        print(json.dumps({"compact": result, "stats": stats}, indent=2, sort_keys=True))
        return 0
    print(
        f"swept {result['swept']} stale entries (unused for > {args.max_age} "
        f"generations), {result['remaining']} remain"
    )
    print(
        f"store size {result['size_bytes_before']} -> {result['size_bytes_after']} bytes "
        f"(reclaimed {result['reclaimed_bytes']})"
    )
    print(
        f"lifetime: compactions={stats['compactions']} swept={stats['swept']} "
        f"invalidations={stats['invalidations']}"
    )
    return 0
