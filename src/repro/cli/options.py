"""Option groups and flag interpretation shared by several subcommands.

Each ``add_*`` helper imports the vocabulary it advertises (families,
cache backends, fault sites) only when a subcommand that offers the flag
is being configured, and each interpreter imports its subsystem only when
the flag was actually given — so an ``analyze`` without ``--cache-*``,
``--chaos`` or ``--generated`` never loads the persistent cache tiers,
the fault planner or the scenario generators.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.limits import LimitsLike
    from ..cache.backend import CacheConfig
    from ..faults import FaultPlan
    from ..workloads.generators import GeneratorConfig, Scenario


def family_arg(value: str) -> str:
    """Validate ``--family``: one family, a comma list, or ``all``."""
    if value == "all":
        return value
    from ..workloads.generators import FAMILIES

    for family in value.split(","):
        if family not in FAMILIES:
            raise argparse.ArgumentTypeError(
                f"unknown family {family!r}; choose from "
                f"{', '.join(FAMILIES)}, a comma-separated list, or 'all'"
            )
    return value


def family_list(args: argparse.Namespace) -> List[str]:
    """The effective family round-robin of the population."""
    from ..workloads.generators import FAMILIES

    return list(FAMILIES) if args.family == "all" else args.family.split(",")


def add_generator_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed of the population")
    parser.add_argument(
        "--family",
        type=family_arg,
        default="all",
        help="scenario family or comma-separated list, e.g. dag,deep,mixed "
        "(default: round-robin over all families)",
    )
    parser.add_argument(
        "--procedures", type=int, default=2, help="walker procedures per scenario"
    )
    parser.add_argument(
        "--depth", type=int, default=4, help="structure depth / length constant"
    )
    parser.add_argument(
        "--aliasing", type=float, default=0.3, help="handle-overlap probability in [0,1]"
    )


def generator_config(args: argparse.Namespace) -> "GeneratorConfig":
    """The effective (clamped) generator config the population will use."""
    from ..workloads.generators import GeneratorConfig

    return GeneratorConfig(
        procedures=args.procedures, depth=args.depth, aliasing=args.aliasing
    ).clamped()


def population(args: argparse.Namespace, count: int) -> List["Scenario"]:
    from ..workloads.generators import generate_scenarios

    families = None if args.family == "all" else args.family.split(",")
    return generate_scenarios(
        count, base_seed=args.seed, config=generator_config(args), families=families
    )


def add_limits_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="adaptive analysis limits: re-run workloads whose widening "
        "counters fired with stepped-up domain bounds",
    )


def add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="flight recorder: capture parse/solve/cache/dispatch spans for "
        "this run and write a Chrome trace-event JSON file (load it in "
        "Perfetto or chrome://tracing)",
    )


def add_chaos_options(
    parser: argparse.ArgumentParser, max_attempts: bool = True
) -> None:
    from ..faults.plan import FAULT_KINDS, KNOWN_SITES

    parser.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="SITE=KIND[:PROB[:MATCH[:DELAY]]]",
        help="inject a deterministic seeded fault at SITE "
        f"(sites: {', '.join(KNOWN_SITES)}; kinds: {', '.join(FAULT_KINDS)}); "
        "repeatable. Example: --chaos 'shard.workload=crash:1.0:@0' crashes "
        "every workload's first attempt",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the fault plan's deterministic probability draws "
        "(default: 0)",
    )
    if max_attempts:
        from ..workloads.suite import DEFAULT_MAX_ATTEMPTS

        parser.add_argument(
            "--max-attempts",
            type=int,
            default=DEFAULT_MAX_ATTEMPTS,
            metavar="N",
            help="attempts per workload before a crashed shard's work is "
            f"reported as failed (default: {DEFAULT_MAX_ATTEMPTS})",
        )


def fault_plan(args: argparse.Namespace) -> Optional["FaultPlan"]:
    """The validated fault plan ``--chaos``/``--chaos-seed`` describe.

    Raises ``ValueError`` on a malformed spec (reported as exit 2, like the
    cache-flag errors).
    """
    specs = getattr(args, "chaos", None)
    if not specs:
        return None
    from ..faults.plan import FaultPlan

    return FaultPlan.parse(specs, seed=getattr(args, "chaos_seed", 0))


def add_cache_options(parser: argparse.ArgumentParser) -> None:
    from ..analysis.limits import DEFAULT_LIMITS
    from ..cache.backend import BACKENDS
    from ..cache.policy import POLICIES

    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent transfer-cache directory shared across shards and "
        "runs (enables the disk backend; rerunning against the same "
        "directory serves cached transfers instead of recomputing)",
    )
    parser.add_argument(
        "--cache-backend",
        choices=BACKENDS,
        default=None,
        help="persistent store kind (default: disk when --cache-dir is "
        "given, otherwise no persistent tier)",
    )
    parser.add_argument(
        "--cache-policy",
        choices=POLICIES,
        default="lru",
        help="eviction policy of the transfer-cache layers (default: lru)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="in-memory transfer-cache capacity in entries "
        f"(default: {DEFAULT_LIMITS.transfer_cache_size})",
    )


def effective_limits(args: argparse.Namespace) -> "LimitsLike":
    from dataclasses import replace

    from ..analysis.limits import DEFAULT_LIMITS, AnalysisLimits

    base = DEFAULT_LIMITS
    size = getattr(args, "cache_size", None)
    if size is not None:
        base = replace(base, transfer_cache_size=max(1, size))
    if getattr(args, "adaptive", False):
        return AnalysisLimits.adaptive(base)
    return base


def cache_config(args: argparse.Namespace) -> Optional["CacheConfig"]:
    """The persistent-store config the CLI flags describe (None: no tier).

    Raises ``ValueError`` on inconsistent flags (e.g. ``--cache-backend
    disk`` without ``--cache-dir``).
    """
    backend = getattr(args, "cache_backend", None)
    directory = getattr(args, "cache_dir", None)
    if backend is None and directory:
        backend = "disk"
    if backend is None:
        return None
    from ..cache.backend import CacheConfig

    return CacheConfig(
        backend=backend, directory=directory, policy=args.cache_policy
    ).validated()


def warn_if_memory_backend_sharded(
    cache: Optional["CacheConfig"], shards: int, item_count: int
) -> None:
    """The memory backend is process-local: flushed deltas die with forked
    shard workers, so a multi-shard run gains nothing across runs.  Warn
    rather than fail — single-shard (inline) use is the supported case."""
    if cache is not None and cache.backend == "memory" and min(shards, item_count) > 1:
        print(
            "warning: --cache-backend memory is process-local; shard workers "
            "discard their flushed deltas at exit. Use --cache-dir (disk) for "
            "a store that outlives worker processes.",
            file=sys.stderr,
        )


def add_endpoint_options(parser: argparse.ArgumentParser) -> None:
    """The ``--socket | --host/--port`` endpoint flags of serve and client."""
    parser.add_argument(
        "--socket", metavar="PATH", default=None, help="unix domain socket path"
    )
    parser.add_argument("--host", default=None, help="TCP bind/connect host")
    parser.add_argument(
        "--port", type=int, default=None, help="TCP port (0: ephemeral when serving)"
    )


def endpoint_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the shared --socket | --host/--port endpoint flags."""
    if bool(args.socket) == bool(args.host):
        return "configure exactly one endpoint: --socket PATH or --host HOST --port PORT"
    if args.host and args.port is None:
        return "--host needs --port"
    return None
