"""``repro client``: talk to a running analysis daemon.

``ping``, ``version``, ``health``, ``analyze``, ``bench``, ``reanalyze``,
``cache-stats``, ``metrics`` and ``shutdown`` over the daemon's framed
JSON protocol (:mod:`repro.server.client`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from . import options
from .reanalyze import add_edit_pair_options, resolve_edit_pair
from .report import print_workload_rows


def configure(parser: argparse.ArgumentParser) -> None:
    client_commands = parser.add_subparsers(dest="client_command", required=True)

    def client_parser(name: str, func, help: str) -> argparse.ArgumentParser:
        sub = client_commands.add_parser(name, help=help)
        options.add_endpoint_options(sub)
        sub.add_argument(
            "--timeout",
            type=float,
            default=120.0,
            metavar="SECONDS",
            help="client-side socket timeout (default: 120)",
        )
        sub.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="re-attempts of idempotent requests after a transport "
            "failure or an 'overloaded' rejection, with exponential "
            "backoff + jitter (default: 0, fail fast)",
        )
        sub.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock bound on one request including every retry "
            "and backoff sleep (default: none)",
        )
        sub.set_defaults(func=run, client_func=func)
        return sub

    health_cmd = client_parser(
        "health", client_health, "liveness/load snapshot: status, in-flight, shed count"
    )

    client_parser("ping", client_ping, "liveness round trip")
    version = client_parser(
        "version", client_version, "protocol-version handshake + op vocabulary"
    )
    c_analyze = client_parser(
        "analyze", client_analyze, "analyze named workloads on the warm server"
    )
    c_analyze.add_argument("names", nargs="*", help="workload names (default: all)")
    c_analyze.add_argument("--depth", type=int, default=4, help="workload depth constant")
    c_analyze.add_argument(
        "--timeout-request",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget (may lower the server's, never raise it)",
    )
    options.add_limits_options(c_analyze)
    c_bench = client_parser(
        "bench", client_bench, "run a generated population on the warm server"
    )
    c_bench.add_argument(
        "--seeds", type=int, default=10, metavar="N", help="generated scenarios"
    )
    c_bench.add_argument(
        "--family", type=options.family_arg, default="all", help="scenario families"
    )
    c_bench.add_argument("--depth", type=int, default=4, help="structure depth")
    c_bench.add_argument("--seed", type=int, default=0, help="base seed")
    c_bench.add_argument(
        "--timeout-request",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget (may lower the server's, never raise it)",
    )
    options.add_limits_options(c_bench)
    c_reanalyze = client_parser(
        "reanalyze",
        client_reanalyze,
        "incremental re-analysis of an edited program on the warm server",
    )
    add_edit_pair_options(c_reanalyze)
    c_reanalyze.add_argument(
        "--timeout-request",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget (may lower the server's, never raise it)",
    )
    options.add_limits_options(c_reanalyze)
    stats_cmd = client_parser(
        "cache-stats",
        client_cache_stats,
        "server-lifetime stats, cache occupancy and intern-table sizes",
    )
    metrics_cmd = client_parser(
        "metrics",
        client_metrics,
        "live server metrics: per-op request counters, latency tails, gauges",
    )
    metrics_cmd.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of tables",
    )
    client_parser("shutdown", client_shutdown, "graceful shutdown: drain, flush, exit")
    for sub in (version, c_analyze, c_bench, c_reanalyze, stats_cmd, metrics_cmd, health_cmd):
        sub.add_argument("--json", action="store_true", help="machine-readable output")


def _client(args: argparse.Namespace):
    from ..server.client import AnalysisClient, endpoint_kwargs

    return AnalysisClient(
        **endpoint_kwargs(args.socket, args.host, args.port),
        timeout=args.timeout,
        retries=getattr(args, "retries", 0),
        deadline=getattr(args, "deadline", None),
    )


def _print_response(response: Dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def run(args: argparse.Namespace) -> int:
    from ..server.client import ProtocolMismatch, ServerError
    from ..server.protocol import ProtocolError

    message = options.endpoint_error(args)
    if message:
        print(message, file=sys.stderr)
        return 2
    try:
        with _client(args) as client:
            return args.client_func(args, client)
    except ServerError as error:
        print(f"server error: {error}", file=sys.stderr)
        return 1
    except ProtocolMismatch as error:
        print(f"protocol mismatch: {error}", file=sys.stderr)
        return 1
    except ProtocolError as error:
        # Covers ConnectionClosed/TruncatedFrame: the connection died
        # mid-conversation (daemon restart, injected drop) and the request
        # was not retried to completion — suggest the knob that would.
        print(
            f"connection to the analysis server failed: {error} "
            "(idempotent requests can ride this out with --retries)",
            file=sys.stderr,
        )
        return 1
    except (ConnectionError, FileNotFoundError, TimeoutError, OSError) as error:
        print(f"cannot reach the analysis server: {error}", file=sys.stderr)
        return 1


def client_ping(args: argparse.Namespace, client) -> int:
    alive = client.ping()
    print("pong" if alive else "no pong")
    return 0 if alive else 1


def client_version(args: argparse.Namespace, client) -> int:
    response = client.protocol_version()
    if args.json:
        return _print_response(response, True)
    print(f"server:   {response['server']}")
    print(f"protocol: {response['protocol']}")
    print(f"ops:      {', '.join(response['ops'])}")
    return 0


def client_analyze(args: argparse.Namespace, client) -> int:
    response = client.analyze(
        workloads=args.names or None,
        depth=args.depth,
        adaptive=args.adaptive,
        timeout=args.timeout_request,
    )
    if args.json:
        return _print_response(response, True)
    print_workload_rows(response["results"], response["failures"])
    stats = response["stats"]
    print()
    print(
        f"analyzed {len(response['results'])} workloads in {response['seconds']}s "
        f"(digest {response['results_digest'][:12]})"
    )
    print(
        f"  transfer cache:   hits={stats['transfer_cache_hits']} "
        f"misses={stats['transfer_cache_misses']} "
        f"hit_rate={stats['transfer_cache_hit_rate']}"
    )
    print(
        f"  persistent tier:  hits={stats['persistent_cache_hits']} "
        f"misses={stats['persistent_cache_misses']} "
        f"hit_rate={stats['persistent_cache_hit_rate']} "
        f"writes={stats['persistent_cache_writes']}"
    )
    return 1 if response["failures"] else 0


def client_bench(args: argparse.Namespace, client) -> int:
    response = client.bench(
        seeds=args.seeds,
        family=args.family,
        depth=args.depth,
        seed=args.seed,
        adaptive=args.adaptive,
        timeout=args.timeout_request,
    )
    if args.json:
        return _print_response(response, True)
    population = response["population"]
    print(
        f"population: {population['named_workloads']} named workloads + "
        f"{population['generated_scenarios']} generated scenarios "
        f"(seed {population['base_seed']})"
    )
    print(
        f"analyzed {len(response['results'])} workloads "
        f"({len(response['failures'])} failed) in {response['seconds']:.3f}s"
    )
    stats = response["stats"]
    print(
        f"  persistent tier: hits={stats['persistent_cache_hits']} "
        f"misses={stats['persistent_cache_misses']}"
    )
    return 1 if response["failures"] else 0


def client_reanalyze(args: argparse.Namespace, client) -> int:
    try:
        old_source, new_source, script, name = resolve_edit_pair(args)
    except (OSError, ValueError, KeyError) as error:
        print(error, file=sys.stderr)
        return 2
    response = client.reanalyze(
        old_source,
        new_source,
        name=name,
        adaptive=args.adaptive,
        verify=not args.no_verify,
        timeout=args.timeout_request,
    )
    if args.json:
        return _print_response(response, True)
    if script is not None:
        print(f"edit script (seed {script.seed}): "
              + "; ".join(step.describe() for step in script.steps))
    print(f"dirty seed ({response['dirty_seed_size']}): "
          + (", ".join(response["dirty_seed"]) or "-"))
    print(
        f"re-analyzed {len(response['procedures_reanalyzed'])}/"
        f"{response['procedures_total']} procedures "
        f"({', '.join(response['procedures_reanalyzed']) or '-'})"
    )
    print(
        f"summaries: reused={response['summaries_reused']} "
        f"invalidated={response['summaries_invalidated']}; "
        f"transfer entries invalidated={response['transfers_invalidated']}"
    )
    print(f"digest {response['digest'][:12]} in {response['seconds']}s "
          f"(base {response['base_digest'][:12]})")
    if "verified" in response:
        print(
            f"verified against cold solve: {response['verified']} "
            f"(cold digest {response['cold_digest'][:12]})"
        )
        return 0 if response["verified"] else 1
    return 0


def client_cache_stats(args: argparse.Namespace, client) -> int:
    response = client.cache_stats()
    if args.json:
        return _print_response(response, True)
    server = response["server"]
    print(
        f"server: up {server['uptime_seconds']}s, "
        f"{server['requests_served']} analysis requests served "
        f"({', '.join(f'{op}={n}' for op, n in sorted(server['requests_by_op'].items()))})"
    )
    print("lifetime stats:")
    for key, value in sorted(response["lifetime_stats"].items()):
        print(f"  {key:28s} {value}")
    cache = response["transfer_cache"]
    print(
        f"transfer cache: {cache['entries']}/{cache['capacity']} entries "
        f"(policy {cache['policy']}, {cache['evictions']} evictions)"
    )
    if response["persistent"]:
        print("persistent store:")
        for key, value in sorted(response["persistent"].items()):
            print(f"  {key:28s} {value}")
    print("intern tables:")
    for key, value in sorted(response["intern_tables"].items()):
        print(f"  {key:28s} {value}")
    return 0


def client_metrics(args: argparse.Namespace, client) -> int:
    if args.prometheus:
        response = client.metrics(format="prometheus")
        print(response["text"], end="")
        return 0
    response = client.metrics()
    if args.json:
        return _print_response(response, True)
    metrics = response["metrics"]
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    if counters:
        print("counters:")
        for key, entry in counters.items():
            print(f"  {key:44s} {entry['value']}")
    if gauges:
        print("gauges:")
        for key, entry in gauges.items():
            print(f"  {key:44s} {entry['value']}")
    for name, tails in sorted(response["tails"].items()):
        if not tails:
            continue
        print()
        print(f"{name} tails (from histogram buckets):")
        print(f"  {'label':24s} {'n':>6s} {'p50':>10s} {'p90':>10s} {'p99':>10s}")
        for label, row in tails.items():
            print(
                f"  {label:24s} {row['count']:6d} {row['p50_seconds']:10.6f} "
                f"{row['p90_seconds']:10.6f} {row['p99_seconds']:10.6f}"
            )
    return 0


def client_health(args: argparse.Namespace, client) -> int:
    response = client.health()
    if args.json:
        return _print_response(response, True)
    print(f"status:          {response['status']}")
    print(f"ready:           {response['ready']}")
    print(f"inflight:        {response['inflight']}"
          + (f" / max {response['max_inflight']}" if response["max_inflight"] else ""))
    print(f"queue depth:     {response['queue_depth']}")
    print(f"workers:         {response['workers']}")
    print(f"cache degraded:  {response['cache_degraded']}")
    print(f"requests shed:   {response['shed_total']}")
    print(f"requests served: {response['requests_served']}")
    return 0 if response["ready"] else 1


def client_shutdown(args: argparse.Namespace, client) -> int:
    response = client.shutdown()
    print(
        f"server stopping (served {response['requests_served']} analysis requests, "
        f"{response['inflight']} in flight)"
    )
    return 0
