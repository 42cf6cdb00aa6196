"""``repro serve``: run the long-lived analysis daemon (:mod:`repro.server`).

One warm transfer cache + interned domain serving ``analyze``/``bench``/
``reanalyze``/``cache_stats`` requests to many clients over a unix or TCP
socket, until a ``shutdown`` request.  Unlike the one-shot commands, the
daemon imports everything its ops use before it answers the first request.
"""

from __future__ import annotations

import argparse
import sys

from . import options


def configure(parser: argparse.ArgumentParser) -> None:
    options.add_endpoint_options(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="bounded analysis worker pool size (default: 1)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-request budget for analyze/bench; 0 disables (default: 300)",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=None,
        metavar="BYTES",
        help="largest accepted/emitted frame payload (default: 8 MiB)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown wait for in-flight requests (default: 30)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="stdlib logging threshold for the repro.server.* loggers "
        "(default: info)",
    )
    parser.add_argument(
        "--slow-threshold",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="log a warning (and count server.slow_requests_total) for any "
        "request slower than this; 0 disables (default: 5)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission cap: heavy requests beyond N simultaneously in "
        "flight are shed with a retryable 'overloaded' error; 0 disables "
        "(default: 64)",
    )
    options.add_limits_options(parser)
    options.add_cache_options(parser)
    options.add_chaos_options(parser, max_attempts=False)
    options.add_trace_option(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    import logging

    # The whole server stack, imported before the socket opens: the service
    # module pulls in everything its ops run, so no request pays a compile.
    from ..server.daemon import ServerConfig, run_server
    from ..server.protocol import DEFAULT_MAX_FRAME

    message = options.endpoint_error(args)
    if message:
        print(message, file=sys.stderr)
        return 2
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
    )
    try:
        cache = options.cache_config(args)
        faults = options.fault_plan(args)
        config = ServerConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port if args.port is not None else 0,
            workers=args.workers,
            request_timeout=args.request_timeout if args.request_timeout > 0 else None,
            max_frame=args.max_frame if args.max_frame else DEFAULT_MAX_FRAME,
            drain_timeout=args.drain_timeout,
            limits=options.effective_limits(args),
            cache=cache,
            slow_request_threshold=(
                args.slow_threshold if args.slow_threshold > 0 else None
            ),
            max_inflight=args.max_inflight if args.max_inflight > 0 else None,
            faults=faults,
        ).validated()
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    where = args.socket or f"{args.host}:{args.port}"
    store = cache.directory if cache else "none"
    print(
        f"analysis server listening on {where} "
        f"(workers={config.workers}, persistent store: {store})",
        flush=True,
    )
    return run_server(config)
