"""The ``python -m repro`` parser and dispatch.

Each subcommand lives in its own module of this package with a
``configure(parser)`` that adds its flags and a ``run(args)`` it binds as
``func``.  :func:`main` imports and configures only the subcommand named on
the command line, and each ``run`` imports its own analysis stack, so a
one-shot invocation compiles just the modules it executes.  The top-level
``--help`` lists every subcommand from :data:`COMMANDS` without importing
any of them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Collection, Optional, Sequence

from .._lazy import load_module

#: Subcommand → its one-line help, in ``--help`` order.  The implementing
#: module is ``repro.cli.<subcommand>``.
COMMANDS = {
    "analyze": "analyze named workloads and/or generated scenarios",
    "bench": "sharded benchmark over the named workloads + a generated population; "
    "writes the merged stats artifact",
    "reanalyze": "incremental re-analysis of an edited program: diff, invalidate, "
    "re-solve the dirty frontier, verify against a cold solve",
    "generate": "emit seeded random SIL scenarios (stdout or --out directory)",
    "cache": "inspect or clear a persistent transfer-cache store",
    "serve": "run the long-lived analysis daemon over warm interning/cache state",
    "client": "talk to a running analysis daemon (see: serve)",
}


def build_parser(selected: Optional[Collection[str]] = None) -> argparse.ArgumentParser:
    """The full parser, or with only the ``selected`` subcommands configured.

    Unselected subcommands still appear in ``--help`` and as choices; they
    just have no flags of their own.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Batch path-matrix analysis over workload suites and "
        "generated SIL scenario populations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help in COMMANDS.items():
        sub = commands.add_parser(name, help=help)
        if selected is None or name in selected:
            load_module(f"{__package__}.{name}").configure(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The subcommand is the first argument: the top level has no options
    # of its own besides --help.
    args = build_parser(selected=argv[:1]).parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    # Flight recorder: install the process-global tracer around the whole
    # command so every instrumented layer (parse, passes, solver visits,
    # cache flushes, codec, shard dispatch) records into one timeline, then
    # write the Chrome trace-event document whatever the exit path.
    from ..obs.trace import install_tracer, uninstall_tracer

    tracer = install_tracer()
    try:
        return args.func(args)
    finally:
        uninstall_tracer()
        spans = tracer.write_chrome(trace_path)
        print(
            f"trace: {spans} span events -> {trace_path} "
            "(load in Perfetto or chrome://tracing)",
            file=sys.stderr,
        )
