"""The repository benchmark: one command, three workloads, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cli-oneshot,daemon-session,batch-population}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with every tracer off.
``--trace 1`` runs the same workload and seed with the program's flight
recorder on (``install_tracer`` in-process, ``--trace FILE`` on child
processes) plus the benchmark's own spans around each layer call, and
reports the per-layer metrics and the tracing overhead instead.

Every output of the program is checked against an independent reference
(see ``gate.py``); a wrong output counts as failed, is never filtered out,
and makes the run exit 1.  The last line of standard output is the JSON
result; the lines before it are the human-readable report, with the sample
count and percentile beside every timing and the base beside every ratio.

The benchmark builds nothing: it runs the program from ``src/`` of the
checkout it is started in, and exits 2 if there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

#: Scratch space for sockets and trace files, removed when the run ends.
SCRATCH = ".perfbench-tmp"

#: Failure messages printed in the report (all of them are counted).
SHOWN_FAILURES = 10


class Context:
    """One run's settings, its tally of attempted/failed operations, and results."""

    def __init__(self, args: argparse.Namespace, root: Path, workdir: str):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.report: List[str] = []
        self.e2e: Dict[str, Tuple[float, str]] = {}
        #: End-to-end figures that apply to one workload only, so they are
        #: printed in the report and left out of the JSON result.
        self.extra: Dict[str, Tuple[float, str]] = {}
        self.layer_metrics: Dict[str, float] = {}
        #: What backs each end-to-end figure: sample count, percentile, base.
        self.notes: Dict[str, str] = {}

    def timings(self, latencies: List[float], setup: List[float], operations: int, seconds: float) -> None:
        """The set-up, latency and throughput figures, with what backs each."""
        from stats import median, tail

        high = tail(latencies)
        self.e2e.update({
            "setup_s": (median(setup), "s"),
            "latency_p50_s": (median(latencies), "s"),
            "latency_tail_s": (high["value"], "s"),
            "programs_per_s": (operations / seconds, "programs/s"),
        })
        self.notes.update({
            "setup_s": f"median of {len(setup)} set-ups",
            "latency_p50_s": f"nearest-rank p50 of n={len(latencies)}",
            "latency_tail_s": f"nearest-rank p{high['percentile']} of n={high['n']}, "
                              f"{high['beyond']} samples beyond it",
            "programs_per_s": f"{operations} programs in {seconds:.3f} s measured",
        })

    def fail(self, messages: List[str]) -> None:
        """Count one operation as failed if ``messages`` is non-empty."""
        if messages:
            self.failed += 1
            self.failures.extend(messages)


def _workloads():
    import wl_batch
    import wl_cli
    import wl_daemon

    return {module.NAME: module for module in (wl_cli, wl_daemon, wl_batch)}


def _metric_specs(root: Path) -> Dict[str, List[Dict]]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'repro'} is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    specs = _metric_specs(root)

    os.makedirs(root / SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=root / SCRATCH)
    ctx = Context(args, root, workdir)
    try:
        workloads[args.workload].run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(root / SCRATCH)
        except OSError:
            pass  # another run's directory is still in it

    if args.trace:
        wanted, values = specs["per_layer"], ctx.layer_metrics
    else:
        wanted, values = specs["end_to_end"], {name: value for name, (value, _) in ctx.e2e.items()}
    absent = [spec["name"] for spec in wanted if spec["name"] not in values]
    if absent and not args.trace:
        raise RuntimeError(f"{args.workload} did not measure {absent}")
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in wanted
    }
    correct = ctx.failed == 0

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in ctx.report:
        print(f"  {line}")
    print("  end-to-end metrics:")
    for name, (value, unit) in list(ctx.e2e.items()) + list(ctx.extra.items()):
        note = f"  ({ctx.notes[name]})" if name in ctx.notes else ""
        print(f"    {name:24s} {value:14.6f} {unit}{note}")
    print(f"    {'error_rate':24s} {ctx.failed / max(1, ctx.attempted):14.6f} "
          f"failed/attempted ({ctx.failed}/{ctx.attempted})")
    if args.trace:
        print("  per-layer metrics:")
        for spec in wanted:
            print(f"    {spec['name']:34s} {metrics[spec['name']]['value']:14.6f} {spec['unit']}")
        if absent:
            print(f"  not on this workload's path (reported as 0): {', '.join(absent)}")
    for message in ctx.failures[:SHOWN_FAILURES]:
        print(f"  FAIL {message}")
    if len(ctx.failures) > SHOWN_FAILURES:
        print(f"  ... {len(ctx.failures) - SHOWN_FAILURES} more failure messages")
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
