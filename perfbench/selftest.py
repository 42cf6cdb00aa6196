"""Self-test of the benchmark itself; run from the root of a checkout::

    python3 perfbench/selftest.py

1. A short run of every workload, with and without tracing, must print a
   result line with exactly the keys of the contract and every metric
   named in ``BENCHMARK.json``, each with its unit.
2. The correctness gate must fail when it is fed a wrong answer: a
   tampered ``reanalyze`` digest, a changed ``analyze`` result, a changed
   census row, and a parallelization whose groups fuse dependent
   statements.
3. Started in a directory that holds only ``BENCHMARK.json`` and the
   benchmark, the command must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run as bench  # noqa: E402

SECONDS = "2"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result_lines(failures: list) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload["name"],
                    "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
            process = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload['name']} --trace {trace}"
            if process.returncode != 0:
                failures.append(f"{label}: exit {process.returncode}: {process.stderr[-500:]}")
                continue
            result = json.loads(process.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            wanted = {metric["name"]: metric["unit"] for metric in spec[section]}
            got = result["metrics"]
            if set(got) != set(wanted):
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted))}")
            for name, entry in got.items():
                value = entry.get("value")
                if entry.get("unit") != wanted.get(name) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    failures.append(f"{label}: bad metric {name}: {entry}")
                elif section == "end_to_end" and value <= 0:
                    failures.append(f"{label}: end-to-end metric {name} is {value}")
            print(f"ok   {label}: {len(got)} metrics, attempted {result['attempted']}")


def check_gate_rejects_wrong_answers(failures: list) -> None:
    from repro import analyze_program, parse_and_normalize
    from repro.parallel.oracle import DependenceOracle
    from repro.parallel.transform import parallelize_program
    from repro.workloads import TREE_PRESERVING, source

    name = "tree_add"
    text = source(name)

    reference = gate.cold_canonical(text)
    response = {"results": {name: reference}, "failures": {}}
    if gate.check_analyze(name, response, reference):
        failures.append("gate rejects a correct analyze result")
    tampered = json.loads(json.dumps(reference))
    tampered.pop("points")
    if not gate.check_analyze(name, {"results": {name: tampered}}, reference):
        failures.append("gate accepts a changed analyze result")

    digest = gate.cold_digest(text)
    if gate.check_reanalyze(name, {"digest": digest}, digest):
        failures.append("gate rejects a correct reanalyze digest")
    if not gate.check_reanalyze(name, {"digest": digest[::-1]}, digest):
        failures.append("gate accepts a tampered reanalyze digest")

    census = gate.reference_census(name, 4)
    printed = f"parallelism census (path-matrix oracle):\n  {name:24s} groups={census['groups']} " \
              f"call_groups={census['call_groups']} " \
              f"independent={census['independent_answers']}/{census['queries']}\n"
    if gate.check_census(name, 0, gate.parse_census(printed).get(name), census):
        failures.append("gate rejects a correct census row")
    wrong = dict(census, groups=census["groups"] + 1)
    if not gate.check_census(name, 0, wrong, census):
        failures.append("gate accepts a changed census row")
    if not gate.check_census(name, 1, census, census):
        failures.append("gate accepts a failed invocation")

    class EverythingIndependent(DependenceOracle):
        """A wrong oracle: claims every pair of statements may run in parallel."""

        name = "everything-independent"

        def prepare(self, program, info) -> None:
            pass

        def independent(self, first, second, group_start, procedure) -> bool:
            return True

    caught = []
    for workload in TREE_PRESERVING:
        program, info = parse_and_normalize(source(workload))
        diagnosed = bool(analyze_program(program, info).diagnostics)
        honest = parallelize_program(program, info)
        verdict = gate.check_parallelization(workload, program, info, diagnosed, honest.program)
        if verdict.failures:
            failures.append(f"gate rejects the path-matrix parallelization of {workload}: "
                            f"{verdict.failures}")
        fused = parallelize_program(program, info, oracle=EverythingIndependent())
        if gate.check_parallelization(workload, program, info, diagnosed, fused.program).failures:
            caught.append(workload)
    if not caught:
        failures.append("gate accepts parallel groups that fuse dependent statements")
    print(f"ok   gate: wrong answers rejected (fused groups caught on {', '.join(caught)})")


def check_missing_program(failures: list) -> None:
    scratch = ROOT / bench.SCRATCH
    os.makedirs(scratch, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        process = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if process.returncode == 0 or process.stdout.strip():
        failures.append(f"without src/: exit {process.returncode}, stdout {process.stdout!r}")
    else:
        print(f"ok   without src/: exit {process.returncode}, nothing printed")


def main() -> int:
    failures: list = []
    check_gate_rejects_wrong_answers(failures)
    check_missing_program(failures)
    check_result_lines(failures)
    for message in failures:
        print(f"FAIL {message}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
