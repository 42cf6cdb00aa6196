"""The correctness gate: every output checked against an independent reference.

* ``batch-population``: the parallelized program is executed concretely and
  compared with the sequential run of the same core program.  A program
  the analysis raised no structure diagnostic for must run race-free and
  leave the same heap and ``main`` locals; a racy run must carry a
  diagnostic.
* ``daemon-session``: each ``analyze`` result must equal an in-process cold
  ``analyze_program(...).canonical()`` of the same source, and each
  ``reanalyze`` digest must equal ``cold_solve`` of the new version.
* ``cli-oneshot``: the census row the CLI prints must equal an in-process
  ``parallelism_census`` of the same program.

Each check returns a list of failure messages; an empty list means the
output is correct.  The checks take the answer under test as an argument,
so the self-test can feed them wrong answers.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


# ---------------------------------------------------------------------------
# batch-population: concrete execution
# ---------------------------------------------------------------------------


def heap_state(execution) -> Tuple:
    """A canonical form of ``main``'s locals and the heap reachable from them.

    Nodes are renumbered in breadth-first discovery order from the locals
    (sorted by name), so two runs that allocate in a different order but
    build the same linked structure compare equal.
    """
    from repro.runtime.values import NodeRef

    numbering: Dict[int, int] = {}
    queue: deque = deque()

    def number(value):
        if not isinstance(value, NodeRef):
            return ("int", value) if value is not None else ("nil",)
        if value.node_id not in numbering:
            numbering[value.node_id] = len(numbering)
            queue.append(value)
        return ("node", numbering[value.node_id])

    local_values = tuple(
        (name, number(value)) for name, value in sorted(execution.main_locals.items())
    )
    nodes = []
    while queue:
        node = execution.heap.node(queue.popleft())
        nodes.append((node.value, number(node.left), number(node.right)))
    return local_values, tuple(nodes)


@dataclass
class ExecutionVerdict:
    """What one program's concrete execution showed."""

    failures: List[str] = field(default_factory=list)
    races_flagged: int = 0
    races_unflagged: int = 0
    sequential_span: int = 0
    parallel_span: int = 0
    parallel_work: int = 0


def judge_execution(name: str, diagnosed: bool, sequential, parallel) -> ExecutionVerdict:
    """Compare a parallel run with its sequential reference run."""
    verdict = ExecutionVerdict(
        sequential_span=sequential.span,
        parallel_span=parallel.span,
        parallel_work=parallel.work,
    )
    if parallel.races:
        if diagnosed:
            verdict.races_flagged = 1
        else:
            verdict.races_unflagged = 1
            verdict.failures.append(
                f"{name}: {len(parallel.races)} race(s) with no structure diagnostic, "
                f"first: {parallel.races[0]}"
            )
    if not diagnosed and heap_state(parallel) != heap_state(sequential):
        verdict.failures.append(f"{name}: parallel heap/main locals differ from sequential run")
    return verdict


def check_parallelization(name: str, program, info, diagnosed: bool, parallel_program) -> ExecutionVerdict:
    """Run ``program`` and ``parallel_program`` concretely and judge the pair."""
    from repro.runtime.interpreter import run_program

    try:
        sequential = run_program(program, info)
        parallel = run_program(parallel_program, info)
    except Exception as error:  # noqa: BLE001 - any run-time error is a failure
        return ExecutionVerdict(failures=[f"{name}: concrete run failed: {error}"])
    return judge_execution(name, diagnosed, sequential, parallel)


# ---------------------------------------------------------------------------
# daemon-session: cold in-process references
# ---------------------------------------------------------------------------


def cold_canonical(source: str) -> Dict:
    """The reference ``analyze`` result: a cold in-process analysis, JSON-normalized.

    Cold means a private, empty transfer cache: nothing another analysis in
    this process computed can reach the reference.
    """
    from repro import analyze_program, parse_and_normalize
    from repro.analysis.context import AnalysisContext
    from repro.analysis.transfer import TransferCache

    program, info = parse_and_normalize(source)
    context = AnalysisContext(program=program, info=info, transfer_cache=TransferCache())
    return json.loads(json.dumps(analyze_program(program, info, context=context).canonical()))


def cold_digest(source: str) -> str:
    """The reference ``reanalyze`` digest: ``cold_solve`` of the new version."""
    from repro import parse_and_normalize
    from repro.analysis.reanalysis import cold_solve

    program, info = parse_and_normalize(source)
    return cold_solve(program, info)[0]


def check_analyze(name: str, response: Dict, reference: Dict) -> List[str]:
    if response.get("failures"):
        return [f"{name}: daemon reported failures {response['failures']}"]
    if response.get("results", {}).get(name) != reference:
        return [f"{name}: daemon analyze result differs from cold in-process analysis"]
    return []


def check_reanalyze(name: str, response: Dict, reference_digest: str) -> List[str]:
    if response.get("digest") != reference_digest:
        return [f"{name}: reanalyze digest {response.get('digest')} != cold_solve {reference_digest}"]
    return []


# ---------------------------------------------------------------------------
# cli-oneshot: the printed census row
# ---------------------------------------------------------------------------

_CENSUS_ROW = re.compile(
    r"^\s+(?P<name>\S+)\s+groups=(?P<groups>\d+)\s+call_groups=(?P<call_groups>\d+)"
    r"\s+independent=(?P<independent_answers>\d+)/(?P<queries>\d+)\s*$"
)

CENSUS_FIELDS = ("groups", "call_groups", "independent_answers", "queries")


def parse_census(stdout: str) -> Dict[str, Dict[str, int]]:
    """``{name: census counters}`` from the CLI's ``--census`` section."""
    rows: Dict[str, Dict[str, int]] = {}
    section = stdout.split("parallelism census", 1)
    if len(section) < 2:
        return rows
    for line in section[1].splitlines()[1:]:
        match = _CENSUS_ROW.match(line)
        if match:
            rows[match["name"]] = {key: int(match[key]) for key in CENSUS_FIELDS}
    return rows


def reference_census(name: str, depth: int) -> Dict[str, int]:
    """The reference census row: a cold in-process ``parallelism_census``."""
    from repro.analysis.transfer import TransferCache
    from repro.parallel.oracle import PathMatrixOracle, parallelism_census
    from repro.workloads import load

    program, info = load(name, depth=depth)
    oracle = PathMatrixOracle(transfer_cache=TransferCache())
    census = parallelism_census(program, info, oracle=oracle)
    return {key: census[key] for key in CENSUS_FIELDS}


def check_census(name: str, returncode: int, printed: Optional[Dict[str, int]], reference: Dict[str, int]) -> List[str]:
    if returncode != 0:
        return [f"{name}: repro analyze exited {returncode}"]
    if printed != reference:
        return [f"{name}: census {printed} != in-process parallelism_census {reference}"]
    return []
