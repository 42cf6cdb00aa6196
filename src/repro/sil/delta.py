"""Semantic program deltas: what changed between two versions of a program.

Cross-run incremental re-analysis (see :mod:`repro.analysis.reanalysis`)
starts from one question: *given the program we solved last time and the
program we are asked to solve now, which procedures could possibly analyze
differently?*  This module answers it structurally, without running any
analysis:

* :func:`diff_programs` compares two (surface or normalized) programs and
  produces a typed :class:`ProgramDelta` — procedures added, removed,
  body-changed or signature-changed, plus the statement-level change spans
  of every changed body;
* statement content is identified by :func:`~repro.sil.printer.
  statement_identity` — the ``(node kind, exact inline rendering)`` pair —
  which is **the same key the transfer memo and the persistent cache codec
  use**, so a delta's stale-statement set names exactly the cached
  transfers that can never be looked up again;
* :func:`statement_rebase_map` produces *stable statement identities across
  reparses*: for procedures whose bodies are textually identical, it maps
  each old statement object's ``id`` to the corresponding statement object
  of the new parse (positional, verified by identity), so ``id(stmt)``-keyed
  memos recorded against the old objects can be rebased onto the new ones.

The diff is deliberately *syntactic* and conservative: any difference in a
procedure's rendered body or declarations marks it changed.  Semantic
fan-out (a changed callee invalidating its callers' analyses) is the
re-analysis driver's job, via the reverse call graph — see
:func:`call_graph` / :func:`reverse_call_graph`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from . import ast
from .printer import (
    StatementIdentity,
    identity_label,
    statement_identity,
    statement_label,
)


def _signature_of(proc: ast.Procedure) -> Tuple:
    """Everything about a procedure except its body, canonically rendered."""
    decls = tuple(
        (decl.name, decl.type.value) for decl in list(proc.params) + list(proc.locals)
    )
    if isinstance(proc, ast.Function):
        return ("function", proc.name, decls, proc.return_type.value, proc.return_var)
    return ("procedure", proc.name, decls)


def _body_identities(proc: ast.Procedure) -> List[StatementIdentity]:
    """Identities of every statement of ``proc``, in pre-order walk order."""
    return [statement_identity(stmt) for stmt in ast.walk_stmt(proc.body)]


@dataclass(frozen=True)
class ProcedureDelta:
    """One changed procedure, with its statement-level change spans."""

    name: str
    #: ``"body"`` or ``"signature"`` (a signature change implies re-analysis
    #: even when the body rendering is unchanged — formals shape the entry
    #: matrix and the summary).
    kind: str
    #: Statement identities present in the old body but not the new one
    #: (multiset difference): the statements whose cached transfers can
    #: never be keyed again by the new program.
    removed_statements: Tuple[StatementIdentity, ...] = ()
    #: Statement identities present in the new body but not the old one.
    added_statements: Tuple[StatementIdentity, ...] = ()


@dataclass(frozen=True)
class ProgramDelta:
    """The typed structural diff between two program versions."""

    old_name: str
    new_name: str
    #: Procedure names present only in the new program.
    added: Tuple[str, ...] = ()
    #: Procedure names present only in the old program.
    removed: Tuple[str, ...] = ()
    #: Procedures present in both whose body or signature changed.
    changed: Tuple[ProcedureDelta, ...] = ()
    #: Procedures present in both with identical signature and body.
    unchanged: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    @property
    def dirty_procedures(self) -> FrozenSet[str]:
        """Directly-touched procedures: added or changed (not yet closed
        over the reverse call graph — see :func:`dirty_seed`)."""
        return frozenset(self.added) | {d.name for d in self.changed}

    @property
    def stale_statement_labels(self) -> FrozenSet[str]:
        """Labels of statements the edit removed — the persistent-store rows
        targeted invalidation should drop (removed procedures contribute
        their whole bodies via their ``ProcedureDelta`` when diffed; here,
        per-procedure spans plus removed procedures are both covered)."""
        labels: Set[str] = set()
        for proc_delta in self.changed:
            for identity in proc_delta.removed_statements:
                labels.add(identity_label(identity))
        return frozenset(labels)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-able rendering (CLI / daemon responses)."""
        return {
            "old_program": self.old_name,
            "new_program": self.new_name,
            "added": list(self.added),
            "removed": list(self.removed),
            "changed": [
                {
                    "name": d.name,
                    "kind": d.kind,
                    "removed_statements": [list(i) for i in d.removed_statements],
                    "added_statements": [list(i) for i in d.added_statements],
                }
                for d in self.changed
            ],
            "unchanged": list(self.unchanged),
        }


def diff_programs(old: ast.Program, new: ast.Program) -> ProgramDelta:
    """Compute the :class:`ProgramDelta` between two program versions.

    Both programs may be surface or normalized, but the comparison is only
    meaningful between like forms (the re-analysis driver diffs normalized
    programs, so the identities match what the analysis and the cache saw).
    """
    old_procs = {proc.name: proc for proc in old.all_callables}
    new_procs = {proc.name: proc for proc in new.all_callables}

    added = tuple(sorted(name for name in new_procs if name not in old_procs))
    removed = tuple(sorted(name for name in old_procs if name not in new_procs))

    changed: List[ProcedureDelta] = []
    unchanged: List[str] = []
    for name in sorted(set(old_procs) & set(new_procs)):
        old_proc, new_proc = old_procs[name], new_procs[name]
        signature_changed = _signature_of(old_proc) != _signature_of(new_proc)
        old_ids = _body_identities(old_proc)
        new_ids = _body_identities(new_proc)
        if not signature_changed and old_ids == new_ids:
            unchanged.append(name)
            continue
        old_counts = Counter(old_ids)
        new_counts = Counter(new_ids)
        removed_stmts = tuple(sorted((old_counts - new_counts).elements()))
        added_stmts = tuple(sorted((new_counts - old_counts).elements()))
        changed.append(
            ProcedureDelta(
                name=name,
                kind="signature" if signature_changed else "body",
                removed_statements=removed_stmts,
                added_statements=added_stmts,
            )
        )

    return ProgramDelta(
        old_name=old.name,
        new_name=new.name,
        added=added,
        removed=removed,
        changed=tuple(changed),
        unchanged=tuple(unchanged),
    )


# ---------------------------------------------------------------------------
# Stable statement identities across reparses
# ---------------------------------------------------------------------------


def statement_rebase_map(
    old: ast.Program, new: ast.Program, names: Iterable[str]
) -> Dict[int, ast.Stmt]:
    """Map ``id(old statement) -> new statement`` for unchanged procedures.

    ``names`` must name procedures whose bodies are identical between the
    two programs (the delta's ``unchanged`` set); their pre-order statement
    walks are then the same shape, so positional pairing is exact.  Each
    pairing is verified against the identity rendering — a mismatch raises
    rather than silently rebasing a memo onto a different statement.
    """
    mapping: Dict[int, ast.Stmt] = {}
    for name in names:
        old_proc = old.callable(name)
        new_proc = new.callable(name)
        old_stmts = list(ast.walk_stmt(old_proc.body))
        new_stmts = list(ast.walk_stmt(new_proc.body))
        if len(old_stmts) != len(new_stmts):
            raise ValueError(
                f"procedure {name!r} was reported unchanged but its statement "
                f"count differs ({len(old_stmts)} vs {len(new_stmts)})"
            )
        for old_stmt, new_stmt in zip(old_stmts, new_stmts):
            if statement_identity(old_stmt) != statement_identity(new_stmt):
                raise ValueError(
                    f"procedure {name!r} was reported unchanged but statement "
                    f"{statement_identity(old_stmt)!r} does not match "
                    f"{statement_identity(new_stmt)!r}"
                )
            mapping[id(old_stmt)] = new_stmt
    return mapping


# ---------------------------------------------------------------------------
# Call-graph helpers for dirty seeding
# ---------------------------------------------------------------------------


def call_graph(program: ast.Program) -> Dict[str, Set[str]]:
    """``caller -> {callees}`` over every procedure and function call."""
    graph: Dict[str, Set[str]] = {proc.name: set() for proc in program.all_callables}
    for proc in program.all_callables:
        for stmt in ast.walk_stmt(proc.body):
            if isinstance(stmt, (ast.ProcCall, ast.FuncAssign)):
                graph[proc.name].add(stmt.name)
            # Surface programs may still carry calls as expressions.
            for expr in ast.stmt_expressions(stmt):
                for sub in ast.walk_expr(expr):
                    if isinstance(sub, ast.CallExpr):
                        graph[proc.name].add(sub.name)
    return graph


def reverse_call_graph(program: ast.Program) -> Dict[str, Set[str]]:
    """``callee -> {callers}`` — the edges dirty seeding walks."""
    reverse: Dict[str, Set[str]] = {proc.name: set() for proc in program.all_callables}
    for caller, callees in call_graph(program).items():
        for callee in callees:
            reverse.setdefault(callee, set()).add(caller)
    return reverse


def dirty_seed(delta: ProgramDelta, new: ast.Program) -> FrozenSet[str]:
    """The dirty worklist seed: directly-changed procedures plus every
    transitive caller in the new program's reverse call graph.

    A procedure's analysis depends on its own body, its entry matrix and
    the summaries of its *direct* callees; summaries are themselves
    transitive over the call graph, so closing the directly-changed set
    over reverse call edges covers every procedure whose recorded visits
    could differ from the previous run.  Procedures *called by* dirty ones
    are deliberately not seeded: if a dirty caller's projection to them
    actually changes, the entry-matrix-keyed visit memo misses on its own.
    """
    reverse = reverse_call_graph(new)
    dirty: Set[str] = set(delta.dirty_procedures)
    frontier = list(dirty)
    while frontier:
        name = frontier.pop()
        for caller in reverse.get(name, ()):
            if caller not in dirty:
                dirty.add(caller)
                frontier.append(caller)
    return frozenset(dirty)
