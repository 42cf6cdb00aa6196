"""Pretty printer for SIL programs.

Produces concrete syntax that the parser accepts (round-tripping is covered
by tests), including the parallel ``||`` construct — so the output of the
parallelizer can be printed in the style of Figure 8 of the paper.
"""

from __future__ import annotations

from typing import List, Tuple

from . import ast

_INDENT = "  "


def format_expr(expr: ast.Expr) -> str:
    """Format an expression as SIL concrete syntax."""
    return _ExprFormatter().format(expr)


class _ExprFormatter:
    """Formats expressions with minimal parentheses (precedence-aware)."""

    _PRECEDENCE = {
        "or": 1,
        "and": 2,
        "=": 4,
        "<>": 4,
        "<": 4,
        "<=": 4,
        ">": 4,
        ">=": 4,
        "+": 5,
        "-": 5,
        "*": 6,
        "div": 6,
        "mod": 6,
    }

    def format(self, expr: ast.Expr, parent_prec: int = 0) -> str:
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.NilLit):
            return "nil"
        if isinstance(expr, ast.NewExpr):
            return "new()"
        if isinstance(expr, ast.Name):
            return expr.ident
        if isinstance(expr, ast.FieldAccess):
            return f"{self.format(expr.base, 10)}.{expr.field_name.value}"
        if isinstance(expr, ast.CallExpr):
            args = ", ".join(self.format(a) for a in expr.args)
            return f"{expr.name}({args})"
        if isinstance(expr, ast.UnOp):
            if expr.op == "not":
                return f"not {self.format(expr.operand, 3)}"
            return f"-{self.format(expr.operand, 7)}"
        if isinstance(expr, ast.BinOp):
            prec = self._PRECEDENCE.get(expr.op, 0)
            left = self.format(expr.left, prec)
            right = self.format(expr.right, prec + 1)
            text = f"{left} {expr.op} {right}"
            if prec < parent_prec:
                return f"({text})"
            return text
        raise TypeError(f"unknown expression node: {expr!r}")


def format_stmt(stmt: ast.Stmt, indent: int = 0) -> str:
    """Format a statement (possibly multi-line) as SIL concrete syntax."""
    return "\n".join(_format_stmt_lines(stmt, indent))


def _format_stmt_lines(stmt: ast.Stmt, indent: int) -> List[str]:
    pad = _INDENT * indent

    if isinstance(stmt, ast.Block):
        lines = [pad + "begin"]
        for i, inner in enumerate(stmt.stmts):
            inner_lines = _format_stmt_lines(inner, indent + 1)
            if i < len(stmt.stmts) - 1:
                inner_lines[-1] += ";"
            lines.extend(inner_lines)
        lines.append(pad + "end")
        return lines

    if isinstance(stmt, ast.ParallelStmt):
        parts = [_format_inline(branch) for branch in stmt.branches]
        return [pad + " || ".join(parts)]

    if isinstance(stmt, ast.IfStmt):
        lines = [pad + f"if {format_expr(stmt.cond)} then"]
        lines.extend(_format_stmt_lines(stmt.then_branch, indent + 1))
        if stmt.else_branch is not None:
            lines.append(pad + "else")
            lines.extend(_format_stmt_lines(stmt.else_branch, indent + 1))
        return lines

    if isinstance(stmt, ast.WhileStmt):
        lines = [pad + f"while {format_expr(stmt.cond)} do"]
        lines.extend(_format_stmt_lines(stmt.body, indent + 1))
        return lines

    return [pad + _format_inline(stmt)]


def _format_inline(stmt: ast.Stmt) -> str:
    """Format a statement on a single line (used inside ``||``)."""
    if isinstance(stmt, ast.Assign):
        return f"{format_expr(stmt.lhs)} := {format_expr(stmt.rhs)}"
    if isinstance(stmt, ast.AssignNil):
        return f"{stmt.target} := nil"
    if isinstance(stmt, ast.AssignNew):
        return f"{stmt.target} := new()"
    if isinstance(stmt, ast.CopyHandle):
        return f"{stmt.target} := {stmt.source}"
    if isinstance(stmt, ast.LoadField):
        return f"{stmt.target} := {stmt.source}.{stmt.field_name.value}"
    if isinstance(stmt, ast.StoreField):
        source = stmt.source if stmt.source is not None else "nil"
        return f"{stmt.target}.{stmt.field_name.value} := {source}"
    if isinstance(stmt, ast.LoadValue):
        return f"{stmt.target} := {stmt.source}.value"
    if isinstance(stmt, ast.StoreValue):
        return f"{stmt.target}.value := {format_expr(stmt.expr)}"
    if isinstance(stmt, ast.ScalarAssign):
        return f"{stmt.target} := {format_expr(stmt.expr)}"
    if isinstance(stmt, ast.ProcCall):
        args = ", ".join(format_expr(a) for a in stmt.args)
        return f"{stmt.name}({args})"
    if isinstance(stmt, ast.FuncAssign):
        args = ", ".join(format_expr(a) for a in stmt.args)
        return f"{stmt.target} := {stmt.name}({args})"
    if isinstance(stmt, ast.SkipStmt):
        return "skip"
    if isinstance(stmt, ast.ParallelStmt):
        return " || ".join(_format_inline(b) for b in stmt.branches)
    if isinstance(stmt, ast.Block):
        inner = "; ".join(_format_inline(s) for s in stmt.stmts)
        return f"begin {inner} end"
    if isinstance(stmt, ast.IfStmt):
        text = f"if {format_expr(stmt.cond)} then {_format_inline(stmt.then_branch)}"
        if stmt.else_branch is not None:
            text += f" else {_format_inline(stmt.else_branch)}"
        return text
    if isinstance(stmt, ast.WhileStmt):
        return f"while {format_expr(stmt.cond)} do {_format_inline(stmt.body)}"
    raise TypeError(f"unknown statement node: {stmt!r}")


#: ``(node kind, inline rendering)`` — the content identity of a statement.
StatementIdentity = Tuple[str, str]


def statement_identity(stmt: ast.Stmt) -> StatementIdentity:
    """The canonical content identity of one statement.

    Two statements with equal identities are structurally identical
    (including every nested statement — the inline rendering recurses), so
    they denote the same transfer function under any input matrix.  The
    node kind is part of the identity because two kinds can render alike
    (a scalar copy ``x := y`` prints like a handle copy) while having
    different transfer semantics.  The in-memory transfer memo, the
    persistent cache keys (:func:`repro.cache.codec.canonical_statement`)
    and the program differ (:mod:`repro.sil.delta`) all key on it.
    """
    return (type(stmt).__name__, _format_inline(stmt))


def statement_label(stmt: ast.Stmt) -> str:
    """The single-string form of :func:`statement_identity` stores index by."""
    return identity_label(statement_identity(stmt))


def identity_label(identity: StatementIdentity) -> str:
    """Collapse an identity pair into the label string stored with cache rows."""
    return "|".join(identity)


def _format_decls(decls: List[ast.VarDecl], separator: str = "; ") -> str:
    """Group declarations by type: ``a, b: handle; i: int``."""
    if not decls:
        return ""
    groups: List[str] = []
    current_names: List[str] = []
    current_type = decls[0].type
    for decl in decls:
        if decl.type is current_type:
            current_names.append(decl.name)
        else:
            groups.append(f"{', '.join(current_names)}: {current_type.value}")
            current_names = [decl.name]
            current_type = decl.type
    groups.append(f"{', '.join(current_names)}: {current_type.value}")
    return separator.join(groups)


def format_procedure(proc: ast.Procedure, indent: int = 0) -> str:
    """Format a procedure or function declaration."""
    pad = _INDENT * indent
    keyword = "function" if isinstance(proc, ast.Function) else "procedure"
    header = f"{pad}{keyword} {proc.name}({_format_decls(proc.params)})"
    if isinstance(proc, ast.Function):
        header += f": {proc.return_type.value}"
    lines = [header]
    if proc.locals:
        lines.append(pad + _INDENT + _format_decls(proc.locals))
    lines.extend(_format_stmt_lines(proc.body, indent))
    if isinstance(proc, ast.Function):
        lines.append(f"{pad}return ({proc.return_var})")
    return "\n".join(lines)


def format_program(program: ast.Program) -> str:
    """Format a whole program as SIL concrete syntax."""
    parts = [f"program {program.name}"]
    for proc in program.procedures:
        parts.append(format_procedure(proc))
    for func in program.functions:
        parts.append(format_procedure(func))
    return "\n\n".join(parts) + "\n"
