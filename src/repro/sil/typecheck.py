"""Type checker for SIL programs.

SIL has only two declared types (``int`` and ``handle``); expressions may
additionally have the internal type *bool* (the result of comparisons and
logical operators), which may only be used as the condition of ``if`` and
``while`` statements.

The checker validates both surface programs (with arbitrary ``Assign``
nodes) and normalized core programs, and produces a :class:`TypeInfo`
object recording the declared type of every variable in every procedure —
later phases (normalization, analysis, interpretation) use it to
distinguish handle variables from integer variables without re-deriving
scopes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import ast
from .errors import TypeCheckError


class ExprType(enum.Enum):
    """The type of an expression: the two SIL types plus internal bool."""

    INT = "int"
    HANDLE = "handle"
    BOOL = "bool"

    @staticmethod
    def of(sil_type: ast.SilType) -> "ExprType":
        return ExprType.INT if sil_type is ast.SilType.INT else ExprType.HANDLE


@dataclass
class ProcedureTypes:
    """Types of every variable visible inside one procedure."""

    name: str
    variables: Dict[str, ast.SilType] = field(default_factory=dict)

    def type_of(self, name: str) -> ast.SilType:
        try:
            return self.variables[name]
        except KeyError:
            raise TypeCheckError(f"variable {name!r} is not declared in {self.name!r}") from None

    def is_handle(self, name: str) -> bool:
        return self.variables.get(name) is ast.SilType.HANDLE

    def is_int(self, name: str) -> bool:
        return self.variables.get(name) is ast.SilType.INT

    def declared(self, name: str) -> bool:
        return name in self.variables

    def handle_variables(self) -> List[str]:
        return [n for n, t in self.variables.items() if t is ast.SilType.HANDLE]


@dataclass
class TypeInfo:
    """Result of type checking a whole program."""

    program: ast.Program
    procedures: Dict[str, ProcedureTypes] = field(default_factory=dict)

    def for_procedure(self, name: str) -> ProcedureTypes:
        try:
            return self.procedures[name]
        except KeyError:
            raise TypeCheckError(f"no procedure or function named {name!r}") from None


class TypeChecker:
    """Checks a SIL program and produces :class:`TypeInfo`."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.info = TypeInfo(program=program)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def check(self) -> TypeInfo:
        self._check_callable_names()
        for proc in self.program.all_callables:
            self._check_procedure(proc)
        self._check_main()
        return self.info

    def _check_main(self) -> None:
        try:
            main = self.program.procedure("main")
        except KeyError:
            raise TypeCheckError("program has no procedure 'main'") from None
        if main.params:
            raise TypeCheckError("procedure 'main' must be parameterless")

    def _check_callable_names(self) -> None:
        seen: Dict[str, ast.Procedure] = {}
        for proc in self.program.all_callables:
            if proc.name in seen:
                raise TypeCheckError(f"duplicate procedure/function name {proc.name!r}")
            seen[proc.name] = proc

    # ------------------------------------------------------------------
    # Declarations and scopes
    # ------------------------------------------------------------------

    def _check_procedure(self, proc: ast.Procedure) -> None:
        scope = ProcedureTypes(name=proc.name)
        for decl in proc.params + proc.locals:
            if decl.name in scope.variables:
                raise TypeCheckError(
                    f"variable {decl.name!r} declared more than once in {proc.name!r}", decl.loc
                )
            if self.program.has_callable(decl.name):
                raise TypeCheckError(
                    f"variable {decl.name!r} in {proc.name!r} shadows a procedure name", decl.loc
                )
            scope.variables[decl.name] = decl.type
        self.info.procedures[proc.name] = scope

        if isinstance(proc, ast.Function):
            if not scope.declared(proc.return_var):
                raise TypeCheckError(
                    f"function {proc.name!r} returns undeclared variable {proc.return_var!r}",
                    proc.loc,
                )
            declared = scope.type_of(proc.return_var)
            if declared is not proc.return_type:
                raise TypeCheckError(
                    f"function {proc.name!r} declares return type {proc.return_type} "
                    f"but returns {proc.return_var!r} of type {declared}",
                    proc.loc,
                )

        self._check_stmt(proc.body, proc, scope)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt, proc: ast.Procedure, scope: ProcedureTypes) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._check_stmt(inner, proc, scope)
        elif isinstance(stmt, ast.ParallelStmt):
            for branch in stmt.branches:
                self._check_stmt(branch, proc, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._require(stmt.cond, ExprType.BOOL, proc, scope, "if condition")
            self._check_stmt(stmt.then_branch, proc, scope)
            if stmt.else_branch is not None:
                self._check_stmt(stmt.else_branch, proc, scope)
        elif isinstance(stmt, ast.WhileStmt):
            self._require(stmt.cond, ExprType.BOOL, proc, scope, "while condition")
            self._check_stmt(stmt.body, proc, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, proc, scope)
        elif isinstance(stmt, ast.ProcCall):
            self._check_call(stmt.name, stmt.args, proc, scope, expect_function=False, loc=stmt.loc)
        elif isinstance(stmt, ast.FuncAssign):
            func = self._check_call(
                stmt.name, stmt.args, proc, scope, expect_function=True, loc=stmt.loc
            )
            assert isinstance(func, ast.Function)
            target_type = scope.type_of(stmt.target)
            if ExprType.of(target_type) is not ExprType.of(func.return_type):
                raise TypeCheckError(
                    f"cannot assign result of {stmt.name!r} ({func.return_type}) to "
                    f"{stmt.target!r} ({target_type})",
                    stmt.loc,
                )
        elif isinstance(stmt, ast.SkipStmt):
            pass
        elif isinstance(stmt, ast.BasicStmt):
            self._check_basic(stmt, proc, scope)
        else:  # pragma: no cover - defensive
            raise TypeCheckError(f"unknown statement node {type(stmt).__name__}", stmt.loc)

    def _check_basic(self, stmt: ast.BasicStmt, proc: ast.Procedure, scope: ProcedureTypes) -> None:
        if isinstance(stmt, (ast.AssignNil, ast.AssignNew)):
            self._require_var(stmt.target, ast.SilType.HANDLE, scope, stmt)
        elif isinstance(stmt, ast.CopyHandle):
            self._require_var(stmt.target, ast.SilType.HANDLE, scope, stmt)
            self._require_var(stmt.source, ast.SilType.HANDLE, scope, stmt)
        elif isinstance(stmt, ast.LoadField):
            if not stmt.field_name.is_link:
                raise TypeCheckError("LoadField must access 'left' or 'right'", stmt.loc)
            self._require_var(stmt.target, ast.SilType.HANDLE, scope, stmt)
            self._require_var(stmt.source, ast.SilType.HANDLE, scope, stmt)
        elif isinstance(stmt, ast.StoreField):
            if not stmt.field_name.is_link:
                raise TypeCheckError("StoreField must access 'left' or 'right'", stmt.loc)
            self._require_var(stmt.target, ast.SilType.HANDLE, scope, stmt)
            if stmt.source is not None:
                self._require_var(stmt.source, ast.SilType.HANDLE, scope, stmt)
        elif isinstance(stmt, ast.LoadValue):
            self._require_var(stmt.target, ast.SilType.INT, scope, stmt)
            self._require_var(stmt.source, ast.SilType.HANDLE, scope, stmt)
        elif isinstance(stmt, ast.StoreValue):
            self._require_var(stmt.target, ast.SilType.HANDLE, scope, stmt)
            self._require(stmt.expr, ExprType.INT, proc, scope, "value expression")
        elif isinstance(stmt, ast.ScalarAssign):
            self._require_var(stmt.target, ast.SilType.INT, scope, stmt)
            self._require(stmt.expr, ExprType.INT, proc, scope, "scalar expression")
        else:  # pragma: no cover - defensive
            raise TypeCheckError(f"unknown basic statement {type(stmt).__name__}", stmt.loc)

    def _require_var(
        self, name: str, expected: ast.SilType, scope: ProcedureTypes, stmt: ast.Stmt
    ) -> None:
        if not scope.declared(name):
            raise TypeCheckError(f"variable {name!r} is not declared in {scope.name!r}", stmt.loc)
        actual = scope.type_of(name)
        if actual is not expected:
            raise TypeCheckError(
                f"variable {name!r} has type {actual}, expected {expected}", stmt.loc
            )

    def _check_assign(self, stmt: ast.Assign, proc: ast.Procedure, scope: ProcedureTypes) -> None:
        lhs_type = self._check_lvalue(stmt.lhs, proc, scope)
        rhs_type = self._expr_type(stmt.rhs, proc, scope)
        if rhs_type is ExprType.BOOL:
            raise TypeCheckError("cannot assign a boolean expression", stmt.loc)
        if lhs_type is not rhs_type:
            raise TypeCheckError(
                f"type mismatch in assignment: left side is {lhs_type.value}, "
                f"right side is {rhs_type.value}",
                stmt.loc,
            )

    def _check_lvalue(self, expr: ast.Expr, proc: ast.Procedure, scope: ProcedureTypes) -> ExprType:
        if isinstance(expr, ast.Name):
            return ExprType.of(scope.type_of(expr.ident))
        if isinstance(expr, ast.FieldAccess):
            base_type = self._check_lvalue(expr.base, proc, scope)
            if base_type is not ExprType.HANDLE:
                raise TypeCheckError("field access requires a handle", expr.loc)
            return ExprType.INT if expr.field_name is ast.Field.VALUE else ExprType.HANDLE
        raise TypeCheckError("left side of assignment must be a variable or field access", expr.loc)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _check_call(
        self,
        name: str,
        args: List[ast.Expr],
        proc: ast.Procedure,
        scope: ProcedureTypes,
        expect_function: bool,
        loc,
    ) -> ast.Procedure:
        try:
            callee = self.program.callable(name)
        except KeyError:
            raise TypeCheckError(f"call to undefined procedure/function {name!r}", loc) from None
        if expect_function and not isinstance(callee, ast.Function):
            raise TypeCheckError(f"{name!r} is a procedure, not a function", loc)
        if not expect_function and isinstance(callee, ast.Function):
            raise TypeCheckError(
                f"{name!r} is a function; its result must be assigned to a variable", loc
            )
        if len(args) != len(callee.params):
            raise TypeCheckError(
                f"call to {name!r} has {len(args)} argument(s); expected {len(callee.params)}", loc
            )
        for arg, param in zip(args, callee.params):
            arg_type = self._expr_type(arg, proc, scope)
            if arg_type is ExprType.BOOL:
                raise TypeCheckError(f"cannot pass a boolean expression to {name!r}", loc)
            if arg_type is not ExprType.of(param.type):
                raise TypeCheckError(
                    f"argument {param.name!r} of {name!r} expects {param.type}, got {arg_type.value}",
                    loc,
                )
        return callee

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _require(
        self,
        expr: ast.Expr,
        expected: ExprType,
        proc: ast.Procedure,
        scope: ProcedureTypes,
        what: str,
    ) -> None:
        actual = self._expr_type(expr, proc, scope)
        if actual is not expected:
            raise TypeCheckError(f"{what} must be {expected.value}, got {actual.value}", expr.loc)

    def _expr_type(self, expr: ast.Expr, proc: ast.Procedure, scope: ProcedureTypes) -> ExprType:
        if isinstance(expr, ast.IntLit):
            return ExprType.INT
        if isinstance(expr, (ast.NilLit, ast.NewExpr)):
            return ExprType.HANDLE
        if isinstance(expr, ast.Name):
            return ExprType.of(scope.type_of(expr.ident))
        if isinstance(expr, ast.FieldAccess):
            base_type = self._expr_type(expr.base, proc, scope)
            if base_type is not ExprType.HANDLE:
                raise TypeCheckError("field access requires a handle", expr.loc)
            return ExprType.INT if expr.field_name is ast.Field.VALUE else ExprType.HANDLE
        if isinstance(expr, ast.UnOp):
            operand = self._expr_type(expr.operand, proc, scope)
            if expr.op == "-":
                if operand is not ExprType.INT:
                    raise TypeCheckError("unary '-' requires an int operand", expr.loc)
                return ExprType.INT
            if expr.op == "not":
                if operand is not ExprType.BOOL:
                    raise TypeCheckError("'not' requires a boolean operand", expr.loc)
                return ExprType.BOOL
            raise TypeCheckError(f"unknown unary operator {expr.op!r}", expr.loc)
        if isinstance(expr, ast.BinOp):
            return self._binop_type(expr, proc, scope)
        if isinstance(expr, ast.CallExpr):
            callee = self._check_call(
                expr.name, expr.args, proc, scope, expect_function=True, loc=expr.loc
            )
            assert isinstance(callee, ast.Function)
            return ExprType.of(callee.return_type)
        raise TypeCheckError(f"unknown expression node {type(expr).__name__}", expr.loc)

    def _binop_type(self, expr: ast.BinOp, proc: ast.Procedure, scope: ProcedureTypes) -> ExprType:
        left = self._expr_type(expr.left, proc, scope)
        right = self._expr_type(expr.right, proc, scope)
        op = expr.op
        if op in ast.ARITHMETIC_OPS:
            if left is not ExprType.INT or right is not ExprType.INT:
                raise TypeCheckError(f"operator {op!r} requires int operands", expr.loc)
            return ExprType.INT
        if op in ast.LOGICAL_OPS:
            if left is not ExprType.BOOL or right is not ExprType.BOOL:
                raise TypeCheckError(f"operator {op!r} requires boolean operands", expr.loc)
            return ExprType.BOOL
        if op in ast.COMPARISON_OPS:
            if left is ExprType.HANDLE or right is ExprType.HANDLE:
                if op not in ("=", "<>"):
                    raise TypeCheckError(
                        f"handles may only be compared with '=' or '<>', not {op!r}", expr.loc
                    )
                if left is not ExprType.HANDLE or right is not ExprType.HANDLE:
                    raise TypeCheckError("cannot compare a handle with an int", expr.loc)
                return ExprType.BOOL
            if left is not ExprType.INT or right is not ExprType.INT:
                raise TypeCheckError(f"operator {op!r} requires int or handle operands", expr.loc)
            return ExprType.BOOL
        raise TypeCheckError(f"unknown binary operator {op!r}", expr.loc)


def check_program(program: ast.Program) -> TypeInfo:
    """Type check ``program`` and return the resulting :class:`TypeInfo`."""
    return TypeChecker(program).check()
