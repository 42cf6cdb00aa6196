"""SIL — the Structured Imperative Language of Hendren & Nicolau (1989).

This package contains the complete front end: AST (:mod:`repro.sil.ast`),
lexer, parser, type checker, normalizer (lowering to basic handle
statements), pretty printer and a programmatic builder API.
"""

from .._lazy import lazy_exports

__all__ = [
    "ast",
    "builder",
    "SilError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "NormalizationError",
    "SilRuntimeError",
    "StructureViolation",
    "SourceLocation",
    "Token",
    "TokenKind",
    "tokenize",
    "parse_program",
    "parse_statement",
    "parse_expression",
    "check_program",
    "TypeChecker",
    "TypeInfo",
    "ProcedureTypes",
    "ExprType",
    "normalize_program",
    "parse_and_normalize",
    "format_expr",
    "format_stmt",
    "format_procedure",
    "format_program",
    "ProcedureDelta",
    "ProgramDelta",
    "diff_programs",
    "dirty_seed",
    "call_graph",
    "reverse_call_graph",
    "statement_identity",
    "statement_label",
    "statement_rebase_map",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".delta": (
            "ProcedureDelta", "ProgramDelta", "call_graph", "diff_programs",
            "dirty_seed", "reverse_call_graph", "statement_rebase_map",
        ),
        ".errors": (
            "LexError", "NormalizationError", "ParseError", "SilError",
            "SilRuntimeError", "SourceLocation", "StructureViolation", "TypeCheckError",
        ),
        ".lexer": ("Token", "TokenKind", "tokenize"),
        ".normalize": ("normalize_program", "parse_and_normalize"),
        ".parser": ("parse_expression", "parse_program", "parse_statement"),
        ".printer": (
            "format_expr", "format_procedure", "format_program", "format_stmt",
            "statement_identity", "statement_label",
        ),
        ".typecheck": (
            "ExprType", "ProcedureTypes", "TypeChecker", "TypeInfo", "check_program",
        ),
    },
    submodules=("ast", "builder"),
)
