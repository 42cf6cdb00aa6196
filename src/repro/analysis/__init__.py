"""Path-matrix interference analysis — the paper's core contribution.

Public entry point: :func:`repro.analysis.analyze_program`, which runs the
whole-program analysis and returns an :class:`~repro.analysis.engine.
AnalysisResult` giving the path matrix at every program point, procedure
entry matrices (with ``h*``/``h**`` symbolic handles), procedure summaries
(read-only vs. update arguments) and structure diagnostics.
"""

from .._lazy import lazy_exports

__all__ = [
    "analyze_program",
    "analyze_program_adaptive",
    "analyze_program_reference",
    "analyze_many",
    "BatchAnalyzer",
    "AdaptiveLimits",
    "WideningTally",
    "widening_scope",
    "AnalysisContext",
    "AnalysisRecorder",
    "AnalysisStats",
    "AnalysisResult",
    "run_pipeline",
    "pass_names",
    "TransferCache",
    "GLOBAL_TRANSFER_CACHE",
    "apply_basic_statement_cached",
    "AnalysisLimits",
    "DEFAULT_LIMITS",
    "PathMatrix",
    "MatrixRow",
    "row_delta",
    "PathSet",
    "Path",
    "PathSegment",
    "Direction",
    "parse_path",
    "format_path",
    "make_path",
    "concat",
    "append_link",
    "cancel_first",
    "link_path",
    "subsumes",
    "caller_symbol",
    "stacked_symbol",
    "is_symbolic",
    "StructureDiagnostic",
    "DiagnosticKind",
    "Certainty",
    "ProcedureSummary",
    "compute_summaries",
    "TransferResult",
    "apply_basic_statement",
    "apply_assign_nil",
    "apply_assign_new",
    "apply_copy",
    "apply_load_field",
    "apply_store_field",
    "IncrementalSession",
    "ReanalysisReport",
    "VisitMemo",
    "cold_solve",
    "result_digest",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".context": ("AnalysisContext", "AnalysisRecorder", "AnalysisStats"),
        ".engine": (
            "AnalysisResult", "BatchAnalyzer", "analyze_many", "analyze_program",
            "analyze_program_adaptive", "analyze_program_reference",
        ),
        ".limits": ("DEFAULT_LIMITS", "AdaptiveLimits", "AnalysisLimits"),
        ".telemetry": ("WideningTally", "widening_scope"),
        ".pipeline": ("pass_names", "run_pipeline"),
        ".matrix": (
            "MatrixRow", "PathMatrix", "caller_symbol", "is_symbolic", "row_delta",
            "stacked_symbol",
        ),
        ".paths": (
            "Direction", "Path", "PathSegment", "append_link", "cancel_first", "concat",
            "format_path", "link_path", "make_path", "parse_path", "subsumes",
        ),
        ".pathset": ("PathSet",),
        ".reanalysis": (
            "IncrementalSession", "ReanalysisReport", "VisitMemo", "cold_solve",
            "result_digest",
        ),
        ".structure": ("Certainty", "DiagnosticKind", "StructureDiagnostic"),
        ".summaries": ("ProcedureSummary", "compute_summaries"),
        ".transfer": (
            "GLOBAL_TRANSFER_CACHE", "TransferCache", "TransferResult",
            "apply_assign_new", "apply_assign_nil", "apply_basic_statement",
            "apply_basic_statement_cached", "apply_copy", "apply_load_field",
            "apply_store_field",
        ),
    },
)
