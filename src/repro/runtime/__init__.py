"""Runtime substrate: heap, interpreter, structure checks and race detection."""

from .._lazy import lazy_exports

__all__ = [
    "Heap",
    "Node",
    "TreeSpec",
    "Interpreter",
    "CostModel",
    "Frame",
    "run_program",
    "run_source",
    "StructureKind",
    "StructureReport",
    "classify_structure",
    "is_tree",
    "is_dag",
    "subtrees_disjoint",
    "ExecutionResult",
    "AccessSet",
    "RaceReport",
    "VarLocation",
    "FieldLocation",
    "NodeRef",
    "Value",
    "HandleValue",
    "format_value",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".heap": ("Heap", "Node", "TreeSpec"),
        ".interpreter": (
            "CostModel", "Frame", "Interpreter", "run_program", "run_source",
        ),
        ".structure": (
            "StructureKind", "StructureReport", "classify_structure", "is_dag",
            "is_tree", "subtrees_disjoint",
        ),
        ".trace": (
            "AccessSet", "ExecutionResult", "FieldLocation", "RaceReport",
            "VarLocation",
        ),
        ".values": ("HandleValue", "NodeRef", "Value", "format_value"),
    },
)
