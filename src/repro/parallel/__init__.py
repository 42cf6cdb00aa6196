"""Parallelization: dependence oracles, the Figure 8 transformation, speedup model."""

from .._lazy import lazy_exports

__all__ = [
    "DependenceOracle",
    "PathMatrixOracle",
    "is_call",
    "is_groupable",
    "batch_oracles",
    "parallelism_census",
    "parallelize_program",
    "Parallelizer",
    "ParallelizationResult",
    "ParallelizationStats",
    "ParallelismReport",
    "SpeedupRow",
    "build_report",
    "greedy_time",
    "DEFAULT_PROCESSORS",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".oracle": (
            "DependenceOracle", "PathMatrixOracle", "batch_oracles", "is_call",
            "is_groupable", "parallelism_census",
        ),
        ".schedule": (
            "DEFAULT_PROCESSORS", "ParallelismReport", "SpeedupRow", "build_report",
            "greedy_time",
        ),
        ".transform": (
            "ParallelizationResult", "ParallelizationStats", "Parallelizer",
            "parallelize_program",
        ),
    },
)
