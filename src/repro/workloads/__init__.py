"""Workloads: the paper's programs, random scenarios, and the sharded runner."""

from .._lazy import lazy_exports

__all__ = [
    "WORKLOADS",
    "TREE_PRESERVING",
    "load",
    "analyze_suite",
    "SuiteResult",
    "ShardedSuiteRunner",
    "ShardedSuiteReport",
    "ShardReport",
    "source",
    "with_depth",
    "FAMILIES",
    "UNTRUNCATED_FAMILIES",
    "GeneratorConfig",
    "Scenario",
    "generate_scenario",
    "generate_scenarios",
    "cross_check_scenario",
    "random_tree_spec",
    "perfect_tree_values",
    "make_independent_loads_program",
    "make_handle_web_program",
    "make_recursive_walker_program",
    "time_items",
    "format_timing",
    "check_cold_medians",
    "format_ratchet",
    "format_profile_top",
    "measure_calibration",
    "EDIT_KINDS",
    "EditStep",
    "EditScript",
    "EditedPair",
    "generate_edit_script",
    "apply_edit_script",
    "generate_edited_pair",
    "make_edit_bench_scenario",
    "measure_edit_replay",
    "format_edit_replay",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".generators": (
            "EDIT_KINDS", "FAMILIES", "UNTRUNCATED_FAMILIES", "EditedPair",
            "EditScript", "EditStep", "GeneratorConfig", "Scenario",
            "apply_edit_script", "cross_check_scenario", "generate_edit_script",
            "generate_edited_pair", "generate_scenario", "generate_scenarios",
            "make_edit_bench_scenario", "make_handle_web_program",
            "make_independent_loads_program", "make_recursive_walker_program",
            "perfect_tree_values", "random_tree_spec",
        ),
        ".timing": (
            "check_cold_medians", "format_edit_replay", "format_profile_top",
            "format_ratchet", "format_timing", "measure_calibration",
            "measure_edit_replay", "time_items",
        ),
        ".suite": (
            "TREE_PRESERVING", "WORKLOADS", "ShardedSuiteReport", "ShardedSuiteRunner",
            "ShardReport", "SuiteResult", "analyze_suite", "load", "source",
            "with_depth",
        ),
    },
)
