"""Interference analysis (Section 5): basic statements, procedure calls, sequences."""

from .._lazy import lazy_exports

__all__ = [
    "Location",
    "LocationKind",
    "RelativeLocation",
    "var_location",
    "field_location",
    "relative_var_location",
    "relative_field_location",
    "alias_set",
    "must_alias_set",
    "relative_alias_set",
    "read_set",
    "write_set",
    "condition_read_set",
    "relative_read_set",
    "relative_write_set",
    "interference_set",
    "statements_interfere",
    "group_interference",
    "can_execute_in_parallel",
    "extend_parallel_group",
    "greedy_parallel_groups",
    "InterferenceReport",
    "calls_interfere",
    "calls_independent",
    "CallInterferenceReport",
    "sequences_interfere",
    "sequences_independent",
    "SequenceInterferenceReport",
    "live_in_handles",
    "matrices_along",
    "sequence_relative_reads",
    "sequence_relative_writes",
    "relative_locations_overlap",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".alias": ("alias_set", "must_alias_set", "relative_alias_set"),
        ".basic": (
            "InterferenceReport", "can_execute_in_parallel", "extend_parallel_group",
            "greedy_parallel_groups", "group_interference", "interference_set",
            "statements_interfere",
        ),
        ".calls": ("CallInterferenceReport", "calls_independent", "calls_interfere"),
        ".locations": (
            "Location", "LocationKind", "RelativeLocation", "field_location",
            "relative_field_location", "relative_var_location", "var_location",
        ),
        ".readwrite": (
            "condition_read_set", "read_set", "relative_read_set", "relative_write_set",
            "write_set",
        ),
        ".sequences": (
            "SequenceInterferenceReport", "live_in_handles", "matrices_along",
            "relative_locations_overlap", "sequence_relative_reads",
            "sequence_relative_writes", "sequences_independent", "sequences_interfere",
        ),
    },
)
