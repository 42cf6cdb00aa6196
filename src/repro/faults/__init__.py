"""Deterministic seeded fault injection (the chaos harness).

The subsystem splits cleanly in two:

* :mod:`~repro.faults.plan` — the frozen, picklable *description*:
  :class:`FaultPlan` / :class:`FaultRule`, the CLI spec grammar, and the
  seeded hash draw that makes every decision replayable.
* :mod:`~repro.faults.inject` — the per-process *evaluator*:
  :class:`FaultInjector`, the module-global install point production code
  consults through :func:`fault_fire` (a single ``None`` check when no
  plan is installed), and :func:`fault_scope` for plan lifetimes.

See ``docs/architecture.md`` §"Failure modes & degradation" for the fault
taxonomy and which layer tolerates which fault.
"""

from .._lazy import lazy_exports

__all__ = [
    "FAULT_KINDS",
    "KNOWN_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedWorkerCrash",
    "current_fault_plan",
    "current_injector",
    "fault_fire",
    "fault_scope",
    "injected_counts",
    "install_fault_plan",
    "uninstall_fault_plan",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".inject": (
            "FaultInjector", "InjectedWorkerCrash", "current_fault_plan",
            "current_injector", "fault_fire", "fault_scope", "injected_counts",
            "install_fault_plan", "uninstall_fault_plan",
        ),
        ".plan": ("FAULT_KINDS", "KNOWN_SITES", "FaultPlan", "FaultRule"),
    },
)
