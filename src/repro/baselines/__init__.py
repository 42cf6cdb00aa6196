"""Baseline dependence oracles the paper's analysis is compared against.

* :class:`ConservativeOracle` — no pointer information at all (any heap
  write conflicts with any heap access);
* :class:`RegionOracle` — Lucassen–Gifford-style region/effect precision
  (disjoint structures are distinguished; parts of the same structure are
  not).

Both plug into :func:`repro.parallel.parallelize_program` in place of the
default :class:`~repro.parallel.oracle.PathMatrixOracle`.
"""

from .._lazy import lazy_exports

__all__ = ["ConservativeOracle", "RegionOracle"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".conservative": ("ConservativeOracle",),
        ".regions": ("RegionOracle",),
    },
)
