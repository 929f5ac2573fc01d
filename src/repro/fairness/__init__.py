"""Max-min fairness theory substrate.

This package contains everything about max-min fairness that is independent of
*how* the rates are computed:

* :mod:`~repro.fairness.algebra` -- :func:`rates_equal` and its two
  tolerances, the one rate equality of the library (protocol, oracles and
  certificate alike), so that "equal rates" is a well-defined notion.
* :mod:`~repro.fairness.allocation` -- the :class:`RateAllocation` result type
  with feasibility and comparison helpers.
* :mod:`~repro.fairness.bottleneck` -- the :class:`LinkTable` that indexes a
  session population by link once for every oracle, and bottleneck analysis
  (Definition 1 of the paper): which links are bottlenecks of which sessions,
  ``R*_e``, ``F*_e`` and ``B*_e``.
* :mod:`~repro.fairness.waterfilling` -- the classic progressive-filling
  (water-filling) algorithm, the tests' independent reference for
  Centralized B-Neck.
* :mod:`~repro.fairness.verification` -- direct, linear-time verification that
  an allocation is max-min fair via the bottleneck characterization theorem.

Rates are floats; given ``Fraction`` capacities and demands the oracles
compute exact rationals instead.
"""

from repro.fairness.algebra import rates_equal
from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import (
    BottleneckAnalysis,
    LinkTable,
    analyze_bottlenecks,
    link_load,
)
from repro.fairness.verification import (
    MaxMinViolation,
    is_max_min_fair,
    verify_allocation,
)
from repro.fairness.waterfilling import water_filling

__all__ = [
    "BottleneckAnalysis",
    "LinkTable",
    "MaxMinViolation",
    "RateAllocation",
    "analyze_bottlenecks",
    "is_max_min_fair",
    "link_load",
    "rates_equal",
    "verify_allocation",
    "water_filling",
]
