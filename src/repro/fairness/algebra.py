"""Rate equality within tolerance.

Max-min fair rates are produced by chains of subtractions and divisions
(``Be = (Ce - sum(rates)) / |Re|``), and both the centralized and the
distributed algorithms compare rates for *equality* ("all the sessions ... have
been assigned the same rate").  With IEEE floats those equalities only hold up
to rounding error, so every rate compare in the library -- the protocol
(:mod:`repro.core.state`), the oracles, the max-min certificate and
:class:`~repro.fairness.allocation.RateAllocation` -- goes through
:func:`rates_equal` with the two tolerances below:

* ``a == b`` is ``rates_equal(a, b)``;
* ``a > b`` is ``a > b and not rates_equal(a, b)``;
* ``a <= b`` is ``a <= b or rates_equal(a, b)``.

The relative tolerance of ``1e-9`` is far below any meaningful rate difference
(1 bit/s on a 100 Mbps link is 1e-8 relative) but far above accumulated IEEE
rounding error for the division depths reached in realistic topologies.

The oracles divide with plain ``/`` and start their loads at integer ``0``, so
given :class:`fractions.Fraction` capacities and demands they compute exact
rational rates.
"""

from math import isclose

RELATIVE_TOLERANCE = 1e-9
ABSOLUTE_TOLERANCE = 1e-6


def rates_equal(first, second):
    """Rate equality within :data:`RELATIVE_TOLERANCE`/:data:`ABSOLUTE_TOLERANCE`."""
    return first == second or isclose(
        first, second, rel_tol=RELATIVE_TOLERANCE, abs_tol=ABSOLUTE_TOLERANCE
    )
