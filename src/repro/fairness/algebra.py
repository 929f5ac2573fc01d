"""Pluggable rate arithmetic.

Max-min fair rates are produced by chains of subtractions and divisions
(``Be = (Ce - sum(rates)) / |Re|``), and both the centralized and the
distributed algorithms compare rates for *equality* ("all the sessions ... have
been assigned the same rate").  With IEEE floats those equalities only hold up
to rounding error, so the oracles (centralized B-Neck, water-filling, the
max-min certificate), rate allocations and the baseline protocols compare
through a :class:`RateAlgebra`:

* :class:`FloatAlgebra` (the default) compares with a relative tolerance;
* :class:`ExactAlgebra` lifts every division into :class:`fractions.Fraction`
  so equalities are exact -- used by the correctness tests.

The distributed B-Neck protocol itself always runs on floats: it inlines
:class:`FloatAlgebra`'s comparisons with the same two tolerances
(:data:`RELATIVE_TOLERANCE`, :data:`ABSOLUTE_TOLERANCE`; see
:mod:`repro.core.state`), so it decides exactly as ``FloatAlgebra()`` would.
"""

import fractions
import math

# Bound at module level: these run millions of times inside the simulation
# hot path, where repeated attribute lookups on ``math`` are measurable.
_isclose = math.isclose
_isinf = math.isinf

# The default float tolerances, shared with the protocol's inlined compares.
RELATIVE_TOLERANCE = 1e-9
ABSOLUTE_TOLERANCE = 1e-6


class RateAlgebra(object):
    """Comparison and division rules shared by all allocation algorithms."""

    def divide(self, numerator, denominator):
        """Return ``numerator / denominator`` in this algebra's number type."""
        raise NotImplementedError

    def equal(self, first, second):
        """Rate equality."""
        raise NotImplementedError

    def less(self, first, second):
        """Strict "first < second" (must be consistent with :meth:`equal`)."""
        raise NotImplementedError

    # Derived comparisons -------------------------------------------------

    def less_equal(self, first, second):
        return self.less(first, second) or self.equal(first, second)

    def greater(self, first, second):
        return self.less(second, first)

    def greater_equal(self, first, second):
        return self.less_equal(second, first)

    def is_zero(self, value):
        return self.equal(value, 0.0)

    def minimum(self, values):
        """Minimum of a non-empty iterable under this algebra's ordering."""
        iterator = iter(values)
        try:
            best = next(iterator)
        except StopIteration:
            raise ValueError("minimum() of an empty sequence")
        for value in iterator:
            if self.less(value, best):
                best = value
        return best


class FloatAlgebra(RateAlgebra):
    """Floating-point rates compared with a relative tolerance.

    The default tolerance of ``1e-9`` (relative) is far below any meaningful
    rate difference (1 bit/s on a 100 Mbps link is 1e-8 relative) but far above
    accumulated IEEE rounding error for the division depths reached in
    realistic topologies.
    """

    def __init__(self, relative_tolerance=RELATIVE_TOLERANCE,
                 absolute_tolerance=ABSOLUTE_TOLERANCE):
        self.relative_tolerance = relative_tolerance
        self.absolute_tolerance = absolute_tolerance

    def divide(self, numerator, denominator):
        return numerator / denominator

    def equal(self, first, second):
        if first == second:
            return True
        if _isinf(first) or _isinf(second):
            return False
        return _isclose(
            first,
            second,
            rel_tol=self.relative_tolerance,
            abs_tol=self.absolute_tolerance,
        )

    def less(self, first, second):
        return first < second and not self.equal(first, second)

    def __repr__(self):
        return "FloatAlgebra(rel=%g, abs=%g)" % (
            self.relative_tolerance,
            self.absolute_tolerance,
        )


class ExactAlgebra(RateAlgebra):
    """Exact rational arithmetic (``fractions.Fraction``).

    Inputs may be ints, floats or Fractions; every division produces a
    Fraction, so equality comparisons are exact.  Infinite demands are handled
    specially since Fractions cannot represent infinity.
    """

    def _lift(self, value):
        if isinstance(value, fractions.Fraction):
            return value
        if isinstance(value, float) and math.isinf(value):
            return value
        return fractions.Fraction(value)

    def divide(self, numerator, denominator):
        return self._lift(numerator) / self._lift(denominator)

    def equal(self, first, second):
        first_is_inf = isinstance(first, float) and math.isinf(first)
        second_is_inf = isinstance(second, float) and math.isinf(second)
        if first_is_inf or second_is_inf:
            return first == second
        return self._lift(first) == self._lift(second)

    def less(self, first, second):
        first_is_inf = isinstance(first, float) and math.isinf(first)
        second_is_inf = isinstance(second, float) and math.isinf(second)
        if first_is_inf:
            return False
        if second_is_inf:
            return True
        return self._lift(first) < self._lift(second)

    def __repr__(self):
        return "ExactAlgebra()"


_DEFAULT = FloatAlgebra()


def default_algebra():
    """The library-wide default: :class:`FloatAlgebra` with standard tolerances."""
    return _DEFAULT
