"""Summary statistics for the experiment figures.

Figure 7 of the paper reports, at fixed sampling instants, the 10th percentile,
median, 90th percentile and mean of the relative rate error across sessions.
These helpers compute exactly those aggregates without pulling in plotting
dependencies.
"""

import math
from collections import namedtuple


def percentile(values, fraction):
    """Return the ``fraction``-quantile of ``values`` by linear interpolation.

    ``fraction`` is in ``[0, 1]``; an empty input raises ``ValueError``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1], got %r" % fraction)
    data = sorted(values)
    if not data:
        raise ValueError("cannot take the percentile of an empty sequence")
    if len(data) == 1:
        return data[0]
    position = fraction * (len(data) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return data[lower]
    weight = position - lower
    return data[lower] * (1.0 - weight) + data[upper] * weight


def mean(values):
    """Arithmetic mean; raises ``ValueError`` on empty input."""
    data = list(values)
    if not data:
        raise ValueError("cannot take the mean of an empty sequence")
    return sum(data) / float(len(data))


class SummaryStatistics(namedtuple("SummaryStatistics",
                                     "count mean median p10 p90 minimum maximum")):
    """The aggregate the paper plots: 10th/50th/90th percentiles and mean."""

    __slots__ = ()


def summarize(values):
    """Build a :class:`SummaryStatistics` from a non-empty sequence."""
    data = sorted(values)
    if not data:
        raise ValueError("cannot summarize an empty sequence")
    return SummaryStatistics(
        count=len(data),
        mean=mean(data),
        median=percentile(data, 0.5),
        p10=percentile(data, 0.1),
        p90=percentile(data, 0.9),
        minimum=data[0],
        maximum=data[-1],
    )
