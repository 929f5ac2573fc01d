"""Time-unit helpers.

The simulator clock is a plain ``float`` measured in **seconds**.  The paper
reports its results in microseconds and milliseconds, so these helpers make the
experiment code read like the paper ("sessions join during the first
millisecond", "propagation delay of 1 microsecond", ...).
"""

SECOND = 1.0
MILLISECOND = 1e-3
MICROSECOND = 1e-6


def seconds(value):
    """Return ``value`` seconds expressed in simulator time units."""
    return float(value) * SECOND


def milliseconds(value):
    """Return ``value`` milliseconds expressed in simulator time units."""
    return float(value) * MILLISECOND


def microseconds(value):
    """Return ``value`` microseconds expressed in simulator time units."""
    return float(value) * MICROSECOND


def format_time(time_value):
    """Format a simulator time with a human-friendly unit.

    >>> format_time(0.0025)
    '2.500 ms'
    >>> format_time(3e-6)
    '3.000 us'
    """
    if time_value >= SECOND:
        return "%.3f s" % time_value
    if time_value >= MILLISECOND:
        return "%.3f ms" % (time_value / MILLISECOND)
    return "%.3f us" % (time_value / MICROSECOND)
