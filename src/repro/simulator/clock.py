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
