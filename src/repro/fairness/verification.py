"""Direct verification that an allocation is max-min fair.

The bottleneck characterization theorem (Bertsekas & Gallager) states that a
feasible allocation is max-min fair iff every session either

* is allocated its full requested demand, or
* has at least one bottleneck link (Definition 1 of the paper): a saturated
  link on which no other session gets a larger rate.

This check is independent of *any* allocation algorithm in the library, which
makes it the strongest oracle available to the property-based tests: both
water-filling and (centralized/distributed) B-Neck results must pass it.

It runs in time linear in the total path length.  One pass over a
:class:`~repro.fairness.bottleneck.LinkTable` records each link's load and its
largest member rate, and a session below its demand has a bottleneck iff some
saturated link on its path has a maximum at most its rate (within tolerance).
"""

from collections import namedtuple

from repro.fairness.algebra import rates_equal
from repro.fairness.bottleneck import LinkTable, at_most


class MaxMinViolation(namedtuple("MaxMinViolation", "kind subject detail")):
    """A reason why an allocation fails to be max-min fair."""

    __slots__ = ()


def verify_allocation(sessions, allocation):
    """Return the list of :class:`MaxMinViolation` for an allocation.

    An empty list means the allocation is max-min fair (and feasible).
    Violation kinds:

    * ``overloaded-link`` -- the allocation exceeds some link capacity;
    * ``demand-exceeded`` -- a session got more than it asked for;
    * ``missing-rate`` -- a session has no assigned rate;
    * ``no-bottleneck`` -- a session is below its demand yet has no bottleneck
      link, so its rate could be increased (not max-min fair).

    Missing rates are reported alone.  Otherwise overloaded links come first,
    in order of first appearance, then the per-session violations in session
    order.
    """
    return verify_allocation_on(LinkTable(sessions), allocation)


def verify_allocation_on(table, allocation):
    """:func:`verify_allocation` of the sessions of a
    :class:`~repro.fairness.bottleneck.LinkTable`."""
    sessions = table.sessions
    violations = [
        MaxMinViolation("missing-rate", session.session_id, "no rate assigned")
        for session in sessions
        if session.session_id not in allocation
    ]
    if violations:
        return violations

    rates = table.rates(allocation)
    loads, maxima = table.loads_and_maxima(rates)
    saturated = []
    for link, load in zip(table.links, loads):
        at_capacity = rates_equal(load, link.capacity)
        saturated.append(at_capacity)
        if load > link.capacity and not at_capacity:
            violations.append(
                MaxMinViolation(
                    "overloaded-link",
                    link.endpoints,
                    "load %.6g exceeds capacity %.6g" % (load, link.capacity),
                )
            )

    for session, rate, demand, path in zip(sessions, rates, table.demands, table.paths):
        demand = float(demand)
        if rates_equal(rate, demand):
            continue
        if rate > demand:
            violations.append(
                MaxMinViolation(
                    "demand-exceeded",
                    session.session_id,
                    "rate %.6g exceeds demand %.6g" % (rate, demand),
                )
            )
        elif not any(saturated[link] and at_most(maxima[link], rate) for link in path):
            violations.append(
                MaxMinViolation(
                    "no-bottleneck",
                    session.session_id,
                    "rate %.6g is below demand %.6g and no path link is a bottleneck"
                    % (rate, demand),
                )
            )
    return violations


def is_max_min_fair(sessions, allocation):
    """True when :func:`verify_allocation` reports no violation."""
    return not verify_allocation(sessions, allocation)
