"""Centralized B-Neck (Figure 1 of the paper).

The centralized algorithm discovers bottleneck links iteratively, in increasing
order of their bottleneck rates: at every round it computes, for each remaining
link, the estimate ``B_e = (C_e - sum of already-fixed rates crossing e) / |R_e|``,
fixes the rate of every session crossing a link whose estimate is minimal, and
removes those links from consideration.

It is used exactly as in the paper's evaluation: "every B-Neck execution result
... has been successfully validated against the result obtained when executing
the centralized version with the same input data".

Maximum-rate requests are handled through the paper's *modified system*: each
session with a finite requested rate gets a private virtual link of capacity
``D_s = min(r_s, C_e0)`` prepended to its path.

Cost: the estimates live in a lazy-deletion binary heap keyed
``(B_e, first-seen link index)``, and a round recomputes only the links crossed
by the sessions it fixed.  Every session is fixed once, so one call costs
O(sum of |pi(s)| * log L) for L links instead of a rescan of every link per
round.
"""

import heapq
import math

from repro.fairness.algebra import default_algebra
from repro.fairness.allocation import OracleError, RateAllocation


def _build_link_table(sessions, algebra):
    """Index the links of the modified system in order of first appearance.

    Returns ``(capacities, members, paths)``: per link index, the capacity
    lifted into the algebra's number type (so division chains stay exact
    under ExactAlgebra) and the positions of the sessions crossing it; per
    session position, the indices of its links.  The virtual demand link of a
    session is private to it.
    """
    index = {}
    capacities = []
    members = []
    paths = []
    for position, session in enumerate(sessions):
        path = []
        for link in session.links:
            link_index = index.setdefault(link.endpoints, len(capacities))
            if link_index == len(capacities):
                capacities.append(algebra.divide(link.capacity, 1))
                members.append([])
            members[link_index].append(position)
            path.append(link_index)
        demand = session.effective_demand()
        if not math.isinf(demand):
            path.append(len(capacities))
            capacities.append(algebra.divide(demand, 1))
            members.append([position])
        paths.append(path)
    return capacities, members, paths


def centralized_bneck(sessions, algebra=None):
    """Compute the max-min fair rates of ``sessions`` with Centralized B-Neck.

    Args:
        sessions: iterable of :class:`~repro.network.session.Session`.
        algebra: optional :class:`~repro.fairness.algebra.RateAlgebra`.

    Returns:
        A :class:`~repro.fairness.allocation.RateAllocation`.

    Raises:
        OracleError: when some session crosses no link at all.
    """
    algebra = algebra or default_algebra()
    sessions = list(sessions)
    allocation = RateAllocation(algebra=algebra)
    if not sessions:
        return allocation

    capacities, members, paths = _build_link_table(sessions, algebra)
    # Per link: |R_e| (zero once the link is removed) and the load of the
    # already-fixed sessions crossing it (the F_e sum).  Every session fixed in
    # a round gets the same minimal rate, so F_e grows by ``minimum * moved``.
    unfixed = [len(positions) for positions in members]
    fixed_load = [0] * len(capacities)
    estimates = [algebra.divide(c, n) for c, n in zip(capacities, unfixed)]
    heap = [(estimate, link) for link, estimate in enumerate(estimates)]
    heapq.heapify(heap)
    rates = [None] * len(sessions)

    while heap:
        minimum, link = heapq.heappop(heap)
        if not unfixed[link] or estimates[link] != minimum:
            continue                                   # stale heap entry
        # The round's minimal links: every live estimate equal to the minimum.
        minimal = [link]
        while heap:
            estimate, other = heap[0]
            if unfixed[other] and estimates[other] == estimate:
                if not algebra.equal(estimate, minimum):
                    break
                minimal.append(other)
            heapq.heappop(heap)
        for link in minimal:
            unfixed[link] = 0
        moved = {}
        for link in minimal:
            for position in members[link]:
                if rates[position] is None:
                    rates[position] = minimum
                    for crossed in paths[position]:
                        if unfixed[crossed]:
                            moved[crossed] = moved.get(crossed, 0) + 1
        for crossed, count in moved.items():
            fixed_load[crossed] = fixed_load[crossed] + minimum * count
            unfixed[crossed] -= count
            if unfixed[crossed]:
                estimates[crossed] = algebra.divide(
                    capacities[crossed] - fixed_load[crossed], unfixed[crossed]
                )
                heapq.heappush(heap, (estimates[crossed], crossed))

    unresolved = [s.session_id for s, rate in zip(sessions, rates) if rate is None]
    if unresolved:
        raise OracleError("centralized B-Neck", unresolved, "sessions cross no link")
    for session, rate in zip(sessions, rates):
        allocation.set_rate(session.session_id, rate)
    return allocation
