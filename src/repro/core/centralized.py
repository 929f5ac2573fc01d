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
``D_s = min(r_s, C_e0)`` added to its path.

The links and their members come from a
:class:`~repro.fairness.bottleneck.LinkTable`, the one index that validation
shares between both oracles and the max-min certificate.  Estimates are plain
``/`` divisions and fixed loads start at integer ``0``, so ``Fraction``
capacities and demands give exact rates.

Cost: the estimates live in a lazy-deletion binary heap keyed
``(B_e, link index)``, and a round recomputes only the links crossed by the
sessions it fixed.  Every session is fixed once, so one call costs
O(sum of |pi(s)| * log L) for L links instead of a rescan of every link per
round.
"""

import heapq
import math

from repro.fairness.algebra import rates_equal
from repro.fairness.allocation import OracleError, RateAllocation
from repro.fairness.bottleneck import LinkTable


def centralized_bneck(sessions):
    """Compute the max-min fair rates of ``sessions`` with Centralized B-Neck.

    Args:
        sessions: iterable of :class:`~repro.network.session.Session`.

    Returns:
        A :class:`~repro.fairness.allocation.RateAllocation`.

    Raises:
        OracleError: when some session crosses no link at all.
    """
    return centralized_bneck_on(LinkTable(sessions))


def centralized_bneck_on(table):
    """:func:`centralized_bneck` of the sessions of a
    :class:`~repro.fairness.bottleneck.LinkTable`."""
    sessions = table.sessions
    allocation = RateAllocation()
    if not sessions:
        return allocation

    # The modified system: each session with a finite demand gets a private
    # virtual link of capacity D_s, indexed after the table's links.
    capacities = list(table.capacities)
    members = list(table.members)
    paths = []
    for position, (path, demand) in enumerate(zip(table.paths, table.demands)):
        if not math.isinf(demand):
            path = path + [len(capacities)]
            capacities.append(demand)
            members.append([position])
        paths.append(path)
    # Per link: |R_e| (zero once the link is removed) and the load of the
    # already-fixed sessions crossing it (the F_e sum).  Every session fixed in
    # a round gets the same minimal rate, so F_e grows by ``minimum * moved``.
    unfixed = [len(positions) for positions in members]
    fixed_load = [0] * len(capacities)
    estimates = [c / n for c, n in zip(capacities, unfixed)]
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
                if not rates_equal(estimate, minimum):
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
                estimates[crossed] = (capacities[crossed] - fixed_load[crossed]) / unfixed[crossed]
                heapq.heappush(heap, (estimates[crossed], crossed))

    unresolved = [s.session_id for s, rate in zip(sessions, rates) if rate is None]
    if unresolved:
        raise OracleError("centralized B-Neck", unresolved, "sessions cross no link")
    for session, rate in zip(sessions, rates):
        allocation.set_rate(session.session_id, rate)
    return allocation
