"""Classic water-filling (progressive filling) max-min fair allocation.

This is the textbook algorithm of Bertsekas & Gallager that the paper cites as
"the Water-Filling algorithm [6], [18]" and uses to validate every B-Neck run.
It is intentionally implemented differently from the Centralized B-Neck of
Figure 1 (which discovers bottlenecks in increasing rate order) so that the two
serve as independent oracles for each other in the test suite.

The algorithm: grow the rate of every unfrozen session at the same pace (the
common *level*); a session freezes when one of its links saturates or when it
reaches its own maximum requested rate.  Repeat until every session is frozen.

The filling is event-driven rather than stepped.  Sessions are pre-sorted by
effective demand and consumed through a pointer, and each link's saturation
level ``(C_e - frozen load) / unfrozen members`` sits in a lazy-deletion heap,
so the level jumps straight to the next demand or saturation event.  Freezing a
session updates only the links it crosses, and one call costs
O(sum of |pi(s)| * log L) for L links.

The links and their members come from a
:class:`~repro.fairness.bottleneck.LinkTable`, the index Centralized B-Neck
and the max-min certificate read too.  Levels are plain ``/`` divisions and
frozen loads start at integer ``0``, so ``Fraction`` capacities and demands
give exact rates.
"""

import heapq
import math

from repro.fairness.allocation import OracleError, RateAllocation
from repro.fairness.bottleneck import LinkTable, at_most


def water_filling(sessions):
    """Compute the max-min fair allocation of ``sessions``.

    Args:
        sessions: iterable of :class:`~repro.network.session.Session`.  Each
            session's path links carry the capacities; each session's
            ``effective_demand()`` bounds its rate.

    Returns:
        A :class:`~repro.fairness.allocation.RateAllocation` with one entry per
        session.

    Raises:
        OracleError: when unfrozen sessions have infinite demands and cross
            only infinite-capacity links, so the level never stops growing.
    """
    table = LinkTable(sessions)
    sessions = table.sessions
    allocation = RateAllocation()
    if not sessions:
        return allocation

    capacity = table.capacities
    members = table.members
    paths = table.paths
    demands = table.demands
    by_demand = sorted(range(len(sessions)), key=demands.__getitem__)

    active = [len(positions) for positions in members]    # unfrozen members
    frozen_load = [0] * len(capacity)
    saturation = [c / n for c, n in zip(capacity, active)]
    heap = [(level, link) for link, level in enumerate(saturation)]
    heapq.heapify(heap)
    rates = [None] * len(sessions)

    def freeze(position, level):
        rates[position] = level
        for link in paths[position]:
            frozen_load[link] = frozen_load[link] + level
            active[link] -= 1
            if active[link]:
                saturation[link] = (capacity[link] - frozen_load[link]) / active[link]
                heapq.heappush(heap, (saturation[link], link))

    def live_heap_top():
        # Drop entries of links that changed level or have no unfrozen member.
        while heap and (not active[heap[0][1]] or saturation[heap[0][1]] != heap[0][0]):
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    pointer = 0
    while True:
        while pointer < len(by_demand) and rates[by_demand[pointer]] is not None:
            pointer += 1
        if pointer == len(by_demand):
            break
        level = min(demands[by_demand[pointer]], live_heap_top())
        if math.isinf(level):
            unresolved = [s.session_id for s, rate in zip(sessions, rates) if rate is None]
            raise OracleError("water-filling", unresolved, "unconstrained sessions remain")
        # Freeze every session whose demand the level reached, then every
        # member of every link it saturates (cascading within the level).
        while pointer < len(by_demand) and at_most(demands[by_demand[pointer]], level):
            if rates[by_demand[pointer]] is None:
                freeze(by_demand[pointer], level)
            pointer += 1
        while at_most(live_heap_top(), level):
            link = heapq.heappop(heap)[1]
            for position in members[link]:
                if rates[position] is None:
                    freeze(position, level)

    for session, rate in zip(sessions, rates):
        allocation.set_rate(session.session_id, rate)
    return allocation
