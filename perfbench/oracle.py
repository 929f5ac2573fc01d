"""An independent check of the program's answer after each round.

After a round reaches quiescence the program reports one rate per active
session.  This module recomputes the max-min fair allocation from scratch by
progressive filling over the sessions' paths and link capacities, using the
benchmark's own record of membership and demands, and compares.  It shares no
code with the program's oracles.
"""

import math

RELATIVE_TOLERANCE = 1e-6


def max_min_rates(demands, paths, capacities):
    """Max-min fair rates by progressive filling.

    Args:
        demands: ``{session: requested rate}`` (``math.inf`` for greedy).
        paths: ``{session: [link key, ...]}``.
        capacities: ``{link key: capacity}``.
    """
    remaining = dict(capacities)
    members = {}
    for session, path in paths.items():
        for link in path:
            members.setdefault(link, set()).add(session)
    unfrozen = set(demands)
    rates = {}

    def freeze(session, rate):
        rates[session] = rate
        unfrozen.discard(session)
        for link in paths[session]:
            remaining[link] -= rate
            members[link].discard(session)

    while unfrozen:
        level = min(
            remaining[link] / len(crossing)
            for link, crossing in members.items()
            if crossing
        )
        satisfied = [s for s in sorted(unfrozen) if demands[s] <= level]
        if satisfied:
            # Every session asking for at most the smallest fair share gets
            # its whole demand.
            for session in satisfied:
                freeze(session, demands[session])
            continue
        slack = level * 1e-12
        bottlenecks = [
            link
            for link, crossing in members.items()
            if crossing and remaining[link] / len(crossing) <= level + slack
        ]
        for link in bottlenecks:
            for session in sorted(members[link]):
                freeze(session, level)
    return rates


def check_round(protocol, population):
    """Return ``None`` when the program's allocation is right, else a reason."""
    sessions = {session.session_id: session for session in protocol.active_sessions()}
    if set(sessions) != set(population.demands):
        return "active sessions differ from the %d the benchmark joined" % (
            len(population.demands))
    if not protocol.quiescent:
        return "events still pending after quiescence was reported"
    paths = {}
    capacities = {}
    for session_id, session in sessions.items():
        nodes = session.node_path
        source, destination = population.endpoints[session_id]
        if nodes[1] != source or nodes[-2] != destination:
            return "session %s is not routed between its routers" % session_id
        keys = []
        for index, link in enumerate(session.links):
            if link.endpoints != (nodes[index], nodes[index + 1]):
                return "session %s has a broken path" % session_id
            keys.append(link.endpoints)
            capacities[link.endpoints] = link.capacity
        paths[session_id] = keys
    expected = max_min_rates(population.demands, paths, capacities)
    reported = protocol.current_allocation().as_dict()
    for session_id, rate in expected.items():
        got = reported.get(session_id)
        if got is None or not math.isclose(got, rate, rel_tol=RELATIVE_TOLERANCE):
            return "session %s got rate %r, max-min fair is %r" % (session_id, got, rate)
    return None
