"""Network stability (Definition 2 of the paper) and quiescence checking.

Definition 2: a link ``e`` is *stable* when every session it knows is IDLE,
every session in ``R_e`` is recorded at exactly ``B_e`` and, when ``R_e`` is
not empty, every session in ``F_e`` is recorded below ``B_e``.  The *network*
is stable when every link is stable and no B-Neck packet is in transit or being
processed.

Because the simulator executes handlers atomically and every packet in
transit is one queued delivery tagged with its packet type, "no packet in
transit" is equivalent to "no such delivery is queued", which the protocol's
``in_flight_packets`` recounts.
Permanent stability implies quiescence (Lemma 1), and stability implies the
recorded rates are the max-min fair rates (Lemma 2); the test suite checks both
by combining :func:`check_stability` with the centralized oracle.
"""


class StabilityReport(object):
    """The outcome of a stability check."""

    def __init__(self, stable, unstable_links, in_flight_packets, checked_links):
        self.stable = stable
        self.unstable_links = unstable_links
        self.in_flight_packets = in_flight_packets
        self.checked_links = checked_links

    def __bool__(self):
        return self.stable

    def __repr__(self):
        return (
            "StabilityReport(stable=%r, unstable_links=%d, in_flight=%d, checked=%d)"
            % (self.stable, len(self.unstable_links), self.in_flight_packets, self.checked_links)
        )


def check_stability(protocol):
    """Evaluate Definition 2 on a running :class:`~repro.core.protocol.BNeckProtocol`.

    Returns a :class:`StabilityReport`; the report is truthy iff the network is
    stable *and* no control packet is in flight.
    """
    unstable = []
    checked = 0
    for link_state in protocol.all_link_states():
        checked += 1
        if not link_state.is_stable():
            unstable.append(link_state.link_id)
    in_flight = protocol.in_flight_packets
    stable = not unstable and in_flight == 0
    return StabilityReport(
        stable=stable,
        unstable_links=unstable,
        in_flight_packets=in_flight,
        checked_links=checked,
    )
