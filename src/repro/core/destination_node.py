"""The DestinationNode task (Figure 4 of the paper).

The destination node closes Probe cycles (turning a ``Join``/``Probe`` into an
upstream ``Response``) and detects the no-bottleneck-found condition: when a
``SetBottleneck`` arrives with ``beta`` still false, the network changed while
the packet was travelling and the session must run a new Probe cycle, which the
destination requests with an upstream ``Update``.
"""

from repro.core.packets import (
    Join,
    Leave,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    Update,
)


class DestinationNodeTask(object):
    """Runs the B-Neck destination algorithm for one session."""

    def __init__(self, protocol, session):
        self.name = "DN(%s)" % session.session_id
        self.protocol = protocol
        # The destination sits past the last link of the path.
        self.link_id = ("destination", session.session_id)
        # session id -> (None, previous stage, per-type counts): set by the protocol.
        self.hops = {}
        self.closed_probe_cycles = 0
        self.no_bottleneck_updates = 0
        self.left = False

    # Packets may still be in flight after a Leave; each handler drops them.

    def on_probe_cycle_end(self, message):
        """Figure 4, lines 3-7: close the Probe cycle."""
        if self.left:
            return
        self.closed_probe_cycles += 1
        self.protocol.forward_upstream(
            self, Response(message.session_id, RESPONSE, message.rate, message.restricting_link)
        )

    def on_set_bottleneck(self, message):
        """Figure 4, lines 9-10: no link confirmed a bottleneck -> re-probe."""
        if self.left:
            return
        if not message.found_bottleneck:
            self.no_bottleneck_updates += 1
            self.protocol.forward_upstream(self, Update(message.session_id))

    def on_leave(self, message):
        self.left = True


# Packet class -> the unbound handler a delivery calls; the protocol resolves
# it at send time.
DestinationNodeTask.delivery = {
    Join: DestinationNodeTask.on_probe_cycle_end,
    Probe: DestinationNodeTask.on_probe_cycle_end,
    SetBottleneck: DestinationNodeTask.on_set_bottleneck,
    Leave: DestinationNodeTask.on_leave,
}
