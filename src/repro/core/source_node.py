"""The SourceNode task (Figure 3 of the paper).

The source node of a session owns the session's *access link* (the dedicated
host-to-router link ``e``): it keeps the same ``R_e``/``F_e``/``mu``/``lambda``
state a RouterLink keeps, but only for its own session, plus

* ``D_s = min(r, C_e)`` -- the effective demand used to start Probe cycles;
* ``update_received`` (the paper's ``upd_rcv``) -- an Update arrived while a
  Probe cycle was in flight, so another cycle must follow;
* ``bottleneck_received`` (the paper's ``bneck_rcv``) -- the session has been
  notified of a (believed) max-min fair rate.

It is the only task that invokes ``API.Rate`` on the application.
"""

from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    Probe,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.state import IDLE, LinkState, WAITING_RESPONSE
from repro.fairness.algebra import rates_equal


class SourceNodeTask(object):
    """Runs the B-Neck source algorithm for one session."""

    def __init__(self, protocol, session):
        self.name = "SN(%s)" % session.session_id
        self.protocol = protocol
        self.session_id = session.session_id
        self.access_link = session.access_link
        self.link_id = self.access_link.endpoints
        self.state = LinkState(self.link_id, self.access_link.capacity)
        # Delay of the access link and of its reverse: set by the protocol.
        self.hop_delay = self.back_delay = None
        # session id -> (next stage, None, per-type counts): set by the protocol.
        self.hops = {}
        self.demand = None                # D_s
        self.update_received = False      # upd_rcv_s
        self.bottleneck_received = False  # bneck_rcv_s
        self.left = False

    # ------------------------------------------------------------- properties

    def current_rate(self):
        """The rate the source currently believes it may use (0 before any
        Response has been received).  B-Neck's transient rates are
        conservative, so this is what Experiment 3 samples."""
        rate = self.state.rate_of(self.session_id)
        return 0.0 if rate is None else rate

    # ----------------------------------------------------------- API handlers

    def api_join(self, requested_rate):
        """Figure 3, lines 3-6 (``API.Join``)."""
        self.state.add_restricted(self.session_id)
        self.demand = min(requested_rate, self.access_link.capacity)
        # In the paper's "modified system" the effective bandwidth of the
        # access link is D_s = min(r, C_e); the source's link state uses it so
        # that Definition 2 (stability) holds for demand-limited sessions.
        self.state.set_capacity(self.demand)
        self.state.set_state(self.session_id, WAITING_RESPONSE)
        self.update_received = False
        self.bottleneck_received = False
        self.protocol.forward_downstream(self, Join(self.session_id, self.demand, self.link_id))

    def api_leave(self):
        """Figure 3, lines 8-9 (``API.Leave``)."""
        self.state.forget(self.session_id)
        self.left = True
        self.protocol.forward_downstream(self, Leave(self.session_id))

    def api_change(self, requested_rate):
        """Figure 3, lines 11-18 (``API.Change``)."""
        self.demand = min(requested_rate, self.access_link.capacity)
        self.state.set_capacity(self.demand)
        if self.state.state_of(self.session_id) == IDLE:
            if self.session_id in self.state.unrestricted:
                self.state.add_restricted(self.session_id)
            self.update_received = False
            self.bottleneck_received = False
            self.state.set_state(self.session_id, WAITING_RESPONSE)
            self.protocol.forward_downstream(self, Probe(self.session_id, self.demand, self.link_id))
        else:
            self.update_received = True

    # -------------------------------------------------------- packet handlers

    # Packets may still be in flight after API.Leave; they concern a session
    # that no longer exists, and each handler drops them.

    def on_update(self, packet):
        """Figure 3, lines 20-25."""
        if self.left:
            return
        if self.state.state_of(self.session_id) == IDLE:
            if self.session_id in self.state.unrestricted:
                self.state.add_restricted(self.session_id)
            self.bottleneck_received = False
            self.state.set_state(self.session_id, WAITING_RESPONSE)
            self.protocol.forward_downstream(self, Probe(self.session_id, self.demand, self.link_id))
        else:
            self.update_received = True

    def on_bottleneck(self, packet):
        """Figure 3, lines 27-31."""
        if self.left:
            return
        if self.state.state_of(self.session_id) == IDLE and not self.bottleneck_received:
            rate = self.state.rate_of(self.session_id)
            self.bottleneck_received = True
            self.protocol.notify_rate(self.session_id, rate)
            demand_is_rate = rates_equal(self.demand, rate)
            if not demand_is_rate and self.demand > rate:
                self.state.add_unrestricted(self.session_id)
            self.protocol.forward_downstream(self, SetBottleneck(self.session_id, demand_is_rate))

    def on_response(self, packet):
        """Figure 3, lines 33-47."""
        if self.left:
            return
        if packet.tau == UPDATE or self.update_received:
            self.update_received = False
            self.bottleneck_received = False
            self.state.set_state(self.session_id, WAITING_RESPONSE)
            self.protocol.forward_downstream(self, Probe(self.session_id, self.demand, self.link_id))
        elif packet.tau == BOTTLENECK:
            self.state.settle(self.session_id, packet.rate)
            self.bottleneck_received = True
            self.protocol.notify_rate(self.session_id, packet.rate)
            demand_is_rate = rates_equal(self.demand, packet.rate)
            if not demand_is_rate and self.demand > packet.rate:
                self.state.add_unrestricted(self.session_id)
            self.protocol.forward_downstream(self, SetBottleneck(self.session_id, demand_is_rate))
        else:  # tau == RESPONSE
            self.state.settle(self.session_id, packet.rate)
            if rates_equal(self.demand, packet.rate):
                self.bottleneck_received = True
                self.protocol.notify_rate(self.session_id, packet.rate)
                self.protocol.forward_downstream(self, SetBottleneck(self.session_id, True))


# Packet class -> the unbound handler a delivery calls; the protocol resolves
# it at send time.
SourceNodeTask.delivery = {
    Update: SourceNodeTask.on_update,
    Bottleneck: SourceNodeTask.on_bottleneck,
    Response: SourceNodeTask.on_response,
}
