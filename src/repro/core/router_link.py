"""The RouterLink task (Figure 2 of the paper).

One RouterLink instance controls one directed link and keeps per-session state
for every session whose path crosses the link, in a
:class:`~repro.core.state.LinkState`.  Its handlers are a line-by-line
transcription of Figure 2, with four presentational differences:

* rates are floats, so ``==``/``<`` are the tolerance compares of
  :mod:`repro.fairness.algebra`, written inline as :mod:`repro.core.state`
  writes them: ``a == b`` is ``isclose(a, b, rel_tol=REL_TOL,
  abs_tol=ABS_TOL)`` and ``a < b`` is ``a < b and not isclose(...)``, so no
  compare puts a frame on a packet's path;
* a handler makes one call to the link state per delivery, which keeps
  ``B_e`` as its attribute ``bottleneck_rate``, answers a Bottleneck's test
  in one query (``idle_restricted``: IDLE in ``R_e``) and performs each of
  Figure 2's transitions whole: ``await_response`` (a Join or Probe
  arrives: the session joins ``R_e`` as WAITING_RESPONSE, then lines 4-10
  run), ``settle`` and ``refuse`` (an accepted or a refused Response; both
  also answer line 25's test), ``set_state`` (a Response already turned
  into an Update), ``wake`` (an Update: IDLE to WAITING_PROBE),
  ``set_bottleneck`` (lines 45-55: line 46's test, or the move to ``F_e``)
  and ``leave`` (lines 57-62).  The transitions that wake sessions return
  them sorted, and the handler sends each an Update.  A capacity change
  goes through ``set_capacity``, so ``B_e`` follows it, then runs
  ``process_new_restricted`` (lines 4-10);
* a hop forwards the packet object it was given, as Figure 2 forwards the
  message: a delivered packet belongs to the one handler running it, which
  changes at most its ``lambda``/``eta`` (a Join or Probe clamped to
  ``B_e``), its ``tau``/``eta`` (a Response) or its ``beta`` (a
  SetBottleneck) before sending it on.  Only the Updates and Bottlenecks a
  RouterLink sends to *other* sessions are new objects;
* packet forwarding is delegated to the protocol orchestrator
  (:class:`~repro.core.protocol.BNeckProtocol`): a handler calls its
  ``forward_downstream``/``forward_upstream`` with the task itself as the
  sender.  The orchestrator finds the next or previous stage of the
  packet's session, and the session's packet counts, in the task's
  ``hops`` row for the session, which it builds when the session joins and
  drops when it releases the session.  A hop's delay is the sender's
  ``hop_delay`` or the target's ``back_delay``, which the orchestrator
  stored on the stages when it wired them.  The orchestrator looks the
  packet's handler up in the target's :attr:`RouterLinkTask.delivery` table
  when it sends, so a delivery calls the ``on_*`` handler directly.
"""

from math import isclose

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
from repro.core.state import IDLE, WAITING_PROBE, LinkState
from repro.fairness.algebra import ABSOLUTE_TOLERANCE as ABS_TOL
from repro.fairness.algebra import RELATIVE_TOLERANCE as REL_TOL


class RouterLinkTask(object):
    """Runs the B-Neck link algorithm for one directed link."""

    def __init__(self, protocol, link):
        self.name = "RL(%s->%s)" % link.endpoints
        self.protocol = protocol
        self.link_id = link.endpoints
        self.state = LinkState(self.link_id, link.capacity)
        # Delay of this link and of its reverse: set by the protocol.
        self.hop_delay = self.back_delay = None
        # session id -> (next stage, previous stage, per-type counts): the
        # hop row of each session crossing the link, kept by the protocol.
        self.hops = {}

    # ---------------------------------------------------------------- handlers

    def on_join(self, packet):
        """Figure 2, lines 12-16."""
        state = self.state
        for other_id in state.await_response(packet.session_id):
            self.protocol.forward_upstream(self, Update(other_id))
        # Forward the Join, lowered to B_e (naming this link as the
        # restriction) when its rate exceeds B_e.
        rate = state.bottleneck_rate
        if packet.rate > rate and not isclose(packet.rate, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            packet.rate = rate
            packet.restricting_link = self.link_id
        self.protocol.forward_downstream(self, packet)

    def on_probe(self, packet):
        """Figure 2, lines 30-36."""
        state = self.state
        session_id = packet.session_id
        # Links are FIFO and a source probes only after its Join's Response
        # and never after its Leave, so the Join has registered the session
        # here and no Leave has removed it.
        assert session_id in state.restricted or session_id in state.unrestricted, (
            "Probe of session %r, unknown at link %r" % (session_id, self.link_id)
        )
        for other_id in state.await_response(session_id):
            self.protocol.forward_upstream(self, Update(other_id))
        # Forward the Probe, clamped to B_e as a Join is.
        rate = state.bottleneck_rate
        if packet.rate > rate and not isclose(packet.rate, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            packet.rate = rate
            packet.restricting_link = self.link_id
        self.protocol.forward_downstream(self, packet)

    def on_response(self, packet):
        """Figure 2, lines 18-28."""
        state = self.state
        session_id = packet.session_id
        if packet.tau == UPDATE:
            state.set_state(session_id, WAITING_PROBE)
        else:
            rate = packet.rate
            local_rate = state.bottleneck_rate
            if packet.restricting_link == self.link_id:
                accepted = isclose(rate, local_rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            else:
                accepted = rate <= local_rate or isclose(
                    rate, local_rate, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            if accepted:
                settled = state.settle(session_id, rate)
            else:
                # Either this link believed it was the restriction but its
                # bottleneck rate changed meanwhile, or the rate now exceeds
                # the local bottleneck rate: ask for a new Probe cycle.
                packet.tau = UPDATE
                settled = state.refuse(session_id)
            if settled:
                packet.tau = BOTTLENECK
                packet.restricting_link = self.link_id
                for other_id in sorted(state.restricted):
                    if other_id != session_id:
                        self.protocol.forward_upstream(self, Bottleneck(other_id))
        self.protocol.forward_upstream(self, packet)

    def on_update(self, packet):
        """Figure 2, lines 38-40."""
        if self.state.wake(packet.session_id):
            self.protocol.forward_upstream(self, packet)

    def on_bottleneck(self, packet):
        """Figure 2, lines 42-43."""
        if self.state.idle_restricted(packet.session_id):
            self.protocol.forward_upstream(self, packet)

    def on_set_bottleneck(self, packet):
        """Figure 2, lines 45-55."""
        woken = self.state.set_bottleneck(packet.session_id)
        if woken is None:
            # A new Probe cycle for the session is already under way at this
            # link, or its recorded rate exceeds B_e: the stale SetBottleneck
            # is dropped.
            return
        if woken is True:
            # This link is itself a bottleneck, so a bottleneck exists for the
            # session: forward with beta = TRUE.
            packet.found_bottleneck = True
        else:
            # Below B_e the session moved to F_e, and the sessions settled at
            # the old bottleneck rate were woken, since B_e can only grow.
            for other_id in woken:
                self.protocol.forward_upstream(self, Update(other_id))
        self.protocol.forward_downstream(self, packet)

    # --------------------------------------------------- capacity dynamics

    def capacity_changed(self, new_capacity):
        """Re-run the bottleneck computation after ``C_e`` changed mid-flight.

        Not part of Figure 2 -- link-capacity dynamics are an extension -- but
        built entirely from the paper's own repair machinery, so the protocol
        converges back to the max-min allocation of the *updated* network:

        * a capacity drop can pull previously unrestricted sessions back under
          this link's bottleneck rate;
          :meth:`~repro.core.state.LinkState.process_new_restricted` moves
          them from ``F_e`` into ``R_e`` exactly as a new restriction would;
        * every settled session in ``R_e`` then holds a rate computed for the
          old capacity (too high after a drop, too low after a raise), so each
          is asked to run a fresh Probe cycle via an upstream Update -- the
          same wake-up a Leave sends to its co-bottlenecked sessions.

        Sessions already mid-cycle (``WAITING_*``) need no wake-up: their
        in-flight Response is checked against the *new* ``B_e`` when it
        arrives (``on_response`` re-probes on any mismatch).
        """
        state = self.state
        state.set_capacity(new_capacity)
        if not state.restricted and not state.unrestricted:
            return
        load = state.unrestricted_load()
        if (
            not state.restricted
            and load > new_capacity
            and not isclose(load, new_capacity, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            # With R_e empty, B_e is infinite and process_new_restricted is
            # inert -- yet a deep capacity drop can leave the F_e load alone
            # exceeding C_e.  Seed the recomputation by pulling the
            # largest-rated F_e session back under this link's control
            # (smallest id on ties, for determinism); B_e turns finite and
            # the standard offender cascade below takes over.
            rated = state.unrestricted_rated()
            if rated:
                largest = max(rate for _session_id, rate in rated)
                victim = min(
                    session_id
                    for session_id, rate in rated
                    if isclose(rate, largest, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                )
                state.add_restricted(victim)
        for session_id in state.process_new_restricted():
            self.protocol.forward_upstream(self, Update(session_id))
        rate = state.bottleneck_rate
        for session_id in sorted(state.restricted):
            if state.state_of(session_id) == IDLE and not isclose(
                state.rate_of(session_id) or 0.0, rate, rel_tol=REL_TOL, abs_tol=ABS_TOL
            ):
                state.wake(session_id)
                self.protocol.forward_upstream(self, Update(session_id))

    def on_leave(self, packet):
        """Figure 2, lines 57-62."""
        for other_id in self.state.leave(packet.session_id):
            self.protocol.forward_upstream(self, Update(other_id))
        self.protocol.forward_downstream(self, packet)


# Packet class -> the unbound handler a delivery calls; the protocol resolves
# it at send time.
RouterLinkTask.delivery = {
    Join: RouterLinkTask.on_join,
    Probe: RouterLinkTask.on_probe,
    Response: RouterLinkTask.on_response,
    Update: RouterLinkTask.on_update,
    Bottleneck: RouterLinkTask.on_bottleneck,
    SetBottleneck: RouterLinkTask.on_set_bottleneck,
    Leave: RouterLinkTask.on_leave,
}
