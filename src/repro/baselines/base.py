"""Common scaffolding of the non-quiescent baseline protocols.

All three baselines (BFYZ, CG, RCP) follow the same loop:

1. every ``probe_interval`` seconds each session's source emits a control
   packet that travels to the destination and back;
2. every link on the forward path processes the packet through its
   :class:`LinkController` and may lower the packet's explicit rate;
3. when the packet returns, the source adopts the explicit rate (capped by its
   own demand) and schedules the next probe.

Because none of these protocols can detect that the allocation has converged,
the probing never stops: the control-packet rate is constant over time, which
is the defining contrast with B-Neck (Figure 8 of the paper).

Two simulation simplifications keep large sweeps tractable: a whole probe
cycle's link updates are applied in one atomic event at the emission time
(per-hop timestamps are still used for packet accounting), and the source's
rate update fires one path round-trip-time later.  Both are
negligible at the LAN delays used by Experiment 3.
"""

from repro.core.actions import SessionProtocol
from repro.fairness.allocation import RateAllocation

PROBE_PACKET = "Probe"
RESPONSE_PACKET = "Response"


class LinkController(object):
    """Per-link state and rate computation of one baseline protocol."""

    def __init__(self, link):
        self.link = link

    def on_probe(self, session_id, demand, current_rate):
        """Process a forward probe; return the rate this link advertises to the session."""
        raise NotImplementedError

    def on_leave(self, session_id):
        """Forget any per-session state (constant-state controllers ignore this)."""

    def periodic_update(self, crossing_rates, interval):
        """Periodic (per control interval) recomputation from aggregate load.

        ``crossing_rates`` is the list of current rates of the sessions
        crossing this link; controllers that only react to probes ignore it.
        """


class BaselineProtocol(SessionProtocol):
    """A periodically probing, non-quiescent rate allocation protocol.

    Subclasses provide :meth:`_make_controller` returning the protocol-specific
    :class:`LinkController`.  The session lifecycle is
    :class:`~repro.core.actions.SessionProtocol`'s, the same as
    :class:`~repro.core.protocol.BNeckProtocol`'s, so the experiment harnesses
    and the workload generator drive both interchangeably.  The active
    sessions are the registry's: a probe cycle reads the session's effective
    demand from its :class:`~repro.network.session.Session` and stops once
    the session has left the registry.  Per session, a baseline keeps only
    its current rate.  A departed session is released as soon as its leave
    takes effect: the controllers of its access and egress links go with its
    detached hosts.  Capacity changes are refused: a baseline has no
    bottleneck computation to re-run.
    """

    name = "baseline"
    uses_per_session_state = False
    # Controllers that recompute their advertised rate from aggregate load
    # (RCP, CG) need a periodic per-link control loop in addition to probes.
    needs_periodic_updates = False

    def __init__(self, network, tracer=None, probe_interval=1e-3):
        super(BaselineProtocol, self).__init__(network, tracer)
        self.probe_interval = probe_interval
        self._rates = {}
        self.probe_cycles = 0
        self._ticking = False

    # ----------------------------------------------------------- controllers

    def _make_controller(self, link):
        raise NotImplementedError

    def _controller_for(self, link):
        key = link.endpoints
        if key not in self._per_link:
            self._per_link[key] = self._make_controller(link)
        return self._per_link[key]

    # --------------------------------------------------------------- sessions

    def _activate(self, session):
        """Start the session's periodic probe loop."""
        session_id = session.session_id
        self._rates[session_id] = 0.0
        self._ensure_periodic_updates()
        self._probe(session_id)

    def _deactivate(self, session):
        """Stop the session's probe loop, and release it at once."""
        session_id = session.session_id
        self._rates.pop(session_id, None)
        for link in session.links:
            controller = self._per_link.get(link.endpoints)
            if controller is not None:
                controller.on_leave(session_id)
        self._release_departed()

    # ------------------------------------------------------------ probe cycle

    def _probe(self, session_id):
        session = self.registry.get(session_id)
        if session is None:
            return
        demand = session.effective_demand()
        current = self._rates.get(session_id, 0.0)
        now = self.simulator.now
        self.probe_cycles += 1

        tracer = self.tracer
        granted = demand
        elapsed = 0.0
        for link in session.links:
            elapsed += link.control_delay()
            tracer.record(now + elapsed, PROBE_PACKET, session_id)
            controller = self._controller_for(link)
            advertised = controller.on_probe(session_id, demand, current)
            if advertised < granted:
                granted = advertised
        for link in reversed(session.links):
            elapsed += self.network.reverse_link(link).control_delay()
            tracer.record(now + elapsed, RESPONSE_PACKET, session_id)
        granted = max(granted, 0.0)

        def complete():
            self._complete_probe(session_id, granted, elapsed)

        self.simulator.schedule(elapsed, complete, tag="%s.response" % self.name)

    def _complete_probe(self, session_id, granted_rate, round_trip_time):
        session = self.registry.get(session_id)
        if session is None:
            return
        self._rates[session_id] = min(granted_rate, session.effective_demand())
        remaining = max(self.probe_interval - round_trip_time, 0.0)
        self.simulator.schedule(
            remaining, lambda: self._probe(session_id), tag="%s.probe" % self.name
        )

    # ------------------------------------------------------ periodic updates

    def _ensure_periodic_updates(self):
        """Start the per-link control loop (RCP and CG controllers) once."""
        if not self.needs_periodic_updates or self._ticking:
            return
        self._ticking = True
        interval = self.probe_interval
        self.simulator.schedule(
            interval, lambda: self._periodic_tick(interval), tag="%s.tick" % self.name
        )

    def _periodic_tick(self, interval):
        if not self.registry:
            # The loop stops when every session has left; it restarts on the
            # next join.
            self._ticking = False
            return
        rates_by_link = {}
        for session in self.registry.values():
            rate = self._rates.get(session.session_id, 0.0)
            for link in session.links:
                rates_by_link.setdefault(link.endpoints, []).append(rate)
        for key, controller in self._per_link.items():
            controller.periodic_update(rates_by_link.get(key, []), interval)
        self.simulator.schedule(
            interval, lambda: self._periodic_tick(interval), tag="%s.tick" % self.name
        )

    # ---------------------------------------------------------------- results

    def current_allocation(self):
        """The rate each active session is currently using."""
        allocation = RateAllocation()
        for session_id in self.registry:
            allocation.set_rate(session_id, self._rates.get(session_id, 0.0))
        return allocation
