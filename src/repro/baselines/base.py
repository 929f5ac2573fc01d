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

import math

from repro.fairness.algebra import default_algebra
from repro.fairness.allocation import RateAllocation
from repro.network.routing import PathComputer, path_links
from repro.network.session import Session, SessionRegistry
from repro.simulator.simulation import Simulator
from repro.simulator.tracing import NullPacketTracer, PacketTracer

PROBE_PACKET = "Probe"
RESPONSE_PACKET = "Response"


class LinkController(object):
    """Per-link state and rate computation of one baseline protocol."""

    def __init__(self, link, algebra):
        self.link = link
        self.algebra = algebra

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


class ProbeCycleResult(object):
    """Outcome of one probe cycle: the granted rate and the cycle's RTT."""

    __slots__ = ("session_id", "granted_rate", "round_trip_time")

    def __init__(self, session_id, granted_rate, round_trip_time):
        self.session_id = session_id
        self.granted_rate = granted_rate
        self.round_trip_time = round_trip_time

    def __repr__(self):
        return "ProbeCycleResult(%r, rate=%.4g, rtt=%.3g)" % (
            self.session_id,
            self.granted_rate,
            self.round_trip_time,
        )


class BaselineProtocol(object):
    """A periodically probing, non-quiescent rate allocation protocol.

    Subclasses provide :meth:`_make_controller` returning the protocol-specific
    :class:`LinkController`.  The public session API mirrors
    :class:`~repro.core.protocol.BNeckProtocol` (``create_session`` / ``join`` /
    ``leave`` / ``change`` / ``current_allocation``), so the experiment
    harnesses and the workload generator drive both interchangeably.
    """

    name = "baseline"
    uses_per_session_state = False
    # Controllers that recompute their advertised rate from aggregate load
    # (RCP, CG) need a periodic per-link control loop in addition to probes.
    needs_periodic_updates = False

    def __init__(
        self,
        network,
        simulator=None,
        algebra=None,
        tracer=None,
        probe_interval=1e-3,
        routing_metric="hops",
        trace_packets=True,
    ):
        self.network = network
        self.simulator = simulator or Simulator()
        self.algebra = algebra or default_algebra()
        if tracer is None:
            # Same opt-out contract as BNeckProtocol: time-only runs skip the
            # per-packet accounting entirely.
            tracer = PacketTracer() if trace_packets else NullPacketTracer()
        self.tracer = tracer
        self._trace_packets = getattr(tracer, "enabled", True)
        self.probe_interval = probe_interval
        self.registry = SessionRegistry()
        self.path_computer = PathComputer(network, metric=routing_metric)
        self._controllers = {}
        self._sessions = {}
        self._rates = {}
        self._demands = {}
        self._active = set()
        self._session_counter = 0
        self.probe_cycles = 0
        self._ticking = False

    # ----------------------------------------------------------- controllers

    def _make_controller(self, link):
        raise NotImplementedError

    def _controller_for(self, link):
        key = link.endpoints
        if key not in self._controllers:
            self._controllers[key] = self._make_controller(link)
        return self._controllers[key]

    # --------------------------------------------------------------- sessions

    def create_session(self, source_host, destination_host, demand=math.inf, session_id=None):
        """Build a session along the shortest path (same contract as B-Neck)."""
        if session_id is None:
            self._session_counter += 1
            session_id = "%s-session-%d" % (self.name, self._session_counter)
        node_path = self.path_computer.route(source_host, destination_host)
        links = path_links(self.network, node_path)
        return Session(session_id, source_host, destination_host, node_path, links, demand)

    def join(self, session, at=None, application=None):
        """Activate a session and start its periodic probe loop."""
        if session.session_id in self._sessions:
            raise ValueError("session %r already joined" % session.session_id)
        self._sessions[session.session_id] = session

        def activate():
            self.registry.add(session)
            self._active.add(session.session_id)
            self._demands[session.session_id] = session.effective_demand()
            self._rates[session.session_id] = 0.0
            self._ensure_periodic_updates()
            self._probe(session.session_id)

        self._schedule_api_call(activate, at)
        return application

    def leave(self, session_id, at=None):
        """Deactivate a session; its pending probes stop rescheduling."""

        def deactivate():
            if session_id in self.registry:
                self.registry.remove(session_id)
            self._active.discard(session_id)
            self._rates.pop(session_id, None)
            session = self._sessions[session_id]
            for link in session.links:
                controller = self._controllers.get(link.endpoints)
                if controller is not None:
                    controller.on_leave(session_id)

        self._schedule_api_call(deactivate, at)

    def change(self, session_id, requested_rate, at=None):
        """Change a session's maximum requested rate."""

        def apply_change():
            session = self._sessions[session_id]
            session.demand = requested_rate
            self._demands[session_id] = session.effective_demand()

        self._schedule_api_call(apply_change, at)

    def open_session(self, source_host, destination_host, demand=math.inf, session_id=None, at=None):
        """Create and immediately join a session; returns ``(session, None)``."""
        session = self.create_session(source_host, destination_host, demand, session_id)
        self.join(session, at=at)
        return session, None

    def _schedule_api_call(self, callback, at):
        # Same discipline as BNeckProtocol: a call at exactly ``now`` is
        # enqueued so it takes a deterministic (time, sequence) slot instead
        # of running synchronously ahead of same-instant events.
        if at is None or at < self.simulator.now:
            callback()
        else:
            self.simulator.schedule_at(at, callback, tag="%s.api" % self.name)

    # ------------------------------------------------------------ probe cycle

    def _probe(self, session_id):
        if session_id not in self._active:
            return
        session = self._sessions[session_id]
        demand = self._demands[session_id]
        current = self._rates.get(session_id, 0.0)
        now = self.simulator.now
        self.probe_cycles += 1

        tracer = self.tracer
        trace = self._trace_packets
        granted = demand
        elapsed = 0.0
        for link in session.links:
            elapsed += link.control_delay()
            if trace:
                tracer.record(
                    now + elapsed, PROBE_PACKET, session_id, link=link.endpoints, direction="downstream"
                )
            controller = self._controller_for(link)
            advertised = controller.on_probe(session_id, demand, current)
            if advertised < granted:
                granted = advertised
        for link in reversed(session.links):
            reverse = self.network.reverse_link(link)
            elapsed += reverse.control_delay()
            if trace:
                tracer.record(
                    now + elapsed, RESPONSE_PACKET, session_id, link=reverse.endpoints, direction="upstream"
                )
        round_trip = elapsed
        result = ProbeCycleResult(session_id, max(granted, 0.0), round_trip)

        def complete():
            self._complete_probe(result)

        self.simulator.schedule(round_trip, complete, tag="%s.response" % self.name)

    def _complete_probe(self, result):
        session_id = result.session_id
        if session_id not in self._active:
            return
        self._rates[session_id] = min(result.granted_rate, self._demands[session_id])
        remaining = max(self.probe_interval - result.round_trip_time, 0.0)
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
        if not self._active:
            # The loop stops when every session has left; it restarts on the
            # next join.
            self._ticking = False
            return
        rates_by_link = {}
        for session in self.registry:
            rate = self._rates.get(session.session_id, 0.0)
            for link in session.links:
                rates_by_link.setdefault(link.endpoints, []).append(rate)
        for key, controller in self._controllers.items():
            controller.periodic_update(rates_by_link.get(key, []), interval)
        self.simulator.schedule(
            interval, lambda: self._periodic_tick(interval), tag="%s.tick" % self.name
        )

    # ---------------------------------------------------------------- results

    def current_allocation(self):
        """The rate each active session is currently using."""
        allocation = RateAllocation(algebra=self.algebra)
        for session in self.registry:
            allocation.set_rate(session.session_id, self._rates.get(session.session_id, 0.0))
        return allocation

    def active_sessions(self):
        return self.registry.active_sessions()

    def run(self, until=None):
        """Run to a horizon.  Baselines never become quiescent on their own."""
        return self.simulator.run(until=until)

    def __repr__(self):
        return "%s(network=%r, sessions=%d, now=%r)" % (
            type(self).__name__,
            self.network.name,
            len(self.registry),
            self.simulator.now,
        )
