"""The B-Neck protocol orchestrator.

:class:`BNeckProtocol` glues the three task types of Section III-C to a
network and a discrete-event simulator:

* it instantiates one :class:`~repro.core.router_link.RouterLinkTask` per
  directed link crossed by some session, one
  :class:`~repro.core.source_node.SourceNodeTask` and one
  :class:`~repro.core.destination_node.DestinationNodeTask` per session;
* it routes packets hop by hop along session paths (downstream) and reverse
  paths (upstream), applying each link's control-packet delay and accounting
  every transmission in a :class:`~repro.simulator.tracing.PacketTracer`;
* it exposes the session API (``join`` / ``leave`` / ``change``), records every
  ``API.Rate`` notification, and provides quiescence and allocation helpers
  used by the experiments and tests.

Notification batching
---------------------

``API.Rate`` deliveries to :class:`~repro.core.api.SessionApplication`
objects are *batched per simulation instant* by default: however many times a
session's rate is renegotiated within one timestamp, the application receives
a single ``deliver_rate`` callback carrying the final value, executed at the
end of the instant through
:meth:`~repro.simulator.simulation.Simulator.call_at_instant_end`.  Batching
never alters the simulation itself (notifications schedule no events), so
packet counts, event counts and final allocations are bit-identical with
batching on or off; only the application-facing callback stream is coalesced.
Pass ``batch_notifications=False`` for the historical synchronous per-packet
delivery.

With nonzero link delays a session's consecutive renegotiations land on
*distinct* instants (each re-probe costs at least a round trip), so
per-instant coalescing alone rarely drops callbacks.  For churn-heavy
experiments, ``notification_batch_window=w`` widens the batch to logical
windows of ``w`` seconds: pending rates are delivered at the next multiple of
``w``, coalescing the whole convergence transient of a churn burst into one
application update per session per window.  Windowed flushes run as
out-of-band *bookkeeping timers*
(:meth:`~repro.simulator.simulation.Simulator.schedule_bookkeeping`), so --
exactly like per-instant batching -- they never appear in
``events_processed``, never stretch a reported quiescence time, and never
count against ``Simulator.max_events`` / ``max_time`` caps; applications
still observe the window-boundary timestamp.

The record of ``API.Rate`` invocations is kept in a pluggable *notification
log* (see :mod:`repro.core.notifications`): the default retains everything
(list-compatible via the ``notifications`` attribute); churn-heavy runs can
pass ``notification_log="ring"`` (bounded memory) or ``"null"`` (keep
nothing) without affecting protocol behaviour.
"""

import math
from functools import partial

from repro.core.actions import (
    CapacityChangeAction,
    replay_actions,
    validate_actions,
)
from repro.core.api import SessionApplication
from repro.core.notifications import make_notification_log
from repro.core.destination_node import DestinationNodeTask
from repro.core.router_link import RouterLinkTask
from repro.core.source_node import SourceNodeTask
from repro.fairness.allocation import RateAllocation
from repro.network.routing import PathComputer, path_links
from repro.network.session import Session, SessionRegistry
from repro.simulator.simulation import Simulator
from repro.simulator.tracing import NullPacketTracer, PacketTracer

DOWNSTREAM = "downstream"
UPSTREAM = "upstream"


class _SessionWiring(object):
    """Per-session forwarding table: the path's stages and each one's index."""

    __slots__ = ("stages", "index_of")

    def __init__(self, stages):
        self.stages = stages
        self.index_of = {stage: index for index, stage in enumerate(stages)}


def _wire_stage(stage, link, reverse):
    """Store the delay of the link ``stage`` transmits on (its key is the
    stage's ``link_id``) and the delay and key of its reverse, which carries
    upstream packets to the stage."""
    stage.hop_delay = link.control_delay()
    stage.back_delay = reverse.control_delay()
    stage.back_key = reverse.endpoints


def _deliver(protocol, target, packet):
    """Hand a packet that finished its hop to its target stage (a plain
    function: the callback binds no method object)."""
    protocol.in_flight_packets -= 1
    target.receive(packet, None)


class BNeckProtocol(object):
    """B-Neck running over a network on a discrete-event simulator.

    Forwarding: a session's path is a list of *stages* (source, the
    RouterLinks of its transit links, destination), and a task sends by
    passing itself as the sender.  A downstream hop crosses the sender's
    link (``hop_delay``, keyed ``link_id``), an upstream hop the reverse of
    the target's (``back_delay``/``back_key``); :func:`_wire_stage` stores
    both once per stage, so each packet is one ``schedule_callback`` and
    resolves no link.  :meth:`join` resolves every reverse link first, so a
    path over a one-way link is refused before anything is registered.

    Args:
        network: the :class:`~repro.network.graph.Network` to run over.
        simulator: optional simulator (one is created if omitted).
        tracer: optional :class:`~repro.simulator.tracing.PacketTracer`.
        routing_metric: ``"hops"`` (paper default) or ``"delay"``.
        trace_packets: when false (and no explicit ``tracer`` is given) a
            :class:`~repro.simulator.tracing.NullPacketTracer` is installed
            and the per-packet accounting in :meth:`_transmit` is skipped
            entirely -- use for runs that only report times, not counts.
        notification_log: where ``API.Rate`` records are kept -- ``"full"``
            (default, unbounded), ``"ring"`` / ``"ring:N"``, ``"null"``, or a
            log object (see :func:`repro.core.notifications.make_notification_log`).
        batch_notifications: when true (default) application ``API.Rate``
            callbacks are coalesced per simulation instant (see the module
            docstring); when false each ``notify_rate`` call reaches the
            application synchronously.
        notification_batch_window: optional window width (seconds) for
            coalescing across instants; ``None`` (default) batches per
            instant.  Ignored when ``batch_notifications`` is false.
    """

    def __init__(self, network, simulator=None, tracer=None,
                 routing_metric="hops", trace_packets=True,
                 notification_log=None, batch_notifications=True,
                 notification_batch_window=None):
        self.network = network
        self.simulator = simulator or Simulator()
        if tracer is None:
            tracer = PacketTracer() if trace_packets else NullPacketTracer()
        self.tracer = tracer
        # Hoisted once: _transmit runs per packet and must not pay a dynamic
        # getattr there.  Rebind this flag if you ever swap `tracer` later.
        self._trace_packets = getattr(tracer, "enabled", True)
        self.registry = SessionRegistry()
        self.path_computer = PathComputer(network, metric=routing_metric)
        self._router_links = {}
        self._sources = {}
        self._destinations = {}
        self._applications = {}
        self._wirings = {}
        self._sessions = {}
        self._last_rate = {}
        self.notification_log = make_notification_log(notification_log)
        self.batch_notifications = bool(batch_notifications)
        if notification_batch_window is not None and notification_batch_window <= 0:
            raise ValueError(
                "notification_batch_window must be positive, got %r"
                % (notification_batch_window,)
            )
        self.notification_batch_window = notification_batch_window
        self._pending_rates = {}
        self.rate_callbacks = 0
        self.in_flight_packets = 0
        self._session_counter = 0

    # ------------------------------------------------------------------ actions

    def apply_actions(self, actions):
        """Apply a batch of session actions.

        ``actions`` are :mod:`repro.core.actions` records (joins, leaves,
        changes, capacity changes) with every random choice already resolved
        and an absolute time each.  The whole batch is checked before any of
        it is applied: every action's time, and every capacity change's value
        and target link.  A batch that fails the check raises and schedules
        nothing; otherwise it is replayed in order.  Returns
        ``{session_id: session}`` for the joins.
        """
        actions = validate_actions(list(actions))
        for action in actions:
            if action.kind == "capacity":
                self._check_capacity_action(action)
        return replay_actions(self, actions)

    # ------------------------------------------------------------------ sessions

    def create_session(self, source_host, destination_host, demand=math.inf, session_id=None):
        """Build a :class:`~repro.network.session.Session` along the shortest path.

        This only constructs the object; call :meth:`join` to activate it.
        """
        if session_id is None:
            self._session_counter += 1
            session_id = "session-%d" % self._session_counter
        node_path = self.path_computer.route(source_host, destination_host)
        links = path_links(self.network, node_path)
        session = Session(session_id, source_host, destination_host, node_path, links, demand)
        return session

    def join(self, session, at=None, application=None):
        """``API.Join``: activate a session, optionally at a future time.

        Returns the :class:`~repro.core.api.SessionApplication` that will
        receive the session's ``API.Rate`` notifications.
        """
        if session.session_id in self._sessions:
            raise ValueError("session %r already joined" % session.session_id)
        # Upstream packets cross each path link's reverse: look them all up
        # before registering anything, so a one-way link leaves no trace.
        reverses = [self._reverse_link(session.session_id, link) for link in session.links]
        if application is None:
            application = SessionApplication(session.session_id, session.demand)
        self._sessions[session.session_id] = session
        self._applications[session.session_id] = application

        source = SourceNodeTask(self.simulator, self, session)
        _wire_stage(source, session.access_link, reverses[0])
        destination = DestinationNodeTask(self.simulator, self, session)
        self._sources[session.session_id] = source
        self._destinations[session.session_id] = destination

        stages = [source]
        for link, reverse in zip(session.transit_links, reverses[1:]):
            stages.append(self._router_link_for(link, reverse))
        stages.append(destination)
        self._wirings[session.session_id] = _SessionWiring(stages)

        def activate():
            self.registry.add(session)
            source.api_join(session.demand)

        self._schedule_api_call(activate, at, "API.Join")
        return application

    def leave(self, session_id, at=None):
        """``API.Leave``: terminate an active session, optionally at a future time."""
        source = self._sources[session_id]

        def deactivate():
            if session_id in self.registry:
                self.registry.remove(session_id)
            source.api_leave()

        self._schedule_api_call(deactivate, at, "API.Leave")

    def change(self, session_id, requested_rate, at=None):
        """``API.Change``: request a new maximum rate, optionally at a future time."""
        source = self._sources[session_id]
        session = self._sessions[session_id]

        def apply_change():
            session.demand = requested_rate
            source.api_change(requested_rate)

        self._schedule_api_call(apply_change, at, "API.Change")

    def change_capacity(self, source, target, capacity, at=None, both_directions=False):
        """Change a router-to-router link's data-plane capacity, mid-flight.

        The change is described as one (or, with ``both_directions``, a pair
        of) :class:`~repro.core.actions.CapacityChangeAction` and applied
        through :meth:`apply_actions`.  When the scheduled time arrives, the
        network link is mutated and the affected RouterLink re-runs its
        bottleneck computation
        (:meth:`~repro.core.router_link.RouterLinkTask.capacity_changed`);
        once the protocol requiesces, the allocation again matches the
        water-filling oracle on the *updated* capacities.  ``at=None`` pins
        the change to the current time.
        """
        when = self.simulator.now if at is None else at
        actions = [CapacityChangeAction(source, target, capacity, when)]
        if both_directions:
            actions.append(CapacityChangeAction(target, source, capacity, when))
        return self.apply_actions(actions)

    def schedule_capacity_change(self, action):
        """Schedule one replayed :class:`~repro.core.actions.CapacityChangeAction`.

        Called from :func:`repro.core.actions.replay_actions`.  The change
        takes a deterministic ``(time, sequence)`` slot relative to the
        packets in flight around it.
        """
        link = self._check_capacity_action(action)
        key = (action.source, action.target)

        def apply_change():
            link.set_capacity(action.capacity)
            task = self._router_links.get(key)
            if task is not None:
                task.capacity_changed(action.capacity)

        self._schedule_api_call(apply_change, action.at, "CapacityChange")

    def _check_capacity_action(self, action):
        """Resolve a capacity action's link, rejecting host endpoints.

        Raises ``KeyError`` for unknown links and ``ValueError`` for access
        links; returns the :class:`~repro.network.graph.Link`.
        """
        key = (action.source, action.target)
        link = self.network.link(*key)
        for endpoint in key:
            if not self.network.node(endpoint).is_router:
                raise ValueError(
                    "capacity changes apply to router-to-router links; %r -> %r "
                    "touches host %r (access-link bandwidth is a session-demand "
                    "concern: use API.Change)" % (action.source, action.target, endpoint)
                )
        return link

    def open_session(self, source_host, destination_host, demand=math.inf, session_id=None, at=None):
        """Create and immediately join a session; returns ``(session, application)``."""
        session = self.create_session(source_host, destination_host, demand, session_id)
        application = self.join(session, at=at)
        return session, application

    def _schedule_api_call(self, callback, at, tag):
        # Calls with no requested time (or a time already in the past) execute
        # immediately.  A call at exactly ``now`` is *enqueued*, not executed
        # synchronously: it must take its (time, sequence) slot in the event
        # queue so it interleaves deterministically with packet deliveries
        # scheduled at the same instant.
        if at is None or at < self.simulator.now:
            callback()
        else:
            self.simulator.schedule_at(at, callback, tag=tag)

    def _reverse_link(self, session_id, link):
        try:
            return self.network.reverse_link(link)
        except KeyError:
            raise ValueError(
                "session %r crosses link %r -> %r, which has no reverse link "
                "for upstream packets" % (session_id, link.source, link.target)
            ) from None

    def _router_link_for(self, link, reverse):
        key = link.endpoints
        if key not in self._router_links:
            task = RouterLinkTask(self.simulator, self, link)
            _wire_stage(task, link, reverse)
            self._router_links[key] = task
        return self._router_links[key]

    # ---------------------------------------------------------------- forwarding

    def forward_downstream(self, sender, packet):
        """Deliver ``packet`` from stage ``sender`` to the next stage of its
        session's path, across the link ``sender`` transmits on."""
        wiring = self._wirings[packet.session_id]
        index = wiring.index_of[sender] + 1
        self._transmit(packet, sender.hop_delay, sender.link_id, wiring.stages[index], DOWNSTREAM)

    def forward_upstream(self, sender, packet):
        """Deliver ``packet`` from stage ``sender`` to the previous stage of
        its session's path, across the reverse of that stage's link.

        A RouterLink also sends Update/Bottleneck packets of *other*
        sessions this way: they start at its position in that session's
        path."""
        wiring = self._wirings[packet.session_id]
        index = wiring.index_of[sender] - 1
        if index < 0:
            # The source is the first stage; nothing lies upstream of it.
            return
        target = wiring.stages[index]
        self._transmit(packet, target.back_delay, target.back_key, target, UPSTREAM)

    def forward_upstream_from_destination(self, session_id, packet):
        """Deliver a packet sent upstream by the destination node."""
        stages = self._wirings[session_id].stages
        index = len(stages) - 2
        target = stages[index]
        self._transmit(packet, target.back_delay, target.back_key, target, UPSTREAM)

    def _transmit(self, packet, delay, link_key, target, direction):
        simulator = self.simulator
        type_name = packet.type_name
        if self._trace_packets:
            self.tracer.record(simulator.now, type_name, packet.session_id, link_key, direction)
        self.in_flight_packets += 1
        # Packet deliveries are never cancelled: a bare callback (no Event
        # handle) on the simulator's fast path.
        simulator.schedule_callback(delay, partial(_deliver, self, target, packet), type_name)

    # --------------------------------------------------------------- API.Rate

    @property
    def notifications(self):
        """The retained ``API.Rate`` records (sequence-compatible log)."""
        return self.notification_log

    def notify_rate(self, session_id, rate):
        """Record an ``API.Rate`` invocation and deliver it to the application.

        With ``batch_notifications`` (the default) the application callback is
        deferred to the end of the current simulation instant and coalesced:
        only the last rate a session was notified within the instant reaches
        ``deliver_rate``.  Records, ``last_notified_rate`` and the returned
        notification object always reflect every invocation.
        """
        time = self.simulator.now
        notification = self.notification_log.record(time, session_id, rate)
        self._last_rate[session_id] = rate
        if self.batch_notifications:
            pending = self._pending_rates
            if not pending:
                window = self.notification_batch_window
                if window is None:
                    self.simulator.call_at_instant_end(self._flush_pending_rates)
                else:
                    # Flush at the next window boundary strictly after `now`,
                    # through an out-of-band bookkeeping timer: the flush is
                    # pure observation, so it must not occupy an event-queue
                    # slot (it would show in ``events_processed`` and could
                    # stretch a reported quiescence time by up to one window).
                    boundary = (math.floor(time / window) + 1.0) * window
                    self.simulator.schedule_bookkeeping(
                        boundary - time, self._flush_pending_rates_window
                    )
            pending[session_id] = rate
        else:
            application = self._applications.get(session_id)
            if application is not None:
                self.rate_callbacks += 1
                application.deliver_rate(time, rate)
        return notification

    def _flush_pending_rates(self):
        """End-of-instant hook: deliver one coalesced ``API.Rate`` per session.

        Dict insertion order makes delivery order deterministic: sessions are
        notified in the order of their *first* rate update within the instant,
        each carrying its *final* rate.
        """
        self._deliver_pending_batch(self.simulator.now)

    def _flush_pending_rates_window(self, due):
        """Windowed-flush bookkeeping timer: deliver at the window boundary.

        Fires between events (see
        :meth:`repro.simulator.simulation.Simulator.schedule_bookkeeping`);
        applications see the boundary timestamp ``due`` regardless of where
        between two events the timer actually ran.
        """
        self._deliver_pending_batch(due)

    def _deliver_pending_batch(self, time):
        """Deliver the coalesced rates, stamped ``time``."""
        pending = self._pending_rates
        if not pending:
            return
        batch = list(pending.items())
        pending.clear()
        applications = self._applications
        delivered = 0
        for session_id, rate in batch:
            application = applications.get(session_id)
            if application is not None:
                delivered += 1
                application.deliver_rate(time, rate)
        self.rate_callbacks += delivered

    def last_notified_rate(self, session_id):
        """The last rate notified to a session (``None`` before the first)."""
        return self._last_rate.get(session_id)

    # -------------------------------------------------------------- inspection

    def source(self, session_id):
        """The SourceNode task of a session."""
        return self._sources[session_id]

    def destination(self, session_id):
        """The DestinationNode task of a session."""
        return self._destinations[session_id]

    def router_link(self, endpoints):
        """The RouterLink task controlling the directed link ``endpoints``."""
        return self._router_links[endpoints]

    def router_link_states(self):
        """The :class:`~repro.core.state.LinkState` of every RouterLink task."""
        return [task.state for task in self._router_links.values()]

    def all_link_states(self):
        """Every link state: RouterLinks plus the access links owned by sources
        of currently active sessions."""
        states = list(self.router_link_states())
        for session in self.registry:
            source = self._sources.get(session.session_id)
            if source is not None:
                states.append(source.state)
        return states

    def application(self, session_id):
        return self._applications[session_id]

    def session(self, session_id):
        return self._sessions[session_id]

    # -------------------------------------------------------------- allocation

    def current_allocation(self):
        """The rate each active session currently believes it may use.

        Before a session's first Response this is 0 (B-Neck is conservative:
        transient rates never exceed the final max-min rates).
        """
        allocation = RateAllocation()
        for session in self.registry:
            source = self._sources[session.session_id]
            allocation.set_rate(session.session_id, source.current_rate())
        return allocation

    def notified_allocation(self):
        """The last ``API.Rate`` value of every active session (0 if none yet)."""
        allocation = RateAllocation()
        for session in self.registry:
            rate = self._last_rate.get(session.session_id, 0.0)
            allocation.set_rate(session.session_id, rate)
        return allocation

    def active_sessions(self):
        """The currently active sessions (the paper's set ``S``)."""
        return self.registry.active_sessions()

    # --------------------------------------------------------------- execution

    @property
    def quiescent(self):
        """True when no event (packet delivery or pending API call) remains."""
        return self.simulator.pending_events == 0

    def run_until_quiescent(self):
        """Run until the event queue drains; returns the quiescence time."""
        return self.simulator.run_until_quiescent()

    def run(self, until=None):
        """Run up to a time horizon (used when mixing with workload schedules)."""
        return self.simulator.run(until=until)

    def __repr__(self):
        return "BNeckProtocol(network=%r, sessions=%d, now=%r)" % (
            self.network.name,
            len(self.registry),
            self.simulator.now,
        )
