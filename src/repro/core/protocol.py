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
    ChangeAction,
    LeaveAction,
    replay_actions,
    validate_actions,
)
from repro.core.api import RateNotification, SessionApplication
from repro.core.notifications import make_notification_log
from repro.core.destination_node import DestinationNodeTask
from repro.core.packets import decode_packet, encode_packet
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
    """Hand a packet that finished its hop, local or cross-shard, to its
    target stage (a plain function: the callback binds no method object)."""
    protocol.in_flight_packets -= 1
    target.receive(packet, None)


class BNeckProtocol(object):
    """B-Neck running over a network on a discrete-event simulator.

    Forwarding: a session's path is a list of *stages* (source, the
    RouterLinks of its transit links, destination), and a task sends by
    passing itself as the sender.  A downstream hop crosses the sender's
    link (``hop_delay``, keyed ``link_id``), an upstream hop the reverse of
    the target's (``back_delay``/``back_key``); :func:`_wire_stage` stores
    both once per stage, so each packet is one ``schedule_callback`` (or
    one ``post_remote`` across shards) and resolves no link.  :meth:`join`
    resolves every reverse link first, so a path over a one-way link is
    refused before anything is registered.

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
        self._shard_plan = None
        self._pending_by_shard = None
        self._fork_baseline = None
        self._replaying_actions = False
        # Scheduled-but-not-yet-applied capacity changes, as (at, source,
        # target, capacity) tuples.  On serial engines the scheduled event
        # itself consumes its entry; the driver of a persistent-parallel run
        # never executes events, so it folds due entries into its network
        # mirror at the end-of-run state sync instead (the workers applied
        # them at event time).
        self._pending_capacity_changes = []

    # ------------------------------------------------------------------ sharding

    def use_shard_plan(self, plan):
        """Partition this protocol's actors across the plan's shards.

        Requires ``simulator`` to be a
        :class:`~repro.simulator.sharding.ShardedSimulator` and must be called
        before any session joins.  Every RouterLink task created afterwards is
        placed on the shard of its link's transmitting router; SourceNode and
        DestinationNode tasks follow their host's attached router.  Packet
        sends then resolve local vs. remote: same-shard deliveries take the
        usual bare-callback fast path, cross-shard deliveries travel as
        ``(session_id, stage_index, packet)`` descriptors through the
        engine's epoch-batched mailboxes (batch-encoded as flat primitive
        tuples when they cross a worker pipe).  This also installs the
        action-broadcast handler that lets :meth:`apply_actions` replay
        joins/leaves/changes identically in every persistent worker process.
        """
        if self._sources or self._router_links:
            raise RuntimeError("use_shard_plan must be called before sessions join")
        simulator = self.simulator
        if not hasattr(simulator, "post_remote"):
            raise TypeError(
                "use_shard_plan needs a ShardedSimulator, got %r" % (simulator,)
            )
        self._shard_plan = plan
        self._pending_by_shard = [dict() for _ in range(plan.num_shards)]
        simulator.remote_handler = self._deliver_remote
        simulator.action_handler = self._replay_actions
        simulator.before_fork = self._snapshot_fork_baseline
        simulator.export_state = self._export_shard_state
        simulator.import_state = self._import_shard_states
        simulator.encode_outbox = self._encode_outbox
        simulator.decode_inbox = self._decode_inbox

    def _deliver_remote(self, descriptor):
        """Deliver a cross-shard packet descriptor to its target stage."""
        session_id, stage_index, packet = descriptor
        _deliver(self, self._wirings[session_id].stages[stage_index], packet)

    @staticmethod
    def _encode_outbox(entries):
        """Batch-encode an epoch outbox for the worker pipe.

        Each ``(time, (session_id, stage_index, packet), tag)`` entry becomes
        one flat ``(time, session_id, stage_index, type_code, field...)``
        tuple of primitives (see :func:`repro.core.packets.encode_packet`), so
        a whole epoch's mail pickles without a single packet object on the
        wire.  The delivery time stays in slot 0 -- the engine's driver reads
        it for ``t_min`` without decoding.
        """
        return [
            (time, descriptor[0], descriptor[1]) + encode_packet(descriptor[2])
            for time, descriptor, _tag in entries
        ]

    @staticmethod
    def _decode_inbox(entries):
        """Rebuild ``(time, descriptor, tag)`` triples from the wire encoding."""
        decoded = []
        for entry in entries:
            packet = decode_packet(entry[3:])
            decoded.append((entry[0], (entry[1], entry[2], packet), packet.type_name))
        return decoded

    # ------------------------------------------------------------------ actions

    def _workers_live(self):
        return getattr(self.simulator, "workers_live", False)

    def apply_actions(self, actions):
        """Apply a batch of session actions, engine-transparently.

        ``actions`` are :mod:`repro.core.actions` records (joins, leaves,
        changes) with every random choice already resolved and an absolute
        time each.  On a sequential or serial-sharded engine the batch is
        replayed locally; with live persistent parallel workers it is
        broadcast so every worker replays the identical batch before the next
        run command.  Returns ``{session_id: session}`` for the joins
        (driver-side copies).
        """
        actions = validate_actions(list(actions))
        # Resolve capacity targets against this network *before* any
        # broadcast: an unknown link or a host endpoint must surface as a
        # clean driver-side error, not fail mid-replay after live workers
        # already received the batch (which would force a pool teardown).
        for action in actions:
            if action.kind == "capacity":
                self._check_capacity_action(action)
        simulator = self.simulator
        if self._shard_plan is not None and hasattr(simulator, "broadcast_actions"):
            if getattr(simulator, "workers_live", False):
                # Reject past-dated actions *before* the broadcast: a worker's
                # idle clock lags the driver's, so its own past-time guards
                # would not fire, and a batch the driver later rejects would
                # already be scheduled worker-side -- permanent divergence.
                now = simulator.now
                for action in actions:
                    if action.at < now:
                        raise RuntimeError(
                            "action %r is dated before the current time %r; "
                            "actions broadcast to live persistent workers "
                            "must be scheduled at or after `now`" % (action, now)
                        )
            return simulator.broadcast_actions(actions)
        return self._replay_actions(actions)

    def _replay_actions(self, actions):
        """The engine's ``action_handler``: apply a batch to this process."""
        self._replaying_actions = True
        try:
            return replay_actions(self, actions)
        finally:
            self._replaying_actions = False

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
        if self._workers_live() and not self._replaying_actions:
            raise RuntimeError(
                "cannot join a session object directly while persistent "
                "parallel workers are live: the join must be replayed in "
                "every worker process.  Describe it as a JoinAction and use "
                "apply_actions (ExperimentRunner.install and the phase "
                "machinery do this automatically)"
            )
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
        plan = self._shard_plan
        if plan is not None:
            source.place_on_shard(plan.shard_of(session.source))
            destination.place_on_shard(plan.shard_of(session.destination))
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

        self._schedule_api_call(activate, at, "API.Join", shard=source.shard_id)
        return application

    def leave(self, session_id, at=None):
        """``API.Leave``: terminate an active session, optionally at a future time.

        With live persistent parallel workers the call is transparently
        converted into a broadcast :class:`~repro.core.actions.LeaveAction`
        (``at=None`` pins it to the current time) so every worker schedules
        it identically.  Note the one semantic difference from the serial
        engines: there ``at=None`` executes the API call inline (no event),
        whereas the broadcast path necessarily schedules it -- one extra
        entry in ``events_processed`` per converted call.  Workloads that
        need bit-exact cross-engine schedules should pass explicit times.
        """
        source = self._sources[session_id]
        if self._workers_live() and not self._replaying_actions:
            when = self.simulator.now if at is None else at
            self.apply_actions([LeaveAction(session_id, when)])
            return

        def deactivate():
            if session_id in self.registry:
                self.registry.remove(session_id)
            source.api_leave()

        self._schedule_api_call(deactivate, at, "API.Leave", shard=source.shard_id)

    def change(self, session_id, requested_rate, at=None):
        """``API.Change``: request a new maximum rate, optionally at a future time.

        Broadcast as a :class:`~repro.core.actions.ChangeAction` when
        persistent parallel workers are live (see :meth:`leave`).
        """
        source = self._sources[session_id]
        session = self._sessions[session_id]
        if self._workers_live() and not self._replaying_actions:
            when = self.simulator.now if at is None else at
            self.apply_actions([ChangeAction(session_id, requested_rate, when)])
            return

        def apply_change():
            session.demand = requested_rate
            source.api_change(requested_rate)

        self._schedule_api_call(apply_change, at, "API.Change", shard=source.shard_id)

    def change_capacity(self, source, target, capacity, at=None, both_directions=False):
        """Change a router-to-router link's data-plane capacity, mid-flight.

        The change is described as one (or, with ``both_directions``, a pair
        of) broadcast :class:`~repro.core.actions.CapacityChangeAction` and
        applied through :meth:`apply_actions`, so it works identically on the
        sequential, serial-sharded and persistent-parallel engines.  When the
        scheduled time arrives, the network link is mutated and the affected
        RouterLink re-runs its bottleneck computation
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

        Called from :func:`repro.core.actions.replay_actions` in every process
        of a parallel run.  The change is scheduled on the lane owning the
        link's transmitting router, so it takes a deterministic
        ``(time, sequence)`` slot relative to the packets in flight around it.
        """
        link = self._check_capacity_action(action)
        key = (action.source, action.target)
        entry = (action.at, action.source, action.target, action.capacity)
        self._pending_capacity_changes.append(entry)

        def apply_change():
            self._discard_pending_capacity_change(entry)
            link.set_capacity(action.capacity)
            task = self._router_links.get(key)
            if task is not None:
                task.capacity_changed(action.capacity)

        shard = 0
        if self._shard_plan is not None:
            shard = self._shard_plan.shard_of(action.source)
        self._schedule_api_call(apply_change, action.at, "CapacityChange", shard=shard)

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

    def _discard_pending_capacity_change(self, entry):
        try:
            self._pending_capacity_changes.remove(entry)
        except ValueError:
            pass

    def _sync_due_capacity_changes(self):
        """Fold worker-applied capacity changes into the driver's mirror.

        Runs at the end-of-run state sync of a persistent-parallel run.  The
        driver never executes events, so every scheduled change whose time has
        passed was applied *worker-side* only; the network mirror (read by the
        validation oracles) and the RouterLink mirror states catch up here.
        Entries are applied in time order (stable on ties, matching the event
        queue) so the last write to a link wins, exactly as in the workers.
        """
        now = self.simulator.now
        due = [entry for entry in self._pending_capacity_changes if entry[0] <= now]
        if not due:
            return
        self._pending_capacity_changes = [
            entry for entry in self._pending_capacity_changes if entry[0] > now
        ]
        due.sort(key=lambda entry: entry[0])
        for _at, source, target, capacity in due:
            self.network.link(source, target).set_capacity(capacity)
            task = self._router_links.get((source, target))
            if task is not None:
                task.state.set_capacity(capacity)

    def open_session(self, source_host, destination_host, demand=math.inf, session_id=None, at=None):
        """Create and immediately join a session; returns ``(session, application)``."""
        session = self.create_session(source_host, destination_host, demand, session_id)
        application = self.join(session, at=at)
        return session, application

    def _schedule_api_call(self, callback, at, tag, shard=0):
        # Calls with no requested time (or a time already in the past) execute
        # immediately.  A call at exactly ``now`` is *enqueued*, not executed
        # synchronously: it must take its (time, sequence) slot in the event
        # queue so it interleaves deterministically with packet deliveries
        # scheduled at the same instant.  Under a shard plan the call lands on
        # the lane owning the session's source actor.
        if at is None or at < self.simulator.now:
            if self._workers_live():
                # The driver of a persistent parallel run must never execute
                # protocol work itself -- the workers own the authoritative
                # state -- so immediate execution would silently diverge.
                raise RuntimeError(
                    "API calls on a driver with live persistent workers need "
                    "an absolute time at or after the current time "
                    "(got at=%r, now=%r)" % (at, self.simulator.now)
                )
            callback()
        elif self._shard_plan is not None:
            self.simulator.schedule_on(shard, at, callback, tag=tag)
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
            if self._shard_plan is not None:
                # The RouterLink actor lives where its link transmits from, so
                # a hop is cross-shard exactly when the link is a cut edge.
                task.place_on_shard(self._shard_plan.shard_of(link.source))
            self._router_links[key] = task
        return self._router_links[key]

    # ---------------------------------------------------------------- forwarding

    def forward_downstream(self, sender, packet):
        """Deliver ``packet`` from stage ``sender`` to the next stage of its
        session's path, across the link ``sender`` transmits on."""
        wiring = self._wirings[packet.session_id]
        index = wiring.index_of[sender] + 1
        self._transmit(
            packet, sender.hop_delay, sender.link_id, wiring.stages[index], DOWNSTREAM, index
        )

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
        self._transmit(packet, target.back_delay, target.back_key, target, UPSTREAM, index)

    def forward_upstream_from_destination(self, session_id, packet):
        """Deliver a packet sent upstream by the destination node."""
        stages = self._wirings[session_id].stages
        index = len(stages) - 2
        target = stages[index]
        self._transmit(packet, target.back_delay, target.back_key, target, UPSTREAM, index)

    def _transmit(self, packet, delay, link_key, target, direction, stage_index):
        simulator = self.simulator
        type_name = packet.type_name
        if self._trace_packets:
            self.tracer.record(simulator.now, type_name, packet.session_id, link_key, direction)
        self.in_flight_packets += 1

        if self._shard_plan is not None:
            shard = target.shard_id
            if shard != simulator.current_shard:
                # Cross-shard hop: ship a picklable descriptor through the
                # engine's mailbox; it is delivered at the next epoch barrier
                # (or pushed directly while the engine is idle).
                simulator.post_remote(
                    shard, delay, (packet.session_id, stage_index, packet), tag=type_name
                )
                return

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
            pending = self._current_pending_rates()
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

    def _current_pending_rates(self):
        """The pending-rate buffer of the executing shard (or the global one).

        Under a shard plan each lane coalesces its own sessions' rates, so the
        serial and parallel sharded modes deliver identical batches (a worker
        process only ever sees its own lane's buffer).
        """
        shards = self._pending_by_shard
        if shards is None:
            return self._pending_rates
        shard = self.simulator.current_shard
        return shards[0 if shard is None else shard]

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
        """Deliver the executing lane's coalesced rates, stamped ``time``."""
        pending = self._current_pending_rates()
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

    # ----------------------------------------------- parallel-run state gather
    #
    # A parallel sharded run executes in persistent forked worker processes:
    # each worker owns the authoritative state of its shard's actors, while
    # the driver's copy only advances structurally (through action replays)
    # and through the gathers below.  The hooks (installed on the engine by
    # :meth:`use_shard_plan`) snapshot counter baselines, export each worker's
    # per-session outcome and counter *deltas*, and fold everything back into
    # the driver so ``current_allocation``, ``notified_allocation``,
    # validation and packet accounting keep working transparently between
    # runs.  The gather repeats at the end of every run (the engine's
    # EXPORT_STATE sync): workers re-snapshot their baselines right after
    # exporting, so each sync ships only that run's deltas while per-session
    # fields stay absolute (safe to re-import).  Per-link ``LinkState`` and
    # per-destination diagnostic counters are deliberately not gathered
    # (nothing on the driver reads them between runs).

    def _snapshot_fork_baseline(self):
        tracer = self.tracer
        self._fork_baseline = {
            "rate_callbacks": self.rate_callbacks,
            "in_flight": self.in_flight_packets,
            "log_recorded": self.notification_log.recorded,
            "tracer_total": getattr(tracer, "total", 0),
            "tracer_records": len(getattr(tracer, "records", ())),
            "tracer_by_type": dict(getattr(tracer, "by_type", {})),
            "tracer_by_session": dict(getattr(tracer, "by_session", {})),
            "tracer_intervals": {
                bucket: dict(counts)
                for bucket, counts in getattr(tracer, "_interval_counts", {}).items()
            },
        }

    def _export_shard_state(self, shard_index):
        baseline = self._fork_baseline
        sessions = {}
        for session_id, source in self._sources.items():
            if source.shard_id != shard_index:
                continue
            application = self._applications.get(session_id)
            state = source.state
            sessions[session_id] = {
                "active": session_id in self.registry,
                "rate": state.rate_of(session_id),
                "mu": state.state_of(session_id),
                "demand": self._sessions[session_id].demand,
                "source_demand": source.demand,
                "left": source.left,
                "update_received": source.update_received,
                "bottleneck_received": source.bottleneck_received,
                "last_rate": self._last_rate.get(session_id),
                "app_notifications": (
                    [(n.time, n.rate) for n in application.notifications]
                    if application is not None
                    else None
                ),
            }
        # Records produced during the run are the newest `new_count` retained
        # entries (counting from `recorded`, not positions: a ring log may
        # have evicted pre-fork records, so positional slicing would be off).
        log = self.notification_log
        new_count = log.recorded - baseline["log_recorded"]
        retained = list(log)
        log_delta = [
            (record.time, record.session_id, record.rate)
            for record in retained[max(0, len(retained) - new_count):]
        ] if new_count > 0 else []
        tracer = self.tracer
        blob = {
            "sessions": sessions,
            "rate_callbacks": self.rate_callbacks - baseline["rate_callbacks"],
            "in_flight": self.in_flight_packets - baseline["in_flight"],
            "log_recorded": log.recorded - baseline["log_recorded"],
            "log_delta": log_delta,
            "tracer": None,
        }
        if getattr(tracer, "enabled", False):
            by_type = {
                key: count - baseline["tracer_by_type"].get(key, 0)
                for key, count in tracer.by_type.items()
            }
            by_session = {
                key: count - baseline["tracer_by_session"].get(key, 0)
                for key, count in tracer.by_session.items()
            }
            blob["tracer"] = {
                "total": tracer.total - baseline["tracer_total"],
                "by_type": {k: v for k, v in by_type.items() if v},
                "by_session": {k: v for k, v in by_session.items() if v},
                "last_packet_time": tracer.last_packet_time,
                "records": list(tracer.records[baseline["tracer_records"]:]),
                "intervals": (
                    {
                        bucket: {
                            key: count
                            - baseline["tracer_intervals"].get(bucket, {}).get(key, 0)
                            for key, count in counts.items()
                        }
                        for bucket, counts in tracer._interval_counts.items()
                    }
                    if getattr(tracer, "interval", None) is not None
                    else None
                ),
            }
        return blob

    def _import_shard_states(self, blobs):
        for blob in blobs:
            for session_id, info in blob["sessions"].items():
                source = self._sources[session_id]
                session = self._sessions[session_id]
                session.demand = info["demand"]
                source.demand = info["source_demand"]
                source.left = info["left"]
                source.update_received = info["update_received"]
                source.bottleneck_received = info["bottleneck_received"]
                if info["left"]:
                    source.state.forget(session_id)
                else:
                    if info["rate"] is not None:
                        source.state.set_rate(session_id, info["rate"])
                    source.state.set_state(session_id, info["mu"])
                if info["active"]:
                    if session_id not in self.registry:
                        self.registry.add(session)
                elif session_id in self.registry:
                    self.registry.remove(session_id)
                if info["last_rate"] is not None:
                    self._last_rate[session_id] = info["last_rate"]
                application = self._applications.get(session_id)
                if application is not None and info["app_notifications"]:
                    application.notifications = [
                        RateNotification(time, session_id, rate)
                        for time, rate in info["app_notifications"]
                    ]
            self.rate_callbacks += blob["rate_callbacks"]
            self.in_flight_packets += blob["in_flight"]
        # Merge the retained notification records, globally time-ordered
        # (stable sort keeps lane order on ties, matching the serial barrier).
        merged = sorted(
            (entry for blob in blobs for entry in blob["log_delta"]),
            key=lambda entry: entry[0],
        )
        recorded_delta = sum(blob["log_recorded"] for blob in blobs)
        for time, session_id, rate in merged:
            self.notification_log.record(time, session_id, rate)
            recorded_delta -= 1
        if recorded_delta > 0 and hasattr(self.notification_log, "_recorded"):
            # Logs that retain nothing (null) still count invocations.
            self.notification_log._recorded += recorded_delta
        self._merge_tracer_deltas([blob["tracer"] for blob in blobs])
        self._sync_due_capacity_changes()

    def _merge_tracer_deltas(self, deltas):
        tracer = self.tracer
        if not getattr(tracer, "enabled", False):
            return
        records = []
        for delta in deltas:
            if delta is None:
                continue
            tracer.total += delta["total"]
            for key, count in delta["by_type"].items():
                tracer.by_type[key] += count
            for key, count in delta["by_session"].items():
                tracer.by_session[key] += count
            tracer.last_packet_time = max(
                tracer.last_packet_time, delta["last_packet_time"]
            )
            records.extend(delta["records"])
            if delta["intervals"] is not None:
                for bucket, counts in delta["intervals"].items():
                    for key, count in counts.items():
                        if count:
                            tracer._interval_counts[bucket][key] += count
        if records:
            records.sort(key=lambda record: record.time)
            tracer.records.extend(records)

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

    def run(self, until=None, stop_condition=None):
        """Run up to a time horizon (used when mixing with workload schedules)."""
        return self.simulator.run(until=until, stop_condition=stop_condition)

    def __repr__(self):
        return "BNeckProtocol(network=%r, sessions=%d, now=%r)" % (
            self.network.name,
            len(self.registry),
            self.simulator.now,
        )
