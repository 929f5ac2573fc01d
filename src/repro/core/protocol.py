"""The B-Neck protocol orchestrator.

:class:`BNeckProtocol` glues the three task types of Section III-C to a
network and a discrete-event simulator:

* it instantiates one :class:`~repro.core.router_link.RouterLinkTask` per
  directed link crossed by some session, one
  :class:`~repro.core.source_node.SourceNodeTask` and one
  :class:`~repro.core.destination_node.DestinationNodeTask` per session;
* it routes packets hop by hop along session paths (downstream) and reverse
  paths (upstream), applying each link's control-packet delay and counting
  every transmission in its session's list of per-type counts, which the
  :class:`~repro.simulator.tracing.PacketTracer` owns.  Every stage of a
  path holds one *hop row* per session crossing it, its ``hops[session_id]
  = (next stage, previous stage, counts)``, so a hop finds its target and
  its counts in one lookup.  Each hop is one ``(time, sequence, handler,
  target, packet)`` entry on the simulator's event heap, and its delivery
  is the call ``handler(target, packet)``;
* it supplies the steps that the action batches of
  :class:`~repro.core.actions.SessionProtocol` (``API.Join`` / ``API.Leave``
  / ``API.Change`` and capacity changes) run, delivers every ``API.Rate``
  notification, and provides quiescence and allocation helpers used by the
  experiments and tests;
* it releases what a departed session leaves behind, as B-Neck's Leave
  erases the session's state at every link it crosses.

Departed sessions
-----------------

:class:`~repro.core.actions.SessionProtocol`, the session lifecycle B-Neck
shares with the baselines, records each session whose ``API.Leave`` has
ended it and releases it at the next
:meth:`~repro.core.actions.SessionProtocol.apply_actions` whose batch passes
validation, made while the simulator's heap is empty (so no pending delivery
can still name the session).  B-Neck's release step drops the session's
SourceNode and DestinationNode tasks and its path, and every RouterLink of
its path drops its hop row and forgets it
(:meth:`~repro.core.state.LinkState.forget`), which clears the ``mu`` and
``rate`` entries a late Response or Update re-creates behind the Leave.
With the RouterLinks' rows gone nothing refers to the session's tasks, so
reference counting alone frees them.  The base then detaches both of its
hosts, which only its join attached
(:meth:`~repro.network.graph.Network.detach_host`), with the RouterLink of
the egress link into its destination host.

A departed session keeps its :class:`~repro.network.session.Session`, its
:class:`~repro.core.api.SessionApplication` with the ``API.Rate`` history,
its packet counts in the tracer and its :meth:`BNeckProtocol.last_notified_rate`.
So memory and the stability check of each checkpoint follow the sessions the
protocol holds, not every session it ever joined.

Notification delivery
---------------------

``API.Rate`` reaches a session's :class:`~repro.core.api.SessionApplication`
once per simulation instant: however many times the session's rate is
renegotiated within one timestamp, the application receives a single
``deliver_rate`` callback carrying the final value and the instant's time.
The protocol holds one batch, ``{session_id: rate}`` in the order of each
session's first update, stamped with the instant it was made in.  The first
``notify_rate`` of a later instant delivers the held batch before it starts
the next one, and :meth:`BNeckProtocol.run` and
:meth:`BNeckProtocol.run_until_quiescent` deliver it before they return, so
after a run no notification is held.  Delivery schedules no events, so it
never alters the simulation, and the simulator's heap stays the run's whole
pending state.  The application's ``notifications`` list is the record of
every delivered ``API.Rate``; :meth:`BNeckProtocol.last_notified_rate` reads
the held batch first, so it follows each ``notify_rate`` call at once, ahead
of the delivery.
"""

from heapq import heappush

from repro.core.actions import SessionProtocol
from repro.core.api import SessionApplication
from repro.core.destination_node import DestinationNodeTask
from repro.core.packets import PACKET_CLASSES
from repro.core.router_link import RouterLinkTask
from repro.core.source_node import SourceNodeTask
from repro.fairness.allocation import RateAllocation


def _wire_hops(session_id, stages, sent):
    """Give each stage of a session's path its hop row: the next stage, the
    previous one (``None`` past either end) and the session's per-type
    counts ``sent``."""
    previous = None
    for stage, following in zip(stages, stages[1:] + [None]):
        stage.hops[session_id] = (following, previous, sent)
        previous = stage


def _wire_stage(stage, link, network):
    """Store the delay of the link ``stage`` transmits on and the delay of
    its reverse in ``network``, which carries upstream packets to the
    stage.  Only a new stage is wired, so a session's setup looks up the
    reverse of its access link and of each link it is the first to cross,
    not of every link."""
    stage.hop_delay = link.control_delay()
    stage.back_delay = network.reverse_link(link).control_delay()


def _unhandled(target, packet):
    """The error for a packet its target stage has no handler for."""
    return TypeError("%s cannot handle %r" % (target.name, packet))


class BNeckProtocol(SessionProtocol):
    """B-Neck running over a network on a discrete-event simulator.

    Forwarding: a session's path is a list of *stages* (source, the
    RouterLinks of its transit links, destination), and a task sends by
    calling :meth:`forward_downstream` or :meth:`forward_upstream` with
    itself as the sender; the destination sends its Responses and Updates
    upstream like any other stage.  Each stage holds a hop row per session
    crossing it, ``hops[session_id] = (next stage, previous stage, sent)``,
    built by :meth:`_setup` and dropped by :meth:`_release`, so a send finds
    its target and the session's counts with one dict lookup.  A downstream
    hop crosses the sender's link (``hop_delay``), an upstream hop the
    reverse of the target's (``back_delay``); :func:`_wire_stage` stores
    both once per stage, so a hop resolves no link.  The ``forward_*``
    method does the whole send: it looks the packet's handler up in the
    target's ``delivery`` table, counts the packet, and pushes one
    ``(time, sequence, handler, target, packet)`` entry onto the
    simulator's heap, drawing one sequence number.  The handler is the
    unbound ``on_*`` function itself, so a delivery builds no closure and
    runs no frame before it.  The batch check refuses a route over a
    one-way link, so every link of a session's path has a reverse.

    Counting: every hop row of a session holds the tracer's list of its
    per-type counts (``sent``), and a send adds one to the slot of the
    packet's ``kind`` -- no call into the tracer.  Only a timed tracer (one
    with an interval) needs each packet's time, so with one a send calls
    :meth:`~repro.simulator.tracing.PacketTracer.record` instead, which
    counts into the same list.

    Args:
        network: the :class:`~repro.network.graph.Network` to run over.
        tracer: optional :class:`~repro.simulator.tracing.PacketTracer`
            (a counting one is created if omitted), fixed at construction.

    Sessions are routed by hop count between the routers their hosts attach
    to (:class:`~repro.network.routing.PathComputer`), as in the paper.
    """

    def __init__(self, network, tracer=None):
        super(BNeckProtocol, self).__init__(network, tracer)
        self._paths = {}
        # Read once here, not per packet.
        self._timed = self._tracer.timed
        # The simulator's heap and counter, pushed to directly on every hop.
        self._heap = self.simulator.heap
        self._sequence = self.simulator.sequence
        self._applications = {}
        # The held API.Rate batch and the instant it was made in.
        self._rates = {}
        self._rates_at = 0.0
        self.rate_callbacks = 0

    @property
    def in_flight_packets(self):
        """Control packets on a link: the heap entries whose last field is a
        packet, recounted from the simulator's heap on every read."""
        return sum(1 for entry in self.simulator.heap if isinstance(entry[4], PACKET_CLASSES))

    # ------------------------------------------------------------------ sessions

    def _setup(self, session):
        """Build the session's tasks and their hop rows, and the
        :class:`~repro.core.api.SessionApplication` that will receive its
        ``API.Rate`` notifications."""
        session_id = session.session_id
        self._applications[session_id] = SessionApplication(session_id, session.demand)

        source = SourceNodeTask(self, session)
        _wire_stage(source, session.access_link, self.network)
        stages = [source]
        for link in session.transit_links:
            stages.append(self._router_link_for(link))
        stages.append(DestinationNodeTask(self, session))
        self._paths[session_id] = stages
        _wire_hops(session_id, stages, self._tracer.counts_for(session_id))

    def _activate(self, session):
        self.source(session.session_id).api_join(session.demand)

    def _deactivate(self, session):
        self.source(session.session_id).api_leave()

    def _change(self, session):
        self.source(session.session_id).api_change(session.demand)

    def _release(self, session_id):
        """Drop the session's path, and with it its tasks; every RouterLink
        of its path drops the session's hop row and forgets it."""
        for task in self._paths.pop(session_id)[1:-1]:
            del task.hops[session_id]
            task.state.forget(session_id)

    def schedule_capacity_change(self, action):
        """Schedule one replayed :class:`~repro.core.actions.CapacityChangeAction`.

        Called when :meth:`~repro.core.actions.SessionProtocol.apply_actions`
        replays a batch, once :func:`~repro.core.actions.validate_actions`
        has checked the link.  The change takes a deterministic ``(time,
        sequence)`` slot relative to the packets in flight around it.  When
        the slot arrives, the network link is mutated and the affected
        RouterLink re-runs its bottleneck computation
        (:meth:`~repro.core.router_link.RouterLinkTask.capacity_changed`);
        once the protocol requiesces, the run again passes
        :func:`~repro.core.validation.validate_against_oracle` on the
        *updated* capacities.  Its presence is what the batch check asks
        for: a protocol without it refuses capacity changes.
        """
        key = (action.source, action.target)
        link = self.network.link(*key)

        def apply_change():
            link.set_capacity(action.capacity)
            task = self._per_link.get(key)
            if task is not None:
                task.capacity_changed(action.capacity)

        self.simulator.schedule_at(action.at, apply_change, tag="CapacityChange")

    def _router_link_for(self, link):
        """The RouterLink task of ``link``, created and wired at the first
        session to cross it: one lookup per transit link of a join."""
        key = (link.source, link.target)
        task = self._per_link.get(key)
        if task is None:
            task = self._per_link[key] = RouterLinkTask(self, link)
            _wire_stage(task, link, self.network)
        return task

    # ---------------------------------------------------------------- forwarding

    # Each method below is one whole send: read the sender's hop row for the
    # target stage and the counts, resolve the handler, count the packet,
    # push one heap entry.  They are spelled out twice because a shared
    # helper would put a frame on every packet's path.

    def forward_downstream(self, sender, packet):
        """Send ``packet`` from stage ``sender`` to the next stage of its
        session's path, across the link ``sender`` transmits on."""
        target, _, sent = sender.hops[packet.session_id]
        try:
            handler = target.delivery[type(packet)]
        except KeyError:
            raise _unhandled(target, packet) from None
        now = self.simulator.now
        if self._timed:
            self._tracer.record(now, packet.type_name, packet.session_id)
        else:
            sent[packet.kind] += 1
        heappush(self._heap, (now + sender.hop_delay, next(self._sequence),
                              handler, target, packet))

    def forward_upstream(self, sender, packet):
        """Send ``packet`` from stage ``sender`` to the previous stage of its
        session's path, across the reverse of that stage's link.

        A RouterLink also sends Update/Bottleneck packets of *other*
        sessions this way: they start at its position in that session's
        path."""
        _, target, sent = sender.hops[packet.session_id]
        try:
            handler = target.delivery[type(packet)]
        except KeyError:
            raise _unhandled(target, packet) from None
        now = self.simulator.now
        if self._timed:
            self._tracer.record(now, packet.type_name, packet.session_id)
        else:
            sent[packet.kind] += 1
        heappush(self._heap, (now + target.back_delay, next(self._sequence),
                              handler, target, packet))

    # --------------------------------------------------------------- API.Rate

    def notify_rate(self, session_id, rate):
        """``API.Rate``: tell a session its rate, delivered once per instant.

        The rate joins the held batch, replacing the session's earlier rate
        of the same instant; the first call of a later instant delivers the
        held batch first.  ``last_notified_rate`` reflects every call at
        once.
        """
        now = self.simulator.now
        if now != self._rates_at:
            self._deliver_rates()
            self._rates_at = now
        # The attribute, not a local bound before the delivery: delivering
        # starts a new batch.
        self._rates[session_id] = rate

    def _deliver_rates(self):
        """Deliver the held batch, one coalesced ``API.Rate`` per session,
        stamped with the batch's instant.

        Dict insertion order makes delivery order deterministic: sessions are
        notified in the order of their *first* rate update within the instant,
        each carrying its *final* rate.
        """
        batch = self._rates
        if not batch:
            return
        self._rates = {}
        time = self._rates_at
        applications = self._applications
        for session_id, rate in batch.items():
            applications[session_id].deliver_rate(time, rate)
        self.rate_callbacks += len(batch)

    def last_notified_rate(self, session_id):
        """The last rate notified to a session (``None`` before the first),
        delivered or still held."""
        batch = self._rates
        if session_id in batch:
            return batch[session_id]
        return self._applications[session_id].current_rate

    # -------------------------------------------------------------- inspection

    def source(self, session_id):
        """The SourceNode task of a session, the first stage of its path
        (``KeyError`` once a departed session is released)."""
        return self._paths[session_id][0]

    def destination(self, session_id):
        """The DestinationNode task of a session, the last stage of its
        path (``KeyError`` once a departed session is released)."""
        return self._paths[session_id][-1]

    def router_link(self, endpoints):
        """The RouterLink task controlling the directed link ``endpoints``.

        A RouterLink is created when a session first crosses its link; the
        one of a departed session's egress link (into its destination host)
        is deleted when the session is released, router-to-router ones stay.
        """
        return self._per_link[endpoints]

    def router_link_states(self):
        """The :class:`~repro.core.state.LinkState` of every RouterLink task:
        the links held sessions cross, router-to-router links crossed before,
        and the egress links of departed sessions not yet released."""
        return [task.state for task in self._per_link.values()]

    def all_link_states(self):
        """Every link state: RouterLinks plus the access links owned by sources
        of currently active sessions."""
        states = self.router_link_states()
        paths = self._paths
        for session_id in self.registry:
            states.append(paths[session_id][0].state)
        return states

    def application(self, session_id):
        """The :class:`~repro.core.api.SessionApplication` of a session,
        which records every ``API.Rate`` it was delivered."""
        return self._applications[session_id]

    # -------------------------------------------------------------- allocation

    def current_allocation(self):
        """The rate each active session currently believes it may use.

        Before a session's first Response this is 0.  Transient rates stay
        at or below the final max-min rates only while the session set is
        fixed: with every join at one instant and no leave or change during
        convergence, no notified rate exceeded its session's final rate on
        Small and Medium.  A session that joins later lowers the final rates
        of the sessions sharing its bottlenecks, so a rate granted before it
        arrived can exceed them.
        """
        allocation = RateAllocation()
        paths = self._paths
        for session_id in self.registry:
            allocation.set_rate(session_id, paths[session_id][0].current_rate())
        return allocation

    def notified_allocation(self):
        """The last ``API.Rate`` value of every active session (0 if none yet)."""
        allocation = RateAllocation()
        for session_id in self.registry:
            rate = self.last_notified_rate(session_id)
            allocation.set_rate(session_id, 0.0 if rate is None else rate)
        return allocation

    # --------------------------------------------------------------- execution

    @property
    def quiescent(self):
        """True when no event (packet delivery or pending API call) remains."""
        return self.simulator.pending_events == 0

    def run(self, until=None):
        """Run up to a time horizon, or until the heap drains without one,
        and deliver the last instant's ``API.Rate`` batch."""
        stopped = self.simulator.run(until=until)
        self._deliver_rates()
        return stopped

    def run_until_quiescent(self):
        """Run until the event queue drains, and deliver the last instant's
        ``API.Rate`` batch; returns the quiescence time."""
        return self.run()

