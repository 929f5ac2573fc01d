"""Session actions: joins, leaves, rate and capacity changes as data.

Every workload, generated population and test scenario describes its
schedule with the four action records below: plain data resolving every
random choice (endpoints, demands, times) before anything is applied, so a
seeded schedule can be built, inspected and replayed.  :class:`JoinAction` is
the only record of a session to create: who joins, between which routers,
with what demand, when, and over what access links.

* a :class:`JoinAction` attaches one fresh source and one fresh destination
  host to its two routers, creates the session along the shortest path
  between them, and schedules its ``API.Join``;
* a :class:`LeaveAction` / :class:`ChangeAction` schedule ``API.Leave`` /
  ``API.Change`` on a session joined before it and not left: replaying a
  leave marks the session ``left``, and no later action may name it;
* a :class:`CapacityChangeAction` schedules a change of one directed link's
  data-plane capacity, after which the owning RouterLink re-runs its
  bottleneck computation (see
  :meth:`repro.core.router_link.RouterLinkTask.capacity_changed`).

A batch of these records is the one door into a protocol: nothing else
joins, leaves or changes a session, or changes a link's capacity.  Every
protocol extends :class:`SessionProtocol`, the one session lifecycle: its
``apply_actions`` checks the whole batch against the protocol with
:func:`validate_actions`, the one rulebook, releases departed sessions, and
then replays the batch along the routes the check found.  A batch that fails
the check changes nothing.  Replay is deterministic: host attachment,
session creation and API scheduling happen in action order, so a batch
always pushes the same events in the same relative order.
"""

import math

from repro.network.routing import PathComputer, path_links
from repro.network.session import Session, check_demand
from repro.simulator.simulation import Simulator
from repro.simulator.tracing import PacketTracer


class JoinAction(object):
    """``API.Join`` of a new session, with its host attachments.

    ``source_router`` / ``destination_router`` name the (stub) routers the
    fresh hosts attach to; ``host_capacity`` / ``host_delay`` parameterize the
    two access links.  :meth:`~repro.workloads.generator.WorkloadGenerator.generate`
    draws these records for random populations.
    """

    kind = "join"
    __slots__ = (
        "session_id",
        "source_router",
        "destination_router",
        "demand",
        "at",
        "host_capacity",
        "host_delay",
    )

    def __init__(self, session_id, source_router, destination_router, demand,
                 at, host_capacity, host_delay):
        self.session_id = session_id
        self.source_router = source_router
        self.destination_router = destination_router
        self.demand = demand
        self.at = at
        self.host_capacity = host_capacity
        self.host_delay = host_delay

    def __repr__(self):
        return "JoinAction(%r, %r -> %r, demand=%r, at=%r)" % (
            self.session_id,
            self.source_router,
            self.destination_router,
            self.demand,
            self.at,
        )


class LeaveAction(object):
    """``API.Leave`` of an active session at an absolute time."""

    kind = "leave"
    __slots__ = ("session_id", "at")

    def __init__(self, session_id, at):
        self.session_id = session_id
        self.at = at

    def __repr__(self):
        return "LeaveAction(%r, at=%r)" % (self.session_id, self.at)


class ChangeAction(object):
    """``API.Change`` of an active session's maximum rate at an absolute time."""

    kind = "change"
    __slots__ = ("session_id", "demand", "at")

    def __init__(self, session_id, demand, at):
        self.session_id = session_id
        self.demand = demand
        self.at = at

    def __repr__(self):
        return "ChangeAction(%r, demand=%r, at=%r)" % (
            self.session_id,
            self.demand,
            self.at,
        )


class CapacityChangeAction(object):
    """A change of one directed link's data-plane capacity at an absolute time.

    ``source`` / ``target`` name the directed router-to-router link whose
    ``Ce`` changes to ``capacity`` at time ``at``.  When the replayed change
    fires, the network link is mutated and the RouterLink task (if any session
    crosses the link) re-runs its bottleneck computation so the protocol
    reconverges to the max-min allocation of the updated network.  The link's
    *control* delay is deliberately left at its construction-time value (see
    :meth:`repro.network.graph.Link.set_capacity`).
    """

    kind = "capacity"
    __slots__ = ("source", "target", "capacity", "at")

    def __init__(self, source, target, capacity, at):
        self.source = source
        self.target = target
        self.capacity = capacity
        self.at = at

    def __repr__(self):
        return "CapacityChangeAction(%r -> %r, capacity=%r, at=%r)" % (
            self.source,
            self.target,
            self.capacity,
            self.at,
        )


def validate_actions(protocol, actions):
    """Check a whole batch against ``protocol`` before any of it is applied.

    Every action needs a finite absolute time (``at=None`` is resolved before
    an action is built, so a batch means the same schedule whenever it is
    replayed), not dated before the simulator's clock, since every API call
    takes its ``(time, sequence)`` slot on the event heap; every join and
    change a positive, possibly infinite, demand; every capacity change a
    positive finite capacity on a router-to-router link of a protocol that
    supports capacity changes.  A join needs a new session id, new to the
    batch too, valid access links, and two connected routers whose route
    crosses no one-way link, since upstream packets travel each link's
    reverse.  A leave or a change needs a session joined on the protocol or
    earlier in the batch, whose leave was applied neither in an earlier batch
    nor earlier in this one, and is not dated before the session's join: the
    join's time in the batch, or the
    :attr:`~repro.network.session.Session.joined_at` its protocol recorded
    when an earlier batch joined it; nor a leave before a change of it.  A
    failure raises a ``ValueError`` naming the action (``KeyError`` for an
    unknown link) and changes nothing.  Returns ``{session_id: router_path}``.
    """
    dates = {}  # session id -> (join time, latest change time), so far
    left = set()
    routes = {}
    now = protocol.simulator.now
    for action in actions:
        kind = action.kind
        if kind not in ("join", "leave", "change", "capacity"):
            raise ValueError("unknown session action kind %r" % (kind,))
        at = action.at
        if not isinstance(at, (int, float)) or math.isnan(at) or math.isinf(at):
            # An event at infinity would move the clock to infinity, and
            # every later action into the past.
            raise ValueError(
                "action %r needs a finite absolute time, got %r" % (action, at)
            )
        if at < now:
            raise ValueError(
                "action %r is dated before the simulator's clock at %r" % (action, now)
            )
        if kind == "capacity":
            _check_capacity(protocol, action)
            continue
        if kind in ("join", "change") and not action.demand > 0:
            # Named only for a demand check_demand refuses.
            check_demand(action.demand, "action %r" % (action,))
        session_id = action.session_id
        session = _session_or_none(protocol, session_id)
        known = session_id in dates or session is not None
        if kind != "join":
            if not known:
                raise ValueError(
                    "action %r names session %r, which has not joined" % (action, session_id)
                )
            if session_id in left or session is not None and session.left:
                raise ValueError(
                    "action %r names session %r, which has already left" % (action, session_id)
                )
            joined_at, changed_at = dates.get(session_id) or (session.joined_at, session.changed_at)
            if at < joined_at:
                raise ValueError(
                    "action %r is dated before the join of session %r at %r"
                    % (action, session_id, joined_at)
                )
            if kind == "change":
                dates[session_id] = (joined_at, max(changed_at, at))
            elif at < changed_at:
                raise ValueError("action %r is dated before a change of session %r at %r"
                                 % (action, session_id, changed_at))
            else:
                left.add(session_id)
            continue
        if known:
            raise ValueError(
                "action %r joins session %r, which has already joined" % (action, session_id)
            )
        # `Link`'s rule for the two access links, as chained compares (false
        # for NaN), checked before replay attaches either host.
        if not (0 < action.host_capacity < math.inf and 0 <= action.host_delay < math.inf):
            raise ValueError(
                "action %r needs a positive finite host capacity and a "
                "non-negative finite host delay" % (action,)
            )
        try:
            route = protocol.path_computer.router_route(
                action.source_router, action.destination_router
            )
        except ValueError as error:
            raise ValueError("action %r cannot be routed: %s" % (action, error)) from None
        has_link = protocol.network.has_link
        for upstream, downstream in zip(route, route[1:]):
            if not has_link(downstream, upstream):
                raise ValueError(
                    "action %r routes over the one-way link %r -> %r: its "
                    "upstream packets need the reverse link" % (action, upstream, downstream)
                )
        dates[session_id] = (at, -math.inf)
        routes[session_id] = route
    return routes


def _session_or_none(protocol, session_id):
    try:
        return protocol.session(session_id)
    except KeyError:
        return None


def _check_capacity(protocol, action):
    if not (action.capacity > 0 and math.isfinite(action.capacity)):
        raise ValueError(
            "action %r needs a positive finite capacity, got %r"
            % (action, action.capacity)
        )
    if not hasattr(protocol, "schedule_capacity_change"):
        raise ValueError(
            "protocol %r does not support capacity-change actions (only "
            "BNeckProtocol re-runs the bottleneck computation on a capacity "
            "change)" % (protocol,)
        )
    network = protocol.network
    network.link(action.source, action.target)  # KeyError for an unknown link
    for endpoint in (action.source, action.target):
        if not network.node(endpoint).is_router:
            raise ValueError(
                "capacity changes apply to router-to-router links; %r -> %r "
                "touches host %r (access-link bandwidth is a session-demand "
                "concern: use API.Change)" % (action.source, action.target, endpoint)
            )


class SessionProtocol(object):
    """The session lifecycle every protocol shares, and its one door.

    The paper's session API is ``API.Join``, ``API.Leave``, ``API.Change``
    and ``API.Rate``; Experiment 3 drives B-Neck and the baselines through
    it alike.  The first three, and a capacity change, reach a protocol only
    as a batch of action records through :meth:`apply_actions`, and
    :func:`validate_actions` is the one rulebook that refuses a call.  This
    base owns the whole lifecycle: the batch, its replay, the ``(time,
    sequence)`` slot of every API call and the release of departed sessions.
    ``registry`` maps the id of every active session (the paper's ``S``) to
    its :class:`~repro.network.session.Session`, in activation order.

    Replay schedules each action through one of three private steps, which
    check nothing: the batch check has already passed.

    * ``_join(session, at)`` builds what the session needs, records it and
      schedules its ``API.Join``;
    * ``_leave(session, at)`` marks the session ``left`` and schedules its
      ``API.Leave``;
    * ``_schedule_change(session, demand, at)`` schedules its ``API.Change``.

    A protocol supplies only its own steps:

    * ``_setup(session)`` builds what the session needs before it joins;
    * ``_activate(session)``, ``_deactivate(session)`` and
      ``_change(session)`` run when the session's join, leave or change takes
      effect;
    * ``_release(session_id)`` drops the per-session state of a departed
      session.

    ``_setup``, ``_change`` and ``_release`` do nothing unless the protocol
    supplies its own.

    A protocol keeps its per-link state (B-Neck's RouterLink tasks, a
    baseline's link controllers) in ``_per_link``, keyed by link endpoints.
    Its packets are counted by ``tracer``, the
    :class:`~repro.simulator.tracing.PacketTracer` it was built with (a
    counting one if none), which is fixed at construction.

    Once a session's leave has ended it, the session is departed.  Releasing
    it runs the protocol's ``_release`` step and detaches both of its hosts
    through :meth:`~repro.network.graph.Network.detach_host`, dropping the
    ``_per_link`` entries of each host's two access links: a
    :class:`JoinAction` attaches two fresh hosts that only its session
    names, so no other session can still use them.  When a protocol
    releases differs:

    * B-Neck releases at the next :meth:`apply_actions` whose batch passes
      validation, made while the simulator's heap is empty: until then a
      late Response or Update may still name the session;
    * a baseline releases at once, in its ``_deactivate`` step: a pending
      probe cycle of a departed session returns before it reads anything.

    A released session keeps its :class:`~repro.network.session.Session`, so
    :meth:`session` still finds it and a batch that joins its id again is
    still refused, and its packet counts in the tracer.
    """

    def __init__(self, network, tracer=None):
        self.network = network
        self.simulator = Simulator()
        self._tracer = tracer or PacketTracer()
        self.registry = {}
        self.path_computer = PathComputer(network)
        self._sessions = {}
        self._per_link = {}
        # Ids of the sessions whose API.Leave has ended them and which are
        # not released yet, in leave order.
        self._departed = []

    @property
    def tracer(self):
        """The packet tracer, fixed at construction: B-Neck's hop rows hold
        its lists, so no protocol may replace it."""
        return self._tracer

    def _setup(self, session):
        pass

    def _change(self, session):
        pass

    def _release(self, session_id):
        pass

    def apply_actions(self, actions):
        """Apply a batch of session actions.

        ``actions`` are :mod:`repro.core.actions` records with every random
        choice already resolved and an absolute time each.  The whole batch
        is checked against this protocol by :func:`validate_actions` before
        any of it is applied; a batch that fails the check raises and changes
        nothing (no host, session or event, and nothing is released).
        Otherwise, when the simulator's heap is empty, the departed sessions
        are released, and then the batch is replayed in order.  Returns
        ``{session_id: session}`` for the joins.
        """
        actions = list(actions)
        routes = validate_actions(self, actions)
        if not self.simulator.heap:
            self._release_departed()
        return self._replay(actions, routes)

    def _replay(self, actions, routes):
        """Schedule a checked batch in order, along the routes
        :func:`validate_actions` found: no join is routed again.  Host
        attachment, session creation and API scheduling happen in action
        order, so a batch always pushes the same events in the same relative
        order."""
        network = self.network
        sessions = self._sessions
        joined = {}
        for action in actions:
            kind = action.kind
            if kind == "join":
                source, destination = (
                    network.attach_host(router, action.host_capacity, action.host_delay).node_id
                    for router in (action.source_router, action.destination_router)
                )
                node_path = [source] + routes[action.session_id] + [destination]
                session = Session(action.session_id, source, destination, node_path,
                                  path_links(network, node_path), action.demand)
                self._join(session, action.at)
                joined[action.session_id] = session
            elif kind == "leave":
                self._leave(sessions[action.session_id], action.at)
            elif kind == "change":
                self._schedule_change(sessions[action.session_id], action.demand, action.at)
            else:
                self.schedule_capacity_change(action)
        return joined

    def _join(self, session, at):
        """``API.Join``: record the session and the time its join takes
        effect (its ``joined_at``), and schedule its activation."""
        self._setup(session)
        session_id = session.session_id
        self._sessions[session_id] = session
        session.joined_at = at

        def activate():
            self.registry[session_id] = session
            self._activate(session)

        self.simulator.schedule_at(at, activate, tag="API.Join")

    def _leave(self, session, at):
        """``API.Leave``: mark the session ``left`` at once; once the leave
        has ended the active session, the session is departed."""
        session.left = True

        def deactivate():
            if self.registry.pop(session.session_id, None) is not None:
                self._departed.append(session.session_id)
            self._deactivate(session)

        self.simulator.schedule_at(at, deactivate, tag="API.Leave")

    def _schedule_change(self, session, demand, at):
        """``API.Change``: schedule the session's new maximum rate."""

        def apply_change():
            session.demand = demand
            self._change(session)

        self.simulator.schedule_at(at, apply_change, tag="API.Change")
        session.changed_at = max(session.changed_at, at)

    def session(self, session_id):
        """The joined session ``session_id`` (``KeyError`` if it never joined)."""
        return self._sessions[session_id]

    def active_sessions(self):
        """The currently active sessions (the paper's set ``S``)."""
        return list(self.registry.values())

    def run(self, until=None):
        """Run up to a time horizon."""
        return self.simulator.run(until=until)

    def _release_departed(self):
        """Release every departed session: the protocol's step, then both
        of its hosts, with the per-link state of their links."""
        departed, self._departed = self._departed, []
        sessions = self._sessions
        per_link = self._per_link
        for session_id in departed:
            self._release(session_id)
            session = sessions[session_id]
            for host, link in ((session.source, session.links[0]),
                               (session.destination, session.links[-1])):
                # A host attaches to one router: these are its two links.
                per_link.pop(link.endpoints, None)
                per_link.pop(link.endpoints[::-1], None)
                self.network.detach_host(host)

    def __repr__(self):
        return "%s(network=%r, sessions=%d, now=%r)" % (
            type(self).__name__,
            self.network.name,
            len(self.registry),
            self.simulator.now,
        )
