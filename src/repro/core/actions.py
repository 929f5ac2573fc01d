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
  ``API.Change`` on a session joined before it and not left: a protocol's
  ``leave`` marks the session ``left``, and no later action may name it;
* a :class:`CapacityChangeAction` schedules a change of one directed link's
  data-plane capacity, after which the owning RouterLink re-runs its
  bottleneck computation (see
  :meth:`repro.core.router_link.RouterLinkTask.capacity_changed`).

Every protocol applies a batch through its own ``apply_actions``
(:meth:`repro.core.protocol.BNeckProtocol.apply_actions`,
:meth:`repro.baselines.base.BaselineProtocol.apply_actions`), which checks the
whole batch against itself with :func:`validate_actions` and then replays it
through :func:`replay_actions`.  A batch that fails the check changes nothing.
Replay is deterministic: host attachment, session creation and API scheduling
happen in action order, so a batch always pushes the same events in the same
relative order.
"""

import math

from repro.network.session import check_demand


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


def replay_actions(protocol, actions):
    """Apply a batch of session actions to ``protocol``, in order.

    Works with any protocol exposing the shared session API
    (``network`` / ``create_session`` / ``join`` / ``leave`` / ``change``,
    and ``schedule_capacity_change`` for capacity actions).  The batch must
    have passed :func:`validate_actions` against the same protocol.
    Returns ``{session_id: session}`` for the sessions the join actions
    created.
    """
    network = protocol.network
    joined = {}
    for action in actions:
        kind = action.kind
        if kind == "join":
            source_host = network.attach_host(
                action.source_router, action.host_capacity, action.host_delay
            )
            destination_host = network.attach_host(
                action.destination_router, action.host_capacity, action.host_delay
            )
            session = protocol.create_session(
                source_host.node_id,
                destination_host.node_id,
                demand=action.demand,
                session_id=action.session_id,
            )
            protocol.join(session, at=action.at)
            joined[action.session_id] = session
        elif kind == "leave":
            protocol.leave(action.session_id, at=action.at)
        elif kind == "change":
            protocol.change(action.session_id, action.demand, at=action.at)
        else:
            protocol.schedule_capacity_change(action)
    return joined


def validate_actions(protocol, actions):
    """Check a whole batch against ``protocol`` before any of it is applied.

    Every action needs a finite absolute time (``at=None`` is resolved before
    an action is built, so a batch means the same schedule whenever it is
    replayed); every join and change a positive, possibly infinite, demand;
    every capacity change a positive finite capacity on a router-to-router
    link of a protocol that supports capacity changes.  A join needs a new
    session id, new to the batch too, valid access links, and two connected
    routers (routed here: the path computer's cache makes the replay's
    routing free) whose route crosses no one-way link, since upstream packets
    travel each link's reverse.  A leave or a change needs a session joined
    on the protocol or earlier in the batch, and not dated before a join in
    the batch, whose leave was applied neither in an earlier batch nor
    earlier in this one.  A failure raises a
    ``ValueError`` naming the action (``KeyError`` for an unknown link) and
    changes nothing.  Returns ``actions``.
    """
    joined = {}  # session id -> time, for the joins of the batch
    left = set()
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
        if kind == "capacity":
            _check_capacity(protocol, action)
            continue
        if kind in ("join", "change"):
            check_demand(action.demand, "action %r" % (action,))
        session_id = action.session_id
        session = _session_or_none(protocol, session_id)
        known = session_id in joined or session is not None
        if kind != "join":
            if not known:
                raise ValueError(
                    "action %r names session %r, which has not joined" % (action, session_id)
                )
            if session_id in left or session is not None and session.left:
                raise ValueError(
                    "action %r names session %r, which has already left" % (action, session_id)
                )
            if at < joined.get(session_id, at):
                raise ValueError(
                    "action %r is dated before the join of session %r at %r"
                    % (action, session_id, joined[session_id])
                )
            if kind == "leave":
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
        joined[session_id] = at
    return actions


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
