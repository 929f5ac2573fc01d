"""Session actions: joins, leaves, rate and capacity changes as data.

The workloads describe their schedules with the four action records below:
plain data resolving every random choice (endpoints, demands, times) before
anything is applied, so a seeded schedule can be built, inspected and
replayed through the one :func:`replay_actions` code path:

* a :class:`JoinAction` attaches one fresh source and one fresh destination
  host, creates the session along the shortest path, and schedules its
  ``API.Join``;
* a :class:`LeaveAction` / :class:`ChangeAction` schedule ``API.Leave`` /
  ``API.Change`` on an existing session;
* a :class:`CapacityChangeAction` schedules a change of one directed link's
  data-plane capacity, after which the owning RouterLink re-runs its
  bottleneck computation (see
  :meth:`repro.core.router_link.RouterLinkTask.capacity_changed`).

Replay is deterministic: host attachment, session creation and API scheduling
happen in action order, so a batch always pushes the same events in the same
relative order.

Every protocol applies a batch through its own ``apply_actions``
(:meth:`repro.core.protocol.BNeckProtocol.apply_actions`,
:meth:`repro.baselines.base.BaselineProtocol.apply_actions`), which checks the
whole batch with :func:`validate_actions` before it replays any of it through
:func:`replay_actions`.
"""

import math

from repro.network.session import check_demand


class JoinAction(object):
    """``API.Join`` of a new session, with its host attachments.

    ``source_router`` / ``destination_router`` name the (stub) routers the
    fresh hosts attach to; ``host_capacity`` / ``host_delay`` parameterize the
    access links exactly as :class:`~repro.workloads.generator.WorkloadGenerator`
    would.
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


def join_action_from_spec(spec, host_capacity, host_delay):
    """Turn a :class:`~repro.workloads.generator.SessionSpec` into a JoinAction."""
    return JoinAction(
        session_id=spec.session_id,
        source_router=spec.source_router,
        destination_router=spec.destination_router,
        demand=spec.demand,
        at=spec.join_time,
        host_capacity=host_capacity,
        host_delay=host_delay,
    )


def replay_actions(protocol, actions):
    """Apply a batch of session actions to ``protocol``, in order.

    Works with any protocol exposing the shared session API
    (``network`` / ``create_session`` / ``join`` / ``leave`` / ``change``).
    Returns ``{session_id: session}`` for the sessions the join actions
    created, mirroring :meth:`~repro.workloads.generator.WorkloadGenerator.install`.
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
        elif kind == "capacity":
            schedule = getattr(protocol, "schedule_capacity_change", None)
            if schedule is None:
                raise ValueError(
                    "protocol %r does not support capacity-change actions "
                    "(only BNeckProtocol re-runs the bottleneck computation "
                    "on a capacity change)" % (protocol,)
                )
            schedule(action)
        else:
            raise ValueError("unknown session action kind %r" % (kind,))
    return joined


def validate_actions(actions):
    """Sanity-check a batch before any of it is applied.

    Every action must carry a concrete absolute time: ``at=None`` (meaning
    "right now") is resolved *before* an action is built, so a batch means
    the same schedule whenever it is replayed.  Every join and change must
    carry a positive (possibly infinite) demand, and every capacity change a
    positive finite capacity.
    """
    for action in actions:
        if action.kind not in ("join", "leave", "change", "capacity"):
            raise ValueError("unknown session action kind %r" % (action.kind,))
        at = action.at
        if not isinstance(at, (int, float)) or math.isnan(at) or math.isinf(at):
            # An event at infinity would move the clock to infinity, and
            # every later action into the past.
            raise ValueError(
                "action %r needs a finite absolute time, got %r" % (action, at)
            )
        if action.kind in ("join", "change"):
            check_demand(action.demand, "action %r" % (action,))
        if action.kind == "capacity" and not (
            action.capacity > 0 and math.isfinite(action.capacity)
        ):
            raise ValueError(
                "action %r needs a positive finite capacity, got %r"
                % (action, action.capacity)
            )
    return actions
