"""Random session populations.

Sessions in the evaluation are "created by choosing a source and a destination
node, uniformly at random among all the network hosts", each host sources at
most one session, and hosts hang off stub routers.  The generator reproduces
this by attaching one fresh source host and one fresh destination host (both on
uniformly chosen stub routers) per session.

Demands are drawn from a *demand sampler*: a callable taking the random source
and returning a maximum requested rate (possibly infinite).
"""

import math

from repro.core.actions import join_action_from_spec, schedule_actions
from repro.network.transit_stub import HOST_LINK_CAPACITY, HOST_LINK_DELAY, stub_routers
from repro.simulator.random_source import RandomSource


def infinite_demand():
    """Demand sampler: every session requests an unbounded rate."""

    def sample(random_source):
        return math.inf

    return sample


def uniform_demand(low, high):
    """Demand sampler: demands drawn uniformly from ``[low, high]`` (bits/s)."""
    if low <= 0 or high < low:
        raise ValueError("need 0 < low <= high")

    def sample(random_source):
        return random_source.uniform(low, high)

    return sample


def mixed_demand(infinite_fraction, low, high):
    """Demand sampler: a fraction of sessions is unbounded, the rest uniform."""
    if not 0.0 <= infinite_fraction <= 1.0:
        raise ValueError("infinite_fraction must be in [0, 1]")
    bounded = uniform_demand(low, high)

    def sample(random_source):
        if random_source.random() < infinite_fraction:
            return math.inf
        return bounded(random_source)

    return sample


class SessionSpec(object):
    """A session to be created: endpoints (routers), demand and join time."""

    __slots__ = ("session_id", "source_router", "destination_router", "demand", "join_time")

    def __init__(self, session_id, source_router, destination_router, demand, join_time):
        self.session_id = session_id
        self.source_router = source_router
        self.destination_router = destination_router
        self.demand = demand
        self.join_time = join_time

    def __repr__(self):
        return "SessionSpec(%r, %r -> %r, demand=%r, t=%r)" % (
            self.session_id,
            self.source_router,
            self.destination_router,
            self.demand,
            self.join_time,
        )


class WorkloadGenerator(object):
    """Generates and installs random session populations on a protocol.

    The same generator drives :class:`~repro.core.protocol.BNeckProtocol` and
    the baselines, since they share the ``create_session`` / ``join`` /
    ``leave`` / ``change`` API.
    """

    def __init__(
        self,
        network,
        seed=0,
        host_capacity=HOST_LINK_CAPACITY,
        host_delay=HOST_LINK_DELAY,
        attachment_routers=None,
    ):
        self.network = network
        self.random_source = RandomSource(seed).fork("workload")
        self.host_capacity = host_capacity
        self.host_delay = host_delay
        if attachment_routers is None:
            attachment_routers = stub_routers(network)
            if not attachment_routers:
                attachment_routers = [node.node_id for node in network.routers()]
        if len(attachment_routers) < 2:
            raise ValueError("need at least two routers to attach hosts to")
        self.attachment_routers = list(attachment_routers)
        self._spec_counter = 0

    # ------------------------------------------------------------ generation

    def generate(self, count, join_window=(0.0, 1e-3), demand_sampler=None, prefix="s"):
        """Generate ``count`` session specs joining inside ``join_window``."""
        if demand_sampler is None:
            demand_sampler = infinite_demand()
        start, end = join_window
        if end < start:
            raise ValueError("join_window end must not precede its start")
        specs = []
        for _ in range(count):
            self._spec_counter += 1
            source_router, destination_router = self.random_source.pair(self.attachment_routers)
            specs.append(
                SessionSpec(
                    session_id="%s%d" % (prefix, self._spec_counter),
                    source_router=source_router,
                    destination_router=destination_router,
                    demand=demand_sampler(self.random_source),
                    join_time=self.random_source.uniform(start, end),
                )
            )
        return specs

    # ---------------------------------------------------------- installation

    def install(self, protocol, specs):
        """Attach hosts, create the sessions and schedule their joins.

        Specs are converted into :class:`~repro.core.actions.JoinAction`
        records and applied through the protocol's ``apply_actions`` (one
        code path with every other workload, so schedules stay bit-identical
        however a session is installed).  Returns ``{session_id: session}``
        for the installed specs.
        """
        actions = [
            join_action_from_spec(spec, self.host_capacity, self.host_delay)
            for spec in specs
        ]
        return schedule_actions(protocol, actions)

    def populate(self, protocol, count, join_window=(0.0, 1e-3), demand_sampler=None, prefix="s"):
        """``generate`` + ``install`` in one call; returns ``{session_id: session}``."""
        specs = self.generate(count, join_window, demand_sampler, prefix)
        return self.install(protocol, specs)

    # -------------------------------------------------------------- dynamics

    def pick_sessions(self, session_ids, count, clamp=False):
        """Choose ``count`` distinct sessions to act on (leave / change).

        Asking for more sessions than the population holds is an error by
        default -- silently shrinking the sample used to under-report churn.
        Pass ``clamp=True`` for best-effort sampling (the phase machinery does,
        and records the shortfall in
        :attr:`~repro.workloads.dynamics.PhaseOutcome.shortfalls`).
        """
        session_ids = list(session_ids)
        if count > len(session_ids):
            if not clamp:
                raise ValueError(
                    "cannot pick %d sessions from a population of %d; shrink "
                    "the request or pass clamp=True to sample best-effort"
                    % (count, len(session_ids))
                )
            count = len(session_ids)
        return self.random_source.sample(session_ids, count)

    def random_times(self, count, window):
        """``count`` action times drawn uniformly from ``window``."""
        start, end = window
        if end < start:
            # An inverted window used to emit times *outside* the phase,
            # which schedule_actions then scheduled in the past.
            raise ValueError(
                "random_times window start %r exceeds its end %r; pass the "
                "window as (start, end) with start <= end" % (start, end)
            )
        return [self.random_source.uniform(start, end) for _ in range(count)]

    def random_demand(self, demand_sampler=None):
        if demand_sampler is None:
            demand_sampler = infinite_demand()
        return demand_sampler(self.random_source)
