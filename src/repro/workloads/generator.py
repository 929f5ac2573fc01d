"""Random session populations, as :class:`~repro.core.actions.JoinAction` records.

Sessions in the evaluation are "created by choosing a source and a destination
node, uniformly at random among all the network hosts", each host sources at
most one session, and hosts hang off stub routers.  The generator reproduces
this with one :class:`~repro.core.actions.JoinAction` per session: its two
routers are drawn uniformly among the stub routers, and the replayed join
attaches one fresh source host and one fresh destination host to them.  The
generator only draws; a protocol's ``apply_actions`` applies the joins, like
every other batch of actions.

Demands are drawn from a *demand sampler*: a callable taking the random source
and returning a maximum requested rate (possibly infinite).
"""

import math

from repro.core.actions import JoinAction
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


class WorkloadGenerator(object):
    """Draws random session populations and churn from one seeded stream.

    Its joins go through any protocol's ``apply_actions``:
    :class:`~repro.core.protocol.BNeckProtocol` and the baselines share it.
    """

    def __init__(self, network, seed=0, attachment_routers=None):
        self.random_source = RandomSource(seed).fork("workload")
        if attachment_routers is None:
            attachment_routers = stub_routers(network)
            if not attachment_routers:
                attachment_routers = [node.node_id for node in network.routers()]
        if len(attachment_routers) < 2:
            raise ValueError("need at least two routers to attach hosts to")
        self.attachment_routers = list(attachment_routers)
        self._join_counter = 0

    # ------------------------------------------------------------ generation

    def generate(self, count, join_window=(0.0, 1e-3), demand_sampler=None, prefix="s"):
        """``count`` :class:`~repro.core.actions.JoinAction` records joining
        inside ``join_window``, each host on a ``HOST_LINK_CAPACITY``,
        ``HOST_LINK_DELAY`` access link.

        Per session it draws the router pair, then the demand, then the join
        time.  Apply the result with a protocol's (or an
        :class:`~repro.experiments.runner.ExperimentRunner`'s)
        ``apply_actions``.
        """
        if demand_sampler is None:
            demand_sampler = infinite_demand()
        start, end = join_window
        if end < start:
            raise ValueError("join_window end must not precede its start")
        joins = []
        for _ in range(count):
            self._join_counter += 1
            source_router, destination_router = self.random_source.pair(self.attachment_routers)
            joins.append(
                JoinAction(
                    session_id="%s%d" % (prefix, self._join_counter),
                    source_router=source_router,
                    destination_router=destination_router,
                    demand=demand_sampler(self.random_source),
                    at=self.random_source.uniform(start, end),
                    host_capacity=HOST_LINK_CAPACITY,
                    host_delay=HOST_LINK_DELAY,
                )
            )
        return joins

    # -------------------------------------------------------------- dynamics

    def pick_sessions(self, session_ids, count, clamp=False):
        """Choose ``count`` distinct sessions to act on (leave / change).

        Asking for more sessions than the population holds is an error by
        default -- silently shrinking the sample used to under-report churn.
        Pass ``clamp=True`` for best-effort sampling (the phase machinery does,
        and records the shortfall in
        :attr:`~repro.workloads.stochastic.PhaseChurnWorkload.records`).
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
            # which apply_actions then scheduled in the past.
            raise ValueError(
                "random_times window start %r exceeds its end %r; pass the "
                "window as (start, end) with start <= end" % (start, end)
            )
        return [self.random_source.uniform(start, end) for _ in range(count)]

    def random_demand(self, demand_sampler=None):
        if demand_sampler is None:
            demand_sampler = infinite_demand()
        return demand_sampler(self.random_source)
