"""Workloads as rounds: the paper's phase churn and open-loop stochastic scenarios.

Every workload is resolved into plain :mod:`repro.core.actions` batches:

* :class:`PhaseChurnWorkload` -- the paper's Experiment 2: consecutive
  phases of churn (mass join, leave, rate change, join, mixed), each
  compressed into a short window;
* :class:`PoissonChurnWorkload` -- Poisson session arrivals with
  exponentially distributed holding times (an M/M/∞-style session process);
* :class:`FlashCrowdWorkload` -- a burst of correlated joins whose
  destinations all land in one stub-domain subtree;
* :class:`HeavyTailedDemandWorkload` -- storms of ``API.Change`` requests
  with Pareto-distributed (heavy-tailed) new demands;
* :class:`CapacityDynamicsWorkload` -- link-capacity degradations and
  recoveries (:class:`~repro.core.actions.CapacityChangeAction`), validated
  on the updated network at every quiescence point.

The stochastic ones are *open-loop*: the workload does not react to protocol
state, so an entire segment of it can be resolved up front.

The round contract
------------------

A workload yields *rounds*: ``(label, actions)`` batches in which every
random choice (endpoints, demands, times, links, factors) has already been
resolved against the seeded random streams, and every action carries an
absolute time at or after the yield-time clock.  Because the batch is plain
data applied through the protocol's ``apply_actions``, a seed pins the whole
scenario, packet for packet (the goldens in
``tests/data/cross_engine_goldens.json`` enforce this).  Rounds are generated
lazily: each one anchors at the simulator clock *after* the previous round
reached quiescence (the stochastic ones :data:`START_OFFSET` after it), so
no action of a sustained process of any length is dated in the past.

:meth:`repro.experiments.runner.ExperimentRunner.run_scenario` is the one
driver of every workload -- apply a round, run to quiescence, validate
with the checkpoint verdict of :mod:`repro.core.validation`, measure,
repeat.  :data:`WORKLOADS` maps each workload's ``name`` to its class, so
``WORKLOADS["poisson-churn"]()`` builds one by name (see
``docs/workloads.md`` for the authoring guide).
"""

import math
from collections import namedtuple

from repro.core.actions import (
    CapacityChangeAction,
    ChangeAction,
    JoinAction,
    LeaveAction,
)
from repro.network.transit_stub import HOST_LINK_CAPACITY, HOST_LINK_DELAY, STUB_TIER
from repro.workloads.generator import uniform_demand

#: Each round of a stochastic workload starts this long (s) after the
#: simulator clock at which it is drawn, the previous round's quiescence.
START_OFFSET = 1e-4
#: The window (s) a population's joins, a burst's changes and a crowd's
#: departures spread over.
WINDOW = 1e-3
#: The demands of every population join: uniform in ``[1, 80]`` Mb/s.
UNIFORM_DEMAND = uniform_demand(1e6, 80e6)
#: A flash crowd's base population, and the window (s) its crowd joins in.
CROWD_BASE_SESSIONS = 20
CROWD_WINDOW = 2e-4
#: A heavy-tailed change draws ``PARETO_SCALE * Pareto(PARETO_ALPHA)`` b/s.
PARETO_ALPHA = 1.5
PARETO_SCALE = 2e6


def destination_subtrees(network):
    """Group the stub routers into their stub-domain 'subtrees'.

    Returns ``{domain_prefix: [router ids]}`` using the transit-stub naming
    scheme (``s<domain>.<sponsor>.<stub>.<node>``).  Teaching topologies
    without a stub tier degrade to one group holding every router.
    """
    domains = {}
    for node in network.routers():
        if node.tier == STUB_TIER:
            domains.setdefault(node.node_id.rsplit(".", 1)[0], []).append(node.node_id)
    if not domains:
        domains["all"] = [node.node_id for node in network.routers()]
    return domains


def crossed_router_links(protocol):
    """The directed router-to-router links crossed by active sessions, sorted.

    This is the interesting candidate set for capacity dynamics: changing an
    uncrossed link's capacity perturbs nothing.  Computed from session paths
    only, so it depends on session membership and nothing else.
    """
    network = protocol.network
    crossed = set()
    for session in protocol.active_sessions():
        for link in session.transit_links:
            source, target = link.endpoints
            if network.node(source).is_router and network.node(target).is_router:
                crossed.add((source, target))
    return sorted(crossed)


class StochasticWorkload(object):
    """Base class: a named generator of action rounds.

    Subclasses implement :meth:`rounds`, a *lazy* generator of
    ``(label, actions)`` batches.  Between two yields the caller applies
    the batch and runs the protocol to quiescence, so each round must read
    ``runner.protocol.simulator.now`` afresh and date its actions strictly
    inside the future.  All randomness must come from the runner's generator
    streams (``runner.generator.random_source`` et al.) so a seed pins the
    entire scenario.  A workload has a non-empty ``name`` and is listed in
    :data:`WORKLOADS` under it.
    """

    name = None

    def rounds(self, runner):
        raise NotImplementedError

    def __repr__(self):
        return "%s(name=%r)" % (type(self).__name__, self.name)


class DynamicPhase(object):
    """One phase of session churn.

    Attributes:
        name: label used in reports ("join", "leave", "change", "mixed", ...).
        joins: number of sessions that join during the phase window.
        leaves: number of active sessions that leave.
        changes: number of active sessions that change their maximum rate.
        window: length (seconds) of the burst at the beginning of the phase.
    """

    def __init__(self, name, joins=0, leaves=0, changes=0, window=1e-3):
        if min(joins, leaves, changes) < 0:
            raise ValueError("phase action counts must be non-negative")
        if window <= 0:
            raise ValueError("phase window must be positive")
        self.name = name
        self.joins = joins
        self.leaves = leaves
        self.changes = changes
        self.window = window

    def __repr__(self):
        return "DynamicPhase(%r, joins=%d, leaves=%d, changes=%d, window=%r)" % (
            self.name,
            self.joins,
            self.leaves,
            self.changes,
            self.window,
        )


def DEFAULT_PHASES(initial_sessions, churn_fraction=0.2):
    """The paper's five phases, scaled to ``initial_sessions``, each with a
    1 ms window."""
    churn = max(1, int(round(initial_sessions * churn_fraction)))
    return [
        DynamicPhase("join", joins=initial_sessions),
        DynamicPhase("leave", leaves=churn),
        DynamicPhase("change", changes=churn),
        DynamicPhase("join2", joins=churn),
        DynamicPhase("mixed", joins=churn, leaves=churn, changes=churn),
    ]


def phase_actions(generator, phase, active_ids, start_time, demand_sampler):
    """Resolve one churn phase into an action batch.

    Consumes the generator's random streams in a fixed order (victim picks,
    then leave times, then change times, then per-change demands, then
    joins), so fixed-seed schedules are bit-identical to earlier releases.

    Returns ``(actions, shortfalls)``: ``actions`` are ordered leaves,
    changes, joins -- the order they must be applied in -- and
    ``shortfalls`` records any request the live population could not supply
    (``{"leaves"|"changes": (requested, applied)}``; empty when every
    request was met).  Shortfalls are *surfaced*, not fatal: the sample is
    clamped to the population, but the caller can see how much churn was
    lost.
    """
    window = (start_time, start_time + phase.window)
    left_ids = (
        generator.pick_sessions(active_ids, phase.leaves, clamp=True)
        if phase.leaves
        else []
    )
    left = set(left_ids)
    remaining = [session_id for session_id in active_ids if session_id not in left]
    changed_ids = (
        generator.pick_sessions(remaining, phase.changes, clamp=True)
        if phase.changes
        else []
    )
    shortfalls = {}
    if len(left_ids) < phase.leaves:
        shortfalls["leaves"] = (phase.leaves, len(left_ids))
    if len(changed_ids) < phase.changes:
        shortfalls["changes"] = (phase.changes, len(changed_ids))

    actions = []
    for session_id, when in zip(left_ids, generator.random_times(len(left_ids), window)):
        actions.append(LeaveAction(session_id, when))
    for session_id, when in zip(changed_ids, generator.random_times(len(changed_ids), window)):
        new_demand = generator.random_demand(demand_sampler)
        if math.isinf(new_demand):
            new_demand = HOST_LINK_CAPACITY
        actions.append(ChangeAction(session_id, new_demand, when))
    if phase.joins:
        actions += generator.generate(
            phase.joins,
            join_window=window,
            demand_sampler=demand_sampler,
            prefix="%s-" % phase.name,
        )
    return actions, shortfalls


#: What one phase of a :class:`PhaseChurnWorkload` run started at and lost.
PhaseRecord = namedtuple("PhaseRecord", ("phase", "start_time", "shortfalls"))


class PhaseChurnWorkload(StochasticWorkload):
    """The paper's Experiment 2: consecutive phases of churn, one per round.

    Each :class:`DynamicPhase` becomes one round whose leaves, changes and
    joins all fall inside its ``window``.  The first phase starts at the
    simulator clock, each later one ``gap`` seconds after the previous
    phase's quiescence.  Leaves and changes pick their victims among
    ``runner.active_ids``.  New sessions are named ``"<phase>-<n>"``.

    ``records`` holds one :data:`PhaseRecord` per phase of the latest run
    (its start time and its shortfalls, see :func:`phase_actions`); each
    call of :meth:`rounds` starts it afresh.  By default the phases are the
    paper's five, sized for the Small topology, and demands are uniform in
    ``[1, 80]`` Mb/s.
    """

    name = "phase-churn"

    def __init__(self, phases=None, demand_sampler=None, gap=1e-3):
        self.phases = DEFAULT_PHASES(40) if phases is None else list(phases)
        self.demand_sampler = UNIFORM_DEMAND if demand_sampler is None else demand_sampler
        self.gap = gap
        self.records = []

    def rounds(self, runner):
        simulator = runner.protocol.simulator
        self.records = []
        for phase in self.phases:
            start = simulator.now + self.gap if self.records else simulator.now
            actions, shortfalls = phase_actions(
                runner.generator, phase, runner.active_ids, start, self.demand_sampler
            )
            self.records.append(PhaseRecord(phase, start, shortfalls))
            yield ("%s %s" % (self.name, phase.name), actions)


class PoissonChurnWorkload(StochasticWorkload):
    """Open-loop Poisson arrivals with exponential holding times.

    Sessions arrive as a Poisson process of rate ``arrival_rate`` (per
    second) over a segment of length ``horizon``; each holds for an
    ``Exp(1/mean_holding)`` duration and leaves.  ``segments`` consecutive
    segments are emitted, each anchored after the previous segment's
    quiescence; a session whose departure falls beyond its segment carries
    its *residual* holding time into the following segments (the
    inter-segment quiescence gap is frozen time for the session process), so
    the population converges toward the M/M/inf steady state
    ``arrival_rate * mean_holding``.  Sessions still holding after the last
    segment remain in service at the measurement point.
    """

    name = "poisson-churn"

    def __init__(
        self,
        arrival_rate=3000.0,
        mean_holding=5e-3,
        horizon=10e-3,
        segments=2,
        demand_low=1e6,
        demand_high=80e6,
    ):
        for name, value in (("arrival_rate", arrival_rate), ("mean_holding", mean_holding),
                            ("horizon", horizon)):
            if not 0 < value < math.inf:
                raise ValueError("%s must be positive and finite, got %r" % (name, value))
        if segments < 1:
            raise ValueError("need at least one segment")
        self.arrival_rate = arrival_rate
        self.mean_holding = mean_holding
        self.horizon = horizon
        self.segments = segments
        self.demand_low = demand_low
        self.demand_high = demand_high

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source
        sampler = uniform_demand(self.demand_low, self.demand_high)
        carried = []  # (session_id, residual holding beyond the previous segment)
        for segment in range(1, self.segments + 1):
            start = runner.protocol.simulator.now + START_OFFSET
            end = start + self.horizon
            actions = []
            next_carried = []
            for session_id, residual in carried:
                departure = start + residual
                if departure < end:
                    actions.append(LeaveAction(session_id, departure))
                else:
                    next_carried.append((session_id, departure - end))
            arrivals = 0
            t = start
            while True:
                t += rng.expovariate(self.arrival_rate)
                if t >= end:
                    break
                arrivals += 1
                join = generator.generate(
                    1,
                    join_window=(t, t),
                    demand_sampler=sampler,
                    prefix="%s%d-" % (self.name, segment),
                )[0]
                actions.append(join)
                departure = t + rng.expovariate(1.0 / self.mean_holding)
                if departure < end:
                    actions.append(LeaveAction(join.session_id, departure))
                else:
                    next_carried.append((join.session_id, departure - end))
            carried = next_carried
            yield ("%s segment %d (%d arrivals)" % (self.name, segment, arrivals), actions)


class FlashCrowdWorkload(StochasticWorkload):
    """A flash crowd: many correlated joins onto one destination subtree.

    A base population of :data:`CROWD_BASE_SESSIONS` joins first; then
    ``crowd_size`` sessions arrive within a :data:`CROWD_WINDOW` burst, every
    destination attached inside a single randomly chosen stub domain (the
    'subtree' under one sponsoring transit router) while sources stay
    uniform -- the hot-spot pattern that concentrates load on the domain's
    gateway links.  With ``depart`` the crowd drains away in a final round,
    returning the network to its base allocation.
    """

    name = "flash-crowd"

    def __init__(self, crowd_size=40, depart=True):
        if crowd_size < 1:
            raise ValueError("need at least one crowd session")
        self.crowd_size = crowd_size
        self.depart = depart

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source

        start = runner.protocol.simulator.now + START_OFFSET
        actions = generator.generate(
            CROWD_BASE_SESSIONS,
            join_window=(start, start + WINDOW),
            demand_sampler=UNIFORM_DEMAND,
            prefix="%s-base-" % self.name,
        )
        yield ("%s base population (%d)" % (self.name, CROWD_BASE_SESSIONS), actions)

        subtrees = destination_subtrees(runner.network)
        subtree = rng.choice(sorted(subtrees))
        targets = subtrees[subtree]
        start = runner.protocol.simulator.now + START_OFFSET
        crowd_ids = []
        actions = []
        for index in range(1, self.crowd_size + 1):
            destination = rng.choice(targets)
            sources = [
                router
                for router in generator.attachment_routers
                if router != destination
            ]
            session_id = "%s-crowd-%d" % (self.name, index)
            crowd_ids.append(session_id)
            actions.append(
                JoinAction(
                    session_id=session_id,
                    source_router=rng.choice(sources),
                    destination_router=destination,
                    demand=UNIFORM_DEMAND(rng),
                    at=rng.uniform(start, start + CROWD_WINDOW),
                    host_capacity=HOST_LINK_CAPACITY,
                    host_delay=HOST_LINK_DELAY,
                )
            )
        yield (
            "%s crowd of %d onto subtree %s" % (self.name, self.crowd_size, subtree),
            actions,
        )

        if self.depart:
            start = runner.protocol.simulator.now + START_OFFSET
            times = generator.random_times(len(crowd_ids), (start, start + WINDOW))
            actions = [
                LeaveAction(session_id, when)
                for session_id, when in zip(crowd_ids, times)
            ]
            yield ("%s crowd departs" % self.name, actions)


class HeavyTailedDemandWorkload(StochasticWorkload):
    """Storms of rate changes with Pareto (heavy-tailed) new demands.

    A fixed population joins with demands uniform in ``[1, 40]`` Mb/s; then
    each of ``bursts`` rounds re-negotiates ``changes_per_burst`` distinct
    sessions to demands drawn from ``PARETO_SCALE * Pareto(PARETO_ALPHA)``
    (clamped to the host access capacity).  With an alpha of at most 2 the
    demand distribution has infinite variance: most changes are small, a few
    are enormous -- the elephant/mice mix that shifts bottlenecks between
    bursts.
    """

    name = "heavy-tailed-demand"

    def __init__(self, sessions=30, bursts=2, changes_per_burst=20):
        if changes_per_burst > sessions:
            raise ValueError(
                "changes_per_burst (%d) cannot exceed the population (%d): "
                "changes pick distinct sessions" % (changes_per_burst, sessions)
            )
        self.sessions = sessions
        self.bursts = bursts
        self.changes_per_burst = changes_per_burst

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source

        start = runner.protocol.simulator.now + START_OFFSET
        actions = generator.generate(
            self.sessions,
            join_window=(start, start + WINDOW),
            demand_sampler=uniform_demand(1e6, 40e6),
            prefix="%s-" % self.name,
        )
        population = [join.session_id for join in actions]
        yield ("%s population (%d)" % (self.name, self.sessions), actions)

        for burst in range(1, self.bursts + 1):
            start = runner.protocol.simulator.now + START_OFFSET
            victims = generator.pick_sessions(population, self.changes_per_burst)
            times = generator.random_times(len(victims), (start, start + WINDOW))
            actions = []
            for session_id, when in zip(victims, times):
                demand = min(PARETO_SCALE * rng.paretovariate(PARETO_ALPHA), HOST_LINK_CAPACITY)
                actions.append(ChangeAction(session_id, demand, when))
            yield ("%s burst %d (%d changes)" % (self.name, burst, len(actions)), actions)


class CapacityDynamicsWorkload(StochasticWorkload):
    """Link-capacity degradations and recovery under a live population.

    After a population joins, each of ``events`` rounds picks one directed
    router-to-router link currently crossed by active sessions and rescales
    its capacity (both directions) by a factor drawn from
    ``[factor_low, factor_high]`` of the link's *original* bandwidth --
    modelling partial degradation (factors < 1) or upgrades (factors > 1).
    Every event is followed by a quiescence point where the allocation is
    validated on the *updated* capacities; a final round returns every
    touched link to its original bandwidth and validates once more.
    """

    name = "capacity-dynamics"

    def __init__(self, sessions=30, events=3, factor_low=0.08, factor_high=0.5):
        if events < 1:
            raise ValueError("need at least one capacity event")
        if factor_low <= 0 or factor_high < factor_low:
            raise ValueError("need 0 < factor_low <= factor_high")
        self.sessions = sessions
        self.events = events
        self.factor_low = factor_low
        self.factor_high = factor_high

    def rounds(self, runner):
        generator = runner.generator
        rng = generator.random_source

        start = runner.protocol.simulator.now + START_OFFSET
        actions = generator.generate(
            self.sessions,
            join_window=(start, start + WINDOW),
            demand_sampler=UNIFORM_DEMAND,
            prefix="%s-" % self.name,
        )
        yield ("%s population (%d)" % (self.name, self.sessions), actions)

        # Original bandwidth per *directed* link, recorded for both directions
        # the first time an event touches their pair: every cut scales each
        # direction from its own first-seen capacity (so reverse-direction
        # picks in later events never compound on an already-cut value, and
        # asymmetric per-direction bandwidths are preserved), and the restore
        # round undoes exactly these recordings.
        originals = {}
        network = runner.network
        for event in range(1, self.events + 1):
            candidates = crossed_router_links(runner.protocol)
            if not candidates:
                break
            source, target = rng.choice(candidates)
            for endpoints in ((source, target), (target, source)):
                if endpoints not in originals:
                    originals[endpoints] = network.link(*endpoints).capacity
            factor = rng.uniform(self.factor_low, self.factor_high)
            at = runner.protocol.simulator.now + START_OFFSET
            actions = [
                CapacityChangeAction(
                    source, target, originals[(source, target)] * factor, at
                ),
                CapacityChangeAction(
                    target, source, originals[(target, source)] * factor, at
                ),
            ]
            yield (
                "%s event %d: %s->%s x%.2f" % (self.name, event, source, target, factor),
                actions,
            )

        if originals:
            at = runner.protocol.simulator.now + START_OFFSET
            actions = [
                CapacityChangeAction(source, target, capacity, at)
                for (source, target), capacity in sorted(originals.items())
            ]
            yield (
                "%s restore (%d links)" % (self.name, len(originals) // 2),
                actions,
            )


#: The workloads by name, for the command line and the tests.
WORKLOADS = {
    cls.name: cls
    for cls in (
        PhaseChurnWorkload,
        PoissonChurnWorkload,
        FlashCrowdWorkload,
        HeavyTailedDemandWorkload,
        CapacityDynamicsWorkload,
    )
}
