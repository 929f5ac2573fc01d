"""Tests for the stochastic scenarios and link-capacity dynamics.

Five families of guarantees:

* **Bit-identity**: a Poisson-churn run and a capacity-dynamics run reproduce
  the committed goldens (``tests/data/cross_engine_goldens.json``) -- per-round
  quiescence times, packets, events, callbacks and the final allocation,
  bit-exactly.
* **Every workload**: each registered workload, on LAN and WAN delays,
  reconverges after every round to a stable allocation that passes the
  oracles, replays bit-identically, and follows its generator seed.
* **Capacity-change semantics**: after every
  :class:`~repro.core.actions.CapacityChangeAction` quiescence point the
  allocation matches the water-filling oracle on the *updated* capacities,
  including the empty-``R_e`` oversubscription case (a deep cut on a link
  whose sessions were all restricted elsewhere); a batch whose last action
  has a bad time, a bad capacity, a host or unknown link or an unknown kind
  is rejected before any of it is applied.
* **Workload-generator validation** (regressions): ``pick_sessions`` no
  longer silently clamps, ``random_times`` rejects inverted windows, and a
  phase asking for more churn than the live population records the shortfall
  in :attr:`~repro.workloads.stochastic.PhaseChurnWorkload.records`.
* **Runner lifecycle**: ``ExperimentRunner`` is a context manager that closes
  the runner even when the body raises.
"""

import json
import math
import os
import pickle

import pytest

import repro.workloads.stochastic as stochastic
from repro.core.actions import (
    CapacityChangeAction,
    ChangeAction,
    JoinAction,
    LeaveAction,
    validate_actions,
)
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.fairness.waterfilling import water_filling
from repro.network.graph import Network
from repro.network.topology import parking_lot_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.workloads.stochastic import (
    WORKLOADS,
    CapacityDynamicsWorkload,
    DynamicPhase,
    PhaseChurnWorkload,
    PoissonChurnWorkload,
    StochasticWorkload,
    destination_subtrees,
)
from tests.conftest import join_action

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "cross_engine_goldens.json"
)
with open(GOLDEN_PATH) as handle:
    GOLDENS = json.load(handle)

STOCHASTIC_KEYS = sorted(key for key in GOLDENS if key.startswith("stochastic-"))


def _run_golden_scenario(key):
    golden = GOLDENS[key]["sequential"]
    _prefix, _workload, size, delay, seed = key.rsplit("-", 4)
    spec = ScenarioSpec(
        size=size,
        delay_model=delay,
        seed=int(seed[1:]),
    )
    with ExperimentRunner(spec) as runner:
        return runner, runner.run_scenario(WORKLOADS[golden["workload"]]()), golden


class TestStochasticGoldens(object):
    """The stochastic scenarios replay bit-identically."""

    @pytest.mark.parametrize("key", STOCHASTIC_KEYS)
    def test_reproduces_the_golden(self, key):
        runner, measurements, golden = _run_golden_scenario(key)
        protocol = runner.protocol
        assert [m.description for m in measurements] == golden["round_labels"]
        assert [repr(m.quiescence_time) for m in measurements] == (
            golden["round_quiescence"]
        )
        assert [m.packets for m in measurements] == golden["round_packets"]
        assert all(m.validated for m in measurements)
        assert protocol.tracer.total == golden["packets"]
        assert protocol.simulator.events_processed == golden["events"]
        assert dict(protocol.tracer.by_type) == golden["by_type"]
        assert protocol.rate_callbacks == golden["rate_callbacks"]
        assert len(runner.active_ids) == golden["active_sessions"]
        allocation = protocol.current_allocation().as_dict()
        assert {
            sid: repr(rate) for sid, rate in sorted(allocation.items())
        } == golden["allocation"]


class _UnknownKindAction(object):
    kind = "teleport"

    def __init__(self, at):
        self.at = at


def _bad_action(name, network, at):
    """The bad action ``name`` for a batch due at ``at`` on ``network``."""
    host = network.hosts()[0]
    transit = next(
        link for link in network.links()
        if network.node(link.source).is_router and network.node(link.target).is_router
    )
    if name.startswith("capacity-"):
        capacity = {"zero": 0.0, "negative": -1e6, "nan": math.nan, "inf": math.inf}
        return CapacityChangeAction(
            transit.source, transit.target, capacity[name[len("capacity-"):]], at
        )
    return {
        "time-none": CapacityChangeAction(transit.source, transit.target, 1e6, None),
        "time-nan": CapacityChangeAction(transit.source, transit.target, 1e6, math.nan),
        "time-inf": LeaveAction("s0", math.inf),
        "time-not-a-number": ChangeAction("s0", 1e6, "soon"),
        "host-link": CapacityChangeAction(host.node_id, host.attached_router, 1e6, at),
        "unknown-link": CapacityChangeAction("r-nowhere", "also-nowhere", 1e6, at),
        "unknown-kind": _UnknownKindAction(at),
    }[name]


# Every way a batch's last action can fail the up-front check, and its error.
BAD_LAST_ACTIONS = [
    ("time-none", ValueError),
    ("time-nan", ValueError),
    ("time-inf", ValueError),
    ("time-not-a-number", ValueError),
    ("capacity-zero", ValueError),
    ("capacity-negative", ValueError),
    ("capacity-nan", ValueError),
    ("capacity-inf", ValueError),
    ("host-link", ValueError),
    ("unknown-link", KeyError),
    ("unknown-kind", ValueError),
]


# The middle link of the parking lot, in both directions.
BOTH_WAYS = (("r1", "r2"), ("r2", "r1"))


class TestCapacityChangeSemantics(object):
    def _two_session_parking_lot(self):
        network = parking_lot_topology(3, capacity=100 * MBPS)
        protocol = BNeckProtocol(network)
        protocol.apply_actions([
            join_action(session_id, destination_router=router)
            for session_id, router in (("long", "r3"), ("short", "r1"))
        ])
        protocol.run_until_quiescent()
        return network, protocol

    @staticmethod
    def _change_capacity(protocol, capacity, links=(("r1", "r2"),), at=None):
        """One batch that sets every link of ``links`` to ``capacity``,
        dated ``at`` or else now."""
        when = protocol.simulator.now if at is None else at
        protocol.apply_actions(
            [CapacityChangeAction(source, target, capacity, when) for source, target in links]
        )

    def test_cut_and_restore_reconverge_to_the_oracle(self):
        network, protocol = self._two_session_parking_lot()
        assert protocol.current_allocation().as_dict() == {
            "long": pytest.approx(50 * MBPS),
            "short": pytest.approx(50 * MBPS),
        }
        self._change_capacity(protocol, 30 * MBPS, links=BOTH_WAYS)
        protocol.run_until_quiescent()
        # `long` was in F_e at r1->r2 (restricted at r0->r1) with R_e empty:
        # the cut below its recorded rate must still pull it back and repair.
        assert protocol.current_allocation().as_dict() == {
            "long": pytest.approx(30 * MBPS),
            "short": pytest.approx(70 * MBPS),
        }
        assert network.link("r1", "r2").capacity == 30 * MBPS
        assert validate_against_oracle(protocol).valid

        self._change_capacity(protocol, 100 * MBPS, links=BOTH_WAYS)
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict() == {
            "long": pytest.approx(50 * MBPS),
            "short": pytest.approx(50 * MBPS),
        }
        assert validate_against_oracle(protocol).valid

    def test_capacity_raise_wakes_settled_sessions(self):
        network, protocol = self._two_session_parking_lot()
        # Make r1->r2 the binding bottleneck, then raise it: the settled
        # session must re-probe and claim the new headroom.
        self._change_capacity(protocol, 20 * MBPS)
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict()["long"] == pytest.approx(
            20 * MBPS
        )
        self._change_capacity(protocol, 40 * MBPS)
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict()["long"] == pytest.approx(
            40 * MBPS
        )
        assert validate_against_oracle(protocol).valid

    def test_scheduled_capacity_change_takes_its_time_slot(self):
        network, protocol = self._two_session_parking_lot()
        quiescence = protocol.simulator.now
        self._change_capacity(protocol, 30 * MBPS, at=quiescence + 5e-3)
        protocol.run(until=quiescence + 4e-3)
        # Not yet due: the network still carries the old capacity.
        assert network.link("r1", "r2").capacity == 100 * MBPS
        protocol.run_until_quiescent()
        assert network.link("r1", "r2").capacity == 30 * MBPS
        assert validate_against_oracle(protocol).valid

    def test_rejects_host_links_and_unknown_links(self):
        network, protocol = self._two_session_parking_lot()
        host_id = network.hosts()[0].node_id
        router = network.hosts()[0].attached_router
        now = protocol.simulator.now
        with pytest.raises(ValueError, match="router-to-router"):
            protocol.apply_actions([CapacityChangeAction(host_id, router, 10 * MBPS, now)])
        with pytest.raises(KeyError):
            protocol.apply_actions([CapacityChangeAction("r0", "nowhere", 10 * MBPS, now)])

    @pytest.mark.parametrize("flavour", ["joins", "churn"])
    @pytest.mark.parametrize("bad, error", BAD_LAST_ACTIONS)
    def test_a_bad_last_action_leaves_the_batch_unapplied(self, bad, error, flavour):
        """Joins (or a leave, a change and a join) followed by one bad action
        -- a bad time, a bad capacity, a host or unknown link, an unknown
        kind -- must raise before any action of the batch is applied."""
        spec = ScenarioSpec(size="small", seed=4)
        with ExperimentRunner(spec) as runner:
            runner.populate(8, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            protocol, network = runner.protocol, runner.network
            at = protocol.simulator.now + 1e-3
            stubs = [node.node_id for node in network.routers() if node.tier == "stub"]
            joins = [
                JoinAction("late-%d" % index, stubs[index], stubs[-1 - index],
                           10 * MBPS, at, 1000 * MBPS, microseconds(1))
                for index in range(3)
            ]
            if flavour == "joins":
                batch = joins
            else:
                first, second = runner.active_ids[:2]
                batch = [LeaveAction(first, at), ChangeAction(second, 5 * MBPS, at), joins[0]]
            active_ids = list(runner.active_ids)
            demands = {sid: protocol.session(sid).demand for sid in active_ids}
            hosts = len(network.hosts())
            capacities = {link.endpoints: link.capacity for link in network.links()}

            with pytest.raises(error):
                runner.apply_actions(batch + [_bad_action(bad, network, at)])

            assert protocol.simulator.pending_events == 0
            assert len(network.hosts()) == hosts
            assert {link.endpoints: link.capacity for link in network.links()} == capacities
            for join in joins:
                assert join.session_id not in protocol.registry
                with pytest.raises(KeyError):
                    protocol.session(join.session_id)
            assert runner.active_ids == active_ids
            assert {sid: protocol.session(sid).demand for sid in active_ids} == demands
            protocol.run_until_quiescent()
            assert sorted(s.session_id for s in protocol.active_sessions()) == sorted(active_ids)

    def test_validate_actions_rejects_bad_capacity(self):
        protocol = BNeckProtocol(parking_lot_topology(3))
        with pytest.raises(ValueError, match="positive finite capacity"):
            validate_actions(protocol, [CapacityChangeAction("a", "b", 0.0, 1e-3)])
        with pytest.raises(ValueError, match="positive finite capacity"):
            validate_actions(protocol, [CapacityChangeAction("a", "b", float("nan"), 1e-3)])
        with pytest.raises(ValueError, match="positive finite capacity"):
            validate_actions(protocol, [CapacityChangeAction("a", "b", float("inf"), 1e-3)])
        with pytest.raises(ValueError, match="finite absolute time"):
            validate_actions(protocol, [CapacityChangeAction("a", "b", 1.0, None)])

    @pytest.mark.parametrize(
        "action",
        [
            JoinAction("j", "r0", "r1", 10 * MBPS, 1e-3, 1000 * MBPS, microseconds(1)),
            LeaveAction("j", 2e-3),
            ChangeAction("j", math.inf, 3e-3),
            CapacityChangeAction("r0", "r1", 50 * MBPS, 4e-3),
        ],
        ids=lambda action: action.kind,
    )
    def test_actions_pickle_with_every_field(self, action):
        """Actions are plain slotted data: a batch can be stored and replayed."""
        clone = pickle.loads(pickle.dumps(action))
        assert type(clone) is type(action)
        assert [getattr(clone, name) for name in type(action).__slots__] == [
            getattr(action, name) for name in type(action).__slots__
        ]
        assert repr(clone) == repr(action)

    def test_allocation_matches_waterfilling_after_every_event(self):
        """The acceptance criterion: each capacity-change quiescence point
        validates against the water-filling oracle on updated capacities."""
        spec = ScenarioSpec(size="small", delay_model="lan", seed=13)
        workload = CapacityDynamicsWorkload(sessions=30, events=3)
        with ExperimentRunner(spec) as runner:
            observed_capacities = []
            for label, actions in workload.rounds(runner):
                changed = {
                    (action.source, action.target): action.capacity
                    for action in actions
                    if action.kind == "capacity"
                }
                runner.apply_actions(actions)
                measurement = runner.checkpoint(label)
                assert measurement.validated, label
                # The network carries the new capacities ...
                for (source, target), capacity in changed.items():
                    assert runner.network.link(source, target).capacity == capacity
                # ... and the independent water-filling oracle on that updated
                # network reproduces the distributed allocation exactly.
                oracle = water_filling(runner.protocol.active_sessions())
                assert runner.protocol.current_allocation().equals(oracle)
                if changed:
                    observed_capacities.append(changed)
            assert observed_capacities, "no capacity event fired"


    def test_reverse_direction_events_reuse_originals(self, monkeypatch):
        """Events rescale both directions, so picking a link's reverse in a
        later event must cut from the first-seen bandwidth (no compounding)
        and the restore round must return to the true original."""
        picks = iter([[("r1", "r2")], [("r2", "r1")]])
        monkeypatch.setattr(
            stochastic, "crossed_router_links", lambda protocol: next(picks)
        )
        spec = ScenarioSpec(network=parking_lot_topology(3, capacity=100 * MBPS))
        workload = CapacityDynamicsWorkload(
            sessions=4, events=2, factor_low=0.5, factor_high=0.5
        )
        capacities = []
        with ExperimentRunner(spec) as runner:
            for label, actions in workload.rounds(runner):
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
                capacities.append(
                    (
                        runner.network.link("r1", "r2").capacity,
                        runner.network.link("r2", "r1").capacity,
                    )
                )
        half, full = (50 * MBPS, 50 * MBPS), (100 * MBPS, 100 * MBPS)
        assert capacities == [full, half, half, full]

    def test_asymmetric_per_direction_capacities_are_preserved(self, monkeypatch):
        """Each direction is cut from and restored to its *own* original
        bandwidth, so asymmetric links survive a cut-and-restore cycle."""
        def build():
            network = Network("asym")
            for router in ("r0", "r1", "r2"):
                network.add_router(router)
            network.add_link("r0", "r1", 100 * MBPS, microseconds(1), bidirectional=False)
            network.add_link("r1", "r0", 40 * MBPS, microseconds(1), bidirectional=False)
            network.add_link("r1", "r2", 100 * MBPS, microseconds(1))
            return network

        picks = iter([[("r1", "r0")]])
        monkeypatch.setattr(
            stochastic, "crossed_router_links", lambda protocol: next(picks)
        )
        spec = ScenarioSpec(network=build())
        workload = CapacityDynamicsWorkload(
            sessions=2, events=1, factor_low=0.5, factor_high=0.5
        )
        capacities = []
        with ExperimentRunner(spec) as runner:
            for label, actions in workload.rounds(runner):
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
                capacities.append(
                    (
                        runner.network.link("r0", "r1").capacity,
                        runner.network.link("r1", "r0").capacity,
                    )
                )
        assert capacities == [
            (100 * MBPS, 40 * MBPS),          # population round: untouched
            (50 * MBPS, 20 * MBPS),           # each cut from its own original
            (100 * MBPS, 40 * MBPS),          # each restored to its own original
        ]


class TestPhaseShortfallReporting(object):
    def _runner(self, seed=3):
        return ExperimentRunner(ScenarioSpec(size="small", seed=seed))

    def test_phase_overdraw_records_requested_vs_applied(self):
        with self._runner() as runner:
            runner.populate(4, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            workload = PhaseChurnWorkload([DynamicPhase("purge", leaves=10, changes=2)])
            (measurement,) = runner.run_scenario(workload)
            (record,) = workload.records
            # Only 4 sessions were alive: the shortfall is surfaced, not
            # silently clamped away (the historical bug).
            assert record.shortfalls["leaves"] == (10, 4)
            # All sessions left before the change sample was drawn.
            assert record.shortfalls["changes"] == (2, 0)
            assert runner.active_ids == []
            assert measurement.validated

    def test_satisfiable_phase_reports_no_shortfall(self):
        with self._runner() as runner:
            runner.populate(6, join_window=(0.0, 1e-3))
            runner.checkpoint("join")
            workload = PhaseChurnWorkload([DynamicPhase("churn", leaves=2, changes=2)])
            runner.run_scenario(workload)
            assert [record.shortfalls for record in workload.records] == [{}]

    def test_each_phase_keeps_its_own_shortfall(self):
        """A later phase's overdraw is recorded on that phase only, and a
        fresh run of the same workload starts its records afresh."""
        workload = PhaseChurnWorkload(
            [DynamicPhase("join", joins=3), DynamicPhase("leave", leaves=5)]
        )
        for _ in range(2):
            with self._runner(seed=2) as runner:
                runner.run_scenario(workload)
                assert [record.shortfalls for record in workload.records] == [
                    {}, {"leaves": (5, 3)}
                ]
                assert runner.active_ids == []


class TestRunnerContextManager(object):
    def test_close_runs_on_clean_exit_and_on_error(self):
        closed = []
        spec = ScenarioSpec(size="small", seed=1)
        with ExperimentRunner(spec) as runner:
            runner.close = lambda: closed.append("clean")
        assert closed == ["clean"]

        with pytest.raises(RuntimeError, match="boom"):
            with ExperimentRunner(spec) as runner:
                runner.close = lambda: closed.append("error")
                raise RuntimeError("boom")
        assert closed == ["clean", "error"]


class TestWorkloadRegistryAndRunner(object):
    def test_registry_names_all_four_scenarios(self):
        assert {
            "poisson-churn",
            "flash-crowd",
            "heavy-tailed-demand",
            "capacity-dynamics",
        } <= set(WORKLOADS)

    def test_every_workload_is_listed_under_its_name(self):
        """``WORKLOADS`` lists every workload class the module defines, each
        under its own non-empty ``name``."""
        for name, cls in WORKLOADS.items():
            assert cls.name and name == cls.name
        defined = {
            value
            for value in vars(stochastic).values()
            if isinstance(value, type)
            and issubclass(value, StochasticWorkload)
            and value is not StochasticWorkload
            and value.__module__ == stochastic.__name__
        }
        assert defined == set(WORKLOADS.values())

    def test_listed_workloads_take_their_parameters(self):
        workload = WORKLOADS["poisson-churn"](segments=1)
        assert isinstance(workload, PoissonChurnWorkload)
        assert workload.segments == 1
        with pytest.raises(KeyError):
            WORKLOADS["no-such-workload"]

    def test_run_scenario_needs_a_workload(self):
        with ExperimentRunner(ScenarioSpec(size="small", seed=1)) as runner:
            with pytest.raises(TypeError):
                runner.run_scenario()

    def test_run_scenario_tracks_membership(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=11)
        with ExperimentRunner(spec) as runner:
            measurements = runner.run_scenario(PoissonChurnWorkload(segments=1))
            assert measurements and all(m.validated for m in measurements)
            assert set(runner.active_ids) == {
                session.session_id
                for session in runner.protocol.active_sessions()
            }

    def test_flash_crowd_targets_one_subtree(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=5)
        with ExperimentRunner(spec) as runner:
            workload = WORKLOADS["flash-crowd"](crowd_size=12, depart=False)
            runner.run_scenario(workload)
            subtrees = destination_subtrees(runner.network)
            crowd = [
                session
                for session in runner.protocol.active_sessions()
                if session.session_id.startswith("flash-crowd-crowd-")
            ]
            assert len(crowd) == 12
            domains = set()
            for session in crowd:
                router = runner.network.node(session.destination).attached_router
                domains.update(
                    prefix
                    for prefix, members in subtrees.items()
                    if router in members
                )
            assert len(domains) == 1

    def test_poisson_survivors_carry_departures_across_segments(self):
        """A session outliving its segment departs in a later one (residual
        holding time), so the population converges instead of only growing."""
        spec = ScenarioSpec(size="small", delay_model="lan", seed=11)
        with ExperimentRunner(spec) as runner:
            workload = PoissonChurnWorkload(segments=2)
            batches = []
            for label, actions in workload.rounds(runner):
                batches.append(actions)
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
            carried_leaves = [
                action
                for action in batches[1]
                if action.kind == "leave"
                and action.session_id.startswith("poisson-churn1-")
            ]
            assert carried_leaves

    def test_heavy_tailed_burst_changes_demands(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=5)
        with ExperimentRunner(spec) as runner:
            runner.run_scenario(
                WORKLOADS["heavy-tailed-demand"](
                    sessions=12, bursts=1, changes_per_burst=8
                )
            )
            demands = [
                session.demand for session in runner.protocol.active_sessions()
            ]
            assert len(demands) == 12
            assert all(math.isfinite(demand) for demand in demands)

    def test_base_class_requires_rounds(self):
        class Incomplete(StochasticWorkload):
            name = "incomplete"

        with pytest.raises(NotImplementedError):
            list(Incomplete().rounds(None))


def _workload_fingerprint(name, delay_model, generator_seed=None):
    """Run workload ``name`` on Small; return the runner and its replayable result."""
    spec = ScenarioSpec(size="small", delay_model=delay_model, seed=3)
    with ExperimentRunner(spec, generator_seed=generator_seed) as runner:
        measurements = runner.run_scenario(WORKLOADS[name]())
        protocol = runner.protocol
        return runner, measurements, {
            "rounds": [
                (m.description, repr(m.quiescence_time), m.packets, m.rate_callbacks)
                for m in measurements
            ],
            "events": protocol.simulator.events_processed,
            "by_type": dict(protocol.tracer.by_type),
            "active": list(runner.active_ids),
            "allocation": {
                sid: repr(rate)
                for sid, rate in sorted(protocol.current_allocation().as_dict().items())
            },
        }


@pytest.mark.parametrize("delay_model", ["lan", "wan"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestEveryWorkload(object):
    """Each registered workload, on both delay models of Small."""

    def test_every_round_reconverges_to_a_stable_max_min_allocation(self, name, delay_model):
        runner, measurements, _ = _workload_fingerprint(name, delay_model)
        protocol = runner.protocol
        assert len(measurements) >= 2
        assert all(m.validated for m in measurements)
        assert protocol.quiescent
        assert validate_against_oracle(protocol).valid
        assert set(runner.active_ids) == {
            session.session_id for session in protocol.active_sessions()
        }
        for state in protocol.all_link_states():
            assert state.is_stable(), state

    def test_replays_bit_identically(self, name, delay_model):
        first = _workload_fingerprint(name, delay_model)[2]
        assert _workload_fingerprint(name, delay_model)[2] == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_generator_seed_drives_the_workload(name):
    """Same topology, another generator seed: another schedule."""
    first = _workload_fingerprint(name, "lan", generator_seed=1)[2]
    assert _workload_fingerprint(name, "lan", generator_seed=2)[2] != first


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("parameter", ["arrival_rate", "mean_holding", "horizon"])
def test_poisson_churn_refuses_a_rate_or_time_outside_zero_to_infinity(parameter, value):
    """A NaN or infinite arrival rate, or an infinite horizon, would make the
    first round's arrival loop run forever; every such value is refused up
    front, with its name."""
    with pytest.raises(ValueError, match="^%s must be positive and finite, got %s$"
                       % (parameter, value)):
        PoissonChurnWorkload(**{parameter: value})
