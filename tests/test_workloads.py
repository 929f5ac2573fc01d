"""Tests for the workload generation package (scenarios, generator, phase churn)."""

import math

import pytest

from repro.core.actions import JoinAction
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import HOST_LINK_CAPACITY, HOST_LINK_DELAY, LAN, WAN
from repro.network.units import MBPS
from repro.workloads.generator import (
    WorkloadGenerator,
    infinite_demand,
    mixed_demand,
    uniform_demand,
)
from repro.workloads.scenarios import NETWORK_SIZES, build_network
from repro.workloads.stochastic import DynamicPhase, PhaseChurnWorkload
from repro.simulator.random_source import RandomSource


class TestScenarios(object):
    def test_known_sizes(self):
        assert {"small", "medium", "big"} <= set(NETWORK_SIZES)

    def test_build_small_lan(self):
        network = build_network("small", LAN, seed=1)
        assert network.number_of_nodes() == NETWORK_SIZES["small"].total_routers()
        assert network.name == "small-lan"

    def test_build_small_wan_is_connected(self):
        network = build_network("small", WAN, seed=2)
        assert network.is_connected()

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown network size 'gigantic'"):
            build_network("gigantic", LAN)

    def test_unknown_delay_model_rejected(self):
        with pytest.raises(ValueError, match="unknown delay model 'metro'"):
            build_network("small", "metro")


class TestDemandSamplers(object):
    def test_infinite(self):
        sampler = infinite_demand()
        assert math.isinf(sampler(RandomSource(1)))

    def test_uniform_range(self):
        sampler = uniform_demand(1 * MBPS, 10 * MBPS)
        source = RandomSource(2)
        for _ in range(50):
            value = sampler(source)
            assert 1 * MBPS <= value <= 10 * MBPS

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            uniform_demand(0.0, 10.0)
        with pytest.raises(ValueError):
            uniform_demand(10.0, 1.0)

    def test_mixed_produces_both_kinds(self):
        sampler = mixed_demand(0.5, 1 * MBPS, 10 * MBPS)
        source = RandomSource(3)
        values = [sampler(source) for _ in range(100)]
        assert any(math.isinf(value) for value in values)
        assert any(not math.isinf(value) for value in values)

    def test_mixed_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            mixed_demand(1.5, 1.0, 2.0)


class TestWorkloadGenerator(object):
    def make_generator(self, seed=0):
        network = build_network("small", LAN, seed=seed)
        return network, WorkloadGenerator(network, seed=seed)

    def test_joins_have_valid_fields(self):
        _, generator = self.make_generator()
        joins = generator.generate(20, join_window=(0.0, 1e-3))
        assert len(joins) == 20
        assert len({join.session_id for join in joins}) == 20
        for join in joins:
            assert isinstance(join, JoinAction)
            assert join.source_router != join.destination_router
            assert 0.0 <= join.at <= 1e-3
            assert join.demand > 0
            assert join.host_capacity == HOST_LINK_CAPACITY
            assert join.host_delay == HOST_LINK_DELAY

    def test_generation_is_deterministic_per_seed(self):
        _, first = self.make_generator(seed=5)
        _, second = self.make_generator(seed=5)
        joins_a = first.generate(10)
        joins_b = second.generate(10)
        assert [(j.source_router, j.destination_router, j.at) for j in joins_a] == [
            (j.source_router, j.destination_router, j.at) for j in joins_b
        ]

    def test_different_seeds_differ(self):
        _, first = self.make_generator(seed=5)
        _, second = self.make_generator(seed=6)
        joins_a = first.generate(10)
        joins_b = second.generate(10)
        assert [(j.source_router, j.destination_router) for j in joins_a] != [
            (j.source_router, j.destination_router) for j in joins_b
        ]

    def test_bad_join_window_rejected(self):
        _, generator = self.make_generator()
        with pytest.raises(ValueError):
            generator.generate(5, join_window=(1e-3, 0.0))

    def test_generated_joins_apply_on_protocol(self):
        network, generator = self.make_generator(seed=7)
        protocol = BNeckProtocol(network)
        installed = protocol.apply_actions(generator.generate(15, join_window=(0.0, 1e-3)))
        assert len(installed) == 15
        protocol.run_until_quiescent()
        assert len(protocol.registry) == 15
        assert validate_against_oracle(protocol).valid

    def test_pick_sessions_and_random_times(self):
        _, generator = self.make_generator(seed=8)
        picked = generator.pick_sessions(["a", "b", "c", "d"], 2)
        assert len(picked) == 2
        assert len(set(picked)) == 2
        with pytest.raises(ValueError, match="population of 1"):
            generator.pick_sessions(["a"], 5)
        assert generator.pick_sessions(["a"], 5, clamp=True) == ["a"]
        times = generator.random_times(3, (1.0, 2.0))
        assert len(times) == 3
        assert all(1.0 <= t <= 2.0 for t in times)
        with pytest.raises(ValueError, match="exceeds its end"):
            generator.random_times(3, (2.0, 1.0))

    def test_requires_two_attachment_routers(self):
        network = build_network("small", LAN, seed=1)
        with pytest.raises(ValueError):
            WorkloadGenerator(network, attachment_routers=["only-one"])


class TestDynamicPhases(object):
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            DynamicPhase("bad", joins=-1)
        with pytest.raises(ValueError):
            DynamicPhase("bad", window=0.0)
        phase = DynamicPhase("ok", joins=2, leaves=1, changes=3)
        assert (phase.joins, phase.leaves, phase.changes) == (2, 1, 3)

    def test_apply_join_phase(self):
        workload = PhaseChurnWorkload([DynamicPhase("join", joins=20)], infinite_demand())
        with ExperimentRunner(ScenarioSpec(size="small", delay_model=LAN, seed=9)) as runner:
            (measurement,) = runner.run_scenario(workload)
            protocol = runner.protocol
            assert len(runner.active_ids) == 20
            assert measurement.quiescence_time - workload.records[0].start_time > 0
            assert measurement.packets > 0
            assert protocol.quiescent
            assert validate_against_oracle(protocol).valid

    def test_apply_leave_and_change_phase(self):
        workload = PhaseChurnWorkload(
            [
                DynamicPhase("join", joins=20),
                DynamicPhase("mixed", joins=5, leaves=5, changes=5),
            ],
            uniform_demand(1 * MBPS, 50 * MBPS),
        )
        with ExperimentRunner(ScenarioSpec(size="small", delay_model=LAN, seed=10)) as runner:
            batches = []
            for label, actions in workload.rounds(runner):
                batches.append(actions)
                runner.apply_actions(actions)
                assert runner.checkpoint(label).validated
            protocol = runner.protocol
            ids = {
                kind: {action.session_id for action in batches[1] if action.kind == kind}
                for kind in ("leave", "change", "join")
            }
            assert len(ids["leave"]) == 5
            assert len(ids["change"]) == 5
            assert len(ids["join"]) == 5
            assert len(runner.active_ids) == 20
            assert ids["leave"] & ids["change"] == set()
            assert len(protocol.registry) == 20
            assert validate_against_oracle(protocol).valid
