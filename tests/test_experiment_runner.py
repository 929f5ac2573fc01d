"""Tests for the shared ExperimentRunner / ScenarioSpec scaffolding."""

import pytest

from repro.core.protocol import BNeckProtocol
from repro.experiments.runner import ExperimentRunner, RunMeasurement, ScenarioSpec
from repro.network.topology import parking_lot_topology
from repro.network.units import MBPS
from repro.simulator.tracing import PacketTracer
from repro.workloads.scenarios import NetworkScenario
from repro.workloads.stochastic import DynamicPhase, PhaseChurnWorkload


class TestScenarioSpec(object):
    def test_requires_some_network_source(self):
        with pytest.raises(ValueError):
            ScenarioSpec()

    def test_named_size_builds_transit_stub(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=4)
        network = spec.build_network()
        assert spec.label == "small-lan"
        assert network.name == "small-lan"

    def test_network_builder_and_label(self):
        spec = ScenarioSpec(
            name="parking-lot",
            network_builder=lambda: parking_lot_topology(3, capacity=100 * MBPS),
        )
        network = spec.build_network()
        assert spec.label == "parking-lot"
        assert network.link("r0", "r1") is not None

    def test_prebuilt_network_is_passed_through(self):
        network = parking_lot_topology(2, capacity=100 * MBPS)
        spec = ScenarioSpec(network=network)
        assert spec.build_network() is network

    def test_from_network_scenario(self):
        scenario = NetworkScenario("small", "wan", seed=9)
        spec = ScenarioSpec.from_network_scenario(scenario, validate=False)
        assert spec.size == "small"
        assert spec.delay_model == "wan"
        assert spec.seed == 9
        assert spec.validate is False

    def test_from_network_scenario_keeps_custom_build(self):
        class CustomScenario(NetworkScenario):
            def build(self):
                network = super(CustomScenario, self).build()
                network.name = "customized"
                return network

        scenario = CustomScenario("small", "lan", seed=1)
        spec = ScenarioSpec.from_network_scenario(scenario)
        assert spec.build_network().name == "customized"

    def test_tracer_flavours(self):
        counting = ScenarioSpec(size="small").build_tracer()
        assert isinstance(counting, PacketTracer)
        assert not counting.timed
        tracer = ScenarioSpec(size="small", tracer_interval=5e-3).build_tracer()
        assert isinstance(tracer, PacketTracer)
        assert tracer.interval == 5e-3
        assert tracer.timed

    def test_protocol_factory_override(self):
        built = {}

        def factory(network, tracer):
            built["network"] = network
            return BNeckProtocol(network, tracer=tracer)

        runner = ExperimentRunner(ScenarioSpec(size="small", protocol_factory=factory))
        assert built["network"] is runner.network


class TestExperimentRunner(object):
    def test_populate_checkpoint_and_validate(self):
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=2), generator_seed=22)
        runner.populate(20, join_window=(0.0, 1e-3))
        assert len(runner.active_ids) == 20
        measurement = runner.checkpoint("mass join")
        assert isinstance(measurement, RunMeasurement)
        assert measurement.validated
        assert measurement.quiescence_time > 0.0
        assert measurement.packets > 0
        assert measurement.packets == measurement.total_packets
        assert measurement.rate_callbacks >= 20
        assert measurement.as_dict()["validated"]

    def test_checkpoint_measures_deltas(self):
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=2), generator_seed=22)
        runner.populate(10, join_window=(0.0, 1e-3))
        first = runner.checkpoint("first wave")
        runner.populate(5, join_window=(runner.protocol.simulator.now,
                                        runner.protocol.simulator.now + 1e-3))
        second = runner.checkpoint("second wave")
        assert second.packets > 0
        assert second.total_packets == first.total_packets + second.packets
        assert second.description == "second wave"

    def test_phase_churn_maintains_membership(self):
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=5))
        workload = PhaseChurnWorkload(
            [
                DynamicPhase("join", joins=12),
                DynamicPhase("leave", leaves=4),
                DynamicPhase("mixed", joins=3, leaves=2, changes=2),
            ],
            gap=1e-3,
        )
        measurements = runner.run_scenario(workload)
        assert [record.phase.name for record in workload.records] == [
            "join", "leave", "mixed"
        ]
        assert [m.description for m in measurements] == [
            "phase-churn join", "phase-churn leave", "phase-churn mixed"
        ]
        assert len(runner.active_ids) == 12 - 4 + 3 - 2
        assert set(runner.active_ids) == {
            session.session_id for session in runner.protocol.active_sessions()
        }
        assert runner.validate()

    def test_validate_skipped_when_spec_says_so(self):
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=2, validate=False))
        runner.populate(5)
        measurement = runner.checkpoint()
        assert measurement.validated  # reported true, but not computed
