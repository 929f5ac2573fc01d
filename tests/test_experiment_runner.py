"""Tests for the shared ExperimentRunner / ScenarioSpec scaffolding."""

from types import SimpleNamespace

import pytest

import repro.experiments.runner as runner_module
from repro.core.protocol import BNeckProtocol
from repro.experiments.experiment1 import Experiment1Config
from repro.experiments.experiment2 import Experiment2Config
from repro.experiments.runner import ExperimentRunner, RunMeasurement, ScenarioSpec
from repro.network.topology import parking_lot_topology
from repro.network.units import MBPS
from repro.simulator.tracing import PacketTracer
from repro.workloads.scenarios import build_network
from repro.workloads.stochastic import DynamicPhase, PhaseChurnWorkload


class TestScenarioSpec(object):
    def test_requires_some_network_source(self):
        with pytest.raises(ValueError, match="exactly one of size or network"):
            ScenarioSpec()

    def test_size_and_network_together_are_refused(self):
        """A spec naming both would run one network and report the other."""
        network = parking_lot_topology(3, capacity=100 * MBPS)
        with pytest.raises(ValueError) as refusal:
            ScenarioSpec(size="small", network=network)
        message = str(refusal.value)
        assert "exactly one of size or network" in message
        assert "'small'" in message and repr(network) in message

    @pytest.mark.parametrize(
        "build, removed",
        [
            (ScenarioSpec, {"validate": False}),
            (ScenarioSpec, {"workload": "poisson-churn"}),
            (ScenarioSpec, {"name": "parking-lot"}),
            (ScenarioSpec, {"network_builder": lambda: None}),
            (Experiment1Config, {"validate": False}),
            (Experiment2Config, {"validate": False}),
        ],
        ids=[
            "spec-validate",
            "spec-workload",
            "spec-name",
            "spec-network_builder",
            "experiment1-validate",
            "experiment2-validate",
        ],
    )
    def test_removed_routes_are_refused(self, build, removed):
        """A run has one way to name its network and its workload, and
        always validates: the other routes are not accepted."""
        arguments = {"size": "small"} if build is ScenarioSpec else {}
        arguments.update(removed)
        with pytest.raises(TypeError):
            build(**arguments)

    @pytest.mark.parametrize("delay_model", ["lan", "wan"])
    def test_label_names_the_network_that_runs(self, delay_model):
        spec = ScenarioSpec(size="small", delay_model=delay_model, seed=3)
        runner = ExperimentRunner(spec)
        assert spec.label == "small-%s" % delay_model
        assert runner.network.name == spec.label
        runner.populate(3)
        assert runner.checkpoint().label == spec.label

    def test_the_seed_picks_the_topology(self):
        spec = ScenarioSpec(size="small", seed=9)
        runner = ExperimentRunner(spec)
        endpoints = {link.endpoints for link in runner.network.links()}
        same = build_network("small", "lan", 9)
        assert endpoints == {link.endpoints for link in same.links()}
        other = build_network("small", "lan", 10)
        assert endpoints != {link.endpoints for link in other.links()}
        assert runner.generator_seed == 9

    def test_named_size_builds_transit_stub(self):
        spec = ScenarioSpec(size="small", delay_model="lan", seed=4)
        network = spec.build_network()
        assert spec.label == "small-lan"
        assert network.name == "small-lan"

    def test_prebuilt_network_is_passed_through(self):
        network = parking_lot_topology(2, capacity=100 * MBPS)
        spec = ScenarioSpec(network=network)
        assert spec.build_network() is network
        assert spec.label == network.name
        runner = ExperimentRunner(spec)
        assert runner.network is network
        assert runner.checkpoint().label == network.name

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

    def test_checkpoint_reports_the_verdict(self, monkeypatch):
        """Every checkpoint validates, and reports the verdict as it is."""
        verdicts = []

        def failing(protocol):
            verdicts.append(protocol)
            return SimpleNamespace(valid=False, reason="a planted cause")

        monkeypatch.setattr(runner_module, "validate_against_oracle", failing)
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=2))
        runner.populate(5)
        measurement = runner.checkpoint()
        assert verdicts == [runner.protocol]
        assert not measurement.validated
        assert measurement.reason == "a planted cause"

    def test_run_scenario_raises_on_a_failed_round(self, monkeypatch):
        monkeypatch.setattr(
            runner_module,
            "validate_against_oracle",
            lambda protocol: SimpleNamespace(valid=False, reason="a planted cause"),
        )
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=5))
        workload = PhaseChurnWorkload([DynamicPhase("join", joins=4)], gap=1e-3)
        with pytest.raises(RuntimeError) as failure:
            runner.run_scenario(workload)
        message = str(failure.value)
        assert "'phase-churn join'" in message
        assert "a planted cause" in message
