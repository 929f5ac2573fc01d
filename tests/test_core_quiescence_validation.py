"""Tests for the stability checker (Definition 2) and the checkpoint verdict."""

import pytest

from repro.core import WAITING_PROBE, check_stability
from repro.core.actions import ChangeAction, LeaveAction
from repro.core.centralized import centralized_bneck
from repro.core.validation import validate_against_oracle
from repro.core.protocol import BNeckProtocol
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.fairness.allocation import RateAllocation
from repro.fairness.verification import verify_allocation
from repro.fairness.waterfilling import water_filling
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.workloads.stochastic import StochasticWorkload
from tests.conftest import (
    HOST_CAPACITY,
    HOST_DELAY,
    join_action,
    open_bneck_session,
    parking_lot_protocol,
    parking_lot_workload,
    script_access_links,
)


class TestStabilityChecker(object):
    def test_empty_protocol_is_stable(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        report = check_stability(protocol)
        assert report.stable
        assert bool(report)
        assert report.checked_links == 0

    def test_quiescent_protocol_is_stable(self):
        protocol = parking_lot_protocol()
        parking_lot_workload(protocol)
        protocol.run_until_quiescent()
        report = check_stability(protocol)
        assert report.stable
        assert report.in_flight_packets == 0
        assert report.unstable_links == []
        assert report.checked_links > 0

    def test_mid_run_protocol_is_not_stable(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        # Run only a few events: probes are still in flight.
        for _ in range(3):
            protocol.simulator.step()
        report = check_stability(protocol)
        assert not report.stable
        assert not bool(report)
        assert report.in_flight_packets > 0

    def test_stability_restored_after_churn(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        protocol.run_until_quiescent()
        now = protocol.simulator.now
        protocol.apply_actions([LeaveAction("a", now), ChangeAction("b", 30 * MBPS, now)])
        protocol.run_until_quiescent()
        assert check_stability(protocol).stable

    def test_stability_implies_max_min_rates(self):
        # Lemma 2 of the paper: once the network is stable, the recorded rates
        # are the max-min fair rates.
        protocol = parking_lot_protocol()
        parking_lot_workload(protocol)
        protocol.run_until_quiescent()
        assert check_stability(protocol).stable
        oracle = centralized_bneck(protocol.active_sessions())
        assert protocol.current_allocation().equals(oracle)


class TestValidation(object):
    def test_valid_run(self):
        protocol = parking_lot_protocol()
        parking_lot_workload(protocol)
        protocol.run_until_quiescent()
        result = validate_against_oracle(protocol)
        assert result.valid
        assert bool(result)
        assert result.matches_centralized
        assert result.stability.stable
        assert result.reason is None
        assert result.centralized.equals(water_filling(protocol.active_sessions()))
        assert result.max_relative_error == pytest.approx(0.0, abs=1e-9)
        assert result.violations == []

    def test_validation_exposes_oracle_allocations(self):
        protocol = parking_lot_protocol()
        parking_lot_workload(protocol)
        protocol.run_until_quiescent()
        result = validate_against_oracle(protocol)
        assert set(result.centralized.session_ids()) == set(result.distributed.session_ids())
        assert result.centralized.equals(water_filling(protocol.active_sessions()))

    def test_wrong_allocation_is_flagged(self):
        protocol = parking_lot_protocol()
        parking_lot_workload(protocol)
        protocol.run_until_quiescent()
        # Tamper with the allocation under test: halve every rate.
        tampered = RateAllocation(
            {sid: rate * 0.5 for sid, rate in protocol.current_allocation().as_dict().items()}
        )
        result = validate_against_oracle(protocol, allocation=tampered)
        assert not result.valid
        assert not result.matches_centralized
        assert result.max_relative_error > 0.1
        assert result.violations

    def test_validation_of_mid_run_transient_is_invalid(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        # The two joins take effect at time 0; before any Response arrives
        # both sessions still believe 0.0.
        protocol.run(until=0.0)
        assert len(protocol.registry) == 2
        result = validate_against_oracle(protocol)
        assert not result.matches_centralized

    def test_validation_on_empty_protocol(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        result = validate_against_oracle(protocol)
        assert result.valid
        assert len(result.distributed) == 0


def _unsettle_one_router_link(protocol):
    """Set one IDLE R_e member of a RouterLink to WAITING_PROBE, leaving every
    recorded rate as it is; returns the link's id."""
    for state in protocol.router_link_states():
        if state.restricted:
            state.set_state(sorted(state.restricted)[0], WAITING_PROBE)
            return state.link_id
    raise AssertionError("no RouterLink restricts a session")


class TestVerdictChecksDefinition2(object):
    def test_an_unstable_link_fails_the_verdict_with_the_rates_unchanged(self):
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=2))
        runner.populate(8)
        assert runner.checkpoint().validated
        before = runner.protocol.current_allocation()
        link_id = _unsettle_one_router_link(runner.protocol)
        result = validate_against_oracle(runner.protocol)
        assert runner.protocol.current_allocation().as_dict() == before.as_dict()
        assert result.matches_centralized and result.violations == []
        assert not result.valid
        assert not result.stability
        assert result.stability.unstable_links == [link_id]
        assert result.reason == "link %r is not stable (Definition 2)" % (link_id,)
        assert not runner.validate()
        assert not runner.checkpoint().validated

    def test_run_scenario_names_the_cause_of_a_failed_round(self, monkeypatch):
        calls = []

        def counted(protocol, allocation=None):
            calls.append(protocol)
            return validate_against_oracle(protocol, allocation)

        monkeypatch.setattr(runner_module, "validate_against_oracle", counted)

        class UnsettlingWorkload(StochasticWorkload):
            name = "unsettling"

            def rounds(self, runner):
                yield "join", runner.generator.generate(6, join_window=(0.0, 1e-3))
                self.link_id = _unsettle_one_router_link(runner.protocol)
                yield "nothing", []

        workload = UnsettlingWorkload()
        runner = ExperimentRunner(ScenarioSpec(size="small", seed=2))
        with pytest.raises(RuntimeError) as failure:
            runner.run_scenario(workload)
        message = str(failure.value)
        assert "after round 'nothing' of workload 'unsettling'" in message
        assert "link %r is not stable (Definition 2)" % (workload.link_id,) in message
        # One validation per round: the failed round's verdict names the cause.
        assert len(calls) == 2

    def test_reason_names_the_first_certificate_violation(self):
        protocol = parking_lot_protocol()
        parking_lot_workload(protocol)
        protocol.run_until_quiescent()
        rates = protocol.current_allocation().as_dict()
        result = validate_against_oracle(
            protocol, RateAllocation({sid: rate * 0.5 for sid, rate in rates.items()})
        )
        first = result.violations[0]
        assert result.stability and not result.valid
        assert result.reason == "certificate: %s at %r: %s" % (
            first.kind, first.subject, first.detail)


def test_centralized_comparison_is_stricter_than_the_certificate():
    """999 sessions, each restricted at its own 99,000 b/s access link, share
    a 1e8 b/s link with a greedy session B, whose max-min rate is 1,099,000
    b/s.  Lowering B by 0.09 b/s leaves the shared link saturated within the
    certificate's tolerance, relative to its capacity, so the certificate
    accepts the allocation; the comparison with Centralized B-Neck, at
    rates_equal on B's own rate, rejects it.  The verdict needs both."""
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    script_access_links(network, [(99000.0, HOST_DELAY, HOST_DELAY),
                                   (HOST_CAPACITY, HOST_DELAY, HOST_DELAY)] * 999)
    protocol.apply_actions([join_action("s%03d" % index) for index in range(999)])
    open_bneck_session(protocol, "r0", "r1", "B")
    protocol.run_until_quiescent()
    assert validate_against_oracle(protocol).valid
    assert protocol.current_allocation().rate("B") == pytest.approx(1099000.0)

    perturbed = RateAllocation(dict(protocol.current_allocation().as_dict(), B=1098999.91))
    assert verify_allocation(protocol.active_sessions(), perturbed) == []
    result = validate_against_oracle(protocol, perturbed)
    assert result.stability and result.violations == []
    assert not result.matches_centralized
    assert not result.valid
    assert result.reason == "session 'B' has rate 1098999.91, Centralized B-Neck gives %r" % (
        result.centralized.rate("B"),)
