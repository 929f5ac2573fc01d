"""End-to-end integration tests on the paper's evaluation topologies.

These runs exercise the whole stack together -- transit-stub topology
generation, workload generation, the distributed protocol, quiescence
detection, packet accounting and oracle validation -- on both LAN and WAN
scenarios and through several rounds of churn, mimicking (at reduced scale) the
paper's Experiments 1 and 2.
"""

import pytest

from repro.core import check_stability
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import LAN, WAN
from repro.network.units import MBPS
from repro.simulator.tracing import PacketTracer
from repro.workloads.generator import WorkloadGenerator, mixed_demand, uniform_demand
from repro.workloads.scenarios import build_network
from repro.workloads.stochastic import DynamicPhase, PhaseChurnWorkload


@pytest.mark.parametrize("delay_model", [LAN, WAN])
def test_mass_arrival_on_small_transit_stub(delay_model):
    network = build_network("small", delay_model, seed=41)
    tracer = PacketTracer(interval=5e-3)
    protocol = BNeckProtocol(network, tracer=tracer)
    generator = WorkloadGenerator(network, seed=41)
    protocol.apply_actions(generator.generate(
        80,
        join_window=(0.0, 1e-3),
        demand_sampler=mixed_demand(0.5, 1 * MBPS, 80 * MBPS),
    ))
    quiescence_time = protocol.run_until_quiescent()

    assert quiescence_time > 0
    assert protocol.quiescent
    assert check_stability(protocol).stable
    assert validate_against_oracle(protocol).valid
    assert len(protocol.registry) == 80
    # Every active session got at least one API.Rate notification.
    for session_id in protocol.registry:
        assert protocol.application(session_id).notifications
    # Packet accounting is closed: the interval series sums to the total.
    assert sum(total for _, total in tracer.totals_per_interval()) == tracer.total


def test_five_phase_churn_on_small_network_stays_correct():
    phases = [
        DynamicPhase("join", joins=60),
        DynamicPhase("leave", leaves=12),
        DynamicPhase("change", changes=12),
        DynamicPhase("join2", joins=12),
        DynamicPhase("mixed", joins=12, leaves=12, changes=12),
    ]
    workload = PhaseChurnWorkload(phases, uniform_demand(1 * MBPS, 80 * MBPS), gap=1e-3)
    expected_active = 0
    with ExperimentRunner(ScenarioSpec(size="small", delay_model=LAN, seed=43)) as runner:
        protocol = runner.protocol
        for label, actions in workload.rounds(runner):
            runner.apply_actions(actions)
            runner.checkpoint(label)
            kinds = [action.kind for action in actions]
            expected_active = expected_active - kinds.count("leave") + kinds.count("join")

            # After every single phase the protocol is quiescent, stable and
            # exactly max-min fair for the surviving configuration.
            assert protocol.quiescent
            assert check_stability(protocol).stable
            assert validate_against_oracle(protocol).valid
            assert len(protocol.registry) == expected_active

    # 60 join, 12 leave, 12 change (no membership effect), 12 join, then a
    # mixed phase joining and leaving 12 each: 60 sessions remain.
    assert expected_active == 60


def test_wan_and_lan_reach_the_same_rates():
    """Propagation delays change timing and packet counts, never the rates."""
    allocations = {}
    quiescence = {}
    for delay_model in (LAN, WAN):
        network = build_network("small", delay_model, seed=47)
        protocol = BNeckProtocol(network)
        generator = WorkloadGenerator(network, seed=47)
        protocol.apply_actions(generator.generate(50, join_window=(0.0, 1e-3)))
        quiescence[delay_model] = protocol.run_until_quiescent()
        allocations[delay_model] = protocol.current_allocation()
        assert validate_against_oracle(protocol).valid
    assert allocations[LAN].equals(allocations[WAN])
    assert quiescence[WAN] > quiescence[LAN]


def test_paper_scale_medium_network_spot_check():
    """A single heavier run on the Medium topology (kept small enough for CI)."""
    network = build_network("medium", LAN, seed=53)
    protocol = BNeckProtocol(network)
    generator = WorkloadGenerator(network, seed=53)
    protocol.apply_actions(generator.generate(
        150, join_window=(0.0, 1e-3), demand_sampler=mixed_demand(0.7, 1 * MBPS, 80 * MBPS)
    ))
    protocol.run_until_quiescent()
    assert validate_against_oracle(protocol).valid
    assert check_stability(protocol).stable
    # The per-session control-packet cost stays moderate (the paper reports a
    # few packets per session for static workloads; mass simultaneous arrival
    # costs more but stays within the same order of magnitude).
    by_session = protocol.tracer.by_session
    assert sum(by_session.values()) / len(by_session) < 500
