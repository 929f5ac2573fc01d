"""Ablation: the centralized oracles (Figure 1 and classic water-filling).

The paper validates every distributed run against Centralized B-Neck (itself
equivalent to the Water-Filling algorithm).  This bench measures the cost of
the two oracles and of the max-min certificate on growing workloads and checks
that they agree with each other and satisfy the direct max-min verification --
i.e. that the validation machinery used throughout the test suite is itself
trustworthy and cheap compared to the distributed simulation.
"""

from repro.core.centralized import centralized_bneck
from repro.core.protocol import BNeckProtocol
from repro.fairness.verification import is_max_min_fair, verify_allocation
from repro.fairness.waterfilling import water_filling
from repro.network.transit_stub import medium_network
from repro.workloads.generator import WorkloadGenerator, mixed_demand


def _build_sessions(count, seed):
    """Build ``count`` random sessions over a Medium network, without simulating."""
    network = medium_network("lan", seed=seed)
    generator = WorkloadGenerator(network, seed=seed)
    joins = generator.generate(count, demand_sampler=mixed_demand(0.5, 1e6, 80e6))
    return list(BNeckProtocol(network).apply_actions(joins).values())


def test_centralized_bneck_oracle(benchmark):
    sessions = _build_sessions(800, seed=21)
    allocation = benchmark(centralized_bneck, sessions)
    assert len(allocation) == len(sessions)
    assert is_max_min_fair(sessions, allocation)


def test_max_min_certificate(benchmark):
    sessions = _build_sessions(800, seed=23)
    allocation = centralized_bneck(sessions)
    violations = benchmark(verify_allocation, sessions, allocation)
    assert violations == []


def test_waterfilling_oracle_agrees(benchmark, print_table):
    sessions = _build_sessions(800, seed=22)
    waterfilled = benchmark(water_filling, sessions)
    reference = centralized_bneck(sessions)
    assert waterfilled.equals(reference)
    assert is_max_min_fair(sessions, waterfilled)

    lines = ["sessions   total max-min rate [Mbps]"]
    for count in (100, 200, 400, 800):
        subset = sessions[:count]
        allocation = centralized_bneck(subset)
        lines.append("%8d   %.1f" % (count, allocation.total_rate() / 1e6))
    print_table(
        "Ablation -- centralized oracle total allocated rate vs population",
        "\n".join(lines),
    )
