"""Tests for the top-level public API surface (`import repro`)."""

import math

import repro
from repro import (
    BNeckProtocol,
    MBPS,
    RateAllocation,
    centralized_bneck,
    dumbbell_topology,
    is_max_min_fair,
    validate_against_oracle,
    water_filling,
)
from repro.core import JoinAction


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), "missing export %r" % name


def test_readme_quickstart_flow():
    # The flow documented in the README, end to end.
    network = dumbbell_topology(side_count=2, bottleneck_capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    protocol.apply_actions([
        JoinAction("a", "west0", "east0", math.inf, 0.0, 1000 * MBPS, 1e-6),
        JoinAction("b", "west1", "east1", 10 * MBPS, 0.0, 1000 * MBPS, 1e-6),
    ])
    app_a, app_b = protocol.application("a"), protocol.application("b")

    protocol.run_until_quiescent()

    assert app_a.current_rate / MBPS == math.floor(app_a.current_rate / MBPS) == 90
    assert app_b.current_rate / MBPS == 10
    assert validate_against_oracle(protocol).valid


def test_oracles_are_importable_from_the_top_level(single_link_network):
    from tests.conftest import make_session

    sessions = [
        make_session(single_link_network, "a", "r0", "r1"),
        make_session(single_link_network, "b", "r0", "r1", demand=10 * MBPS),
    ]
    centralized = centralized_bneck(sessions)
    filled = water_filling(sessions)
    assert isinstance(centralized, RateAllocation)
    assert centralized.equals(filled)
    assert is_max_min_fair(sessions, centralized)
