"""Edge-case integration tests for the distributed protocol.

These cover configurations that the canonical workloads do not exercise:
access links as bottlenecks, sessions between hosts on the same router,
asymmetric capacities, very small demands, WAN-scale delays on synthetic
topologies, and redundant API usage.
"""

import pytest

from repro.core import check_stability, validate_against_oracle
from repro.core.protocol import BNeckProtocol
from repro.network.graph import Network
from repro.network.topology import line_topology, single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds
from tests.conftest import (
    HOST_DELAY,
    change_session,
    leave_session,
    open_bneck_session,
    script_access_links,
)


def _join_over_access_links(protocol, session_id, source_capacity, destination_capacity):
    """Join a greedy session across the link between two fresh hosts whose
    access links carry the given capacities; returns its application."""
    script_access_links(protocol.network, [
        (source_capacity, HOST_DELAY, HOST_DELAY),
        (destination_capacity, HOST_DELAY, HOST_DELAY),
    ])
    return open_bneck_session(protocol, "r0", "r1", session_id)[1]


def test_access_link_is_the_bottleneck():
    # The host access link (20 Mbps) is tighter than the 100 Mbps backbone.
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    application = _join_over_access_links(protocol, "narrow", 20 * MBPS, 1000 * MBPS)
    protocol.run_until_quiescent()
    assert application.current_rate == pytest.approx(20 * MBPS)
    assert validate_against_oracle(protocol).valid


def test_destination_access_link_is_the_bottleneck():
    # The egress link into the 30 Mbps destination host is a RouterLink's.
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    application = _join_over_access_links(protocol, "narrow-out", 1000 * MBPS, 30 * MBPS)
    protocol.run_until_quiescent()
    assert application.current_rate == pytest.approx(30 * MBPS)
    assert check_stability(protocol).stable


def test_sessions_between_hosts_on_the_same_router():
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    _, local = open_bneck_session(protocol, "r0", "r0", "local")
    _, remote = open_bneck_session(protocol, "r0", "r1", "remote")
    protocol.run_until_quiescent()
    # The local session never crosses the backbone: both are only limited by
    # their 1000 Mbps access links.
    assert local.current_rate == pytest.approx(1000 * MBPS)
    assert remote.current_rate == pytest.approx(100 * MBPS)
    assert validate_against_oracle(protocol).valid


def test_many_sessions_sharing_one_source_host_router():
    network = line_topology(3, capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    applications = []
    for index in range(5):
        _, application = open_bneck_session(protocol, "r0", "r2", "s%d" % index)
        applications.append(application)
    protocol.run_until_quiescent()
    for application in applications:
        assert application.current_rate == pytest.approx(20 * MBPS)
    assert check_stability(protocol).stable


def test_asymmetric_chain_capacities():
    # Capacities shrink along the path: the last hop decides.
    network = Network("shrinking")
    for index in range(4):
        network.add_router("r%d" % index)
    network.add_link("r0", "r1", 100 * MBPS, microseconds(1))
    network.add_link("r1", "r2", 60 * MBPS, microseconds(1))
    network.add_link("r2", "r3", 15 * MBPS, microseconds(1))
    protocol = BNeckProtocol(network)
    _, end_to_end = open_bneck_session(protocol, "r0", "r3", "long")
    _, first_hop = open_bneck_session(protocol, "r0", "r1", "first")
    protocol.run_until_quiescent()
    assert end_to_end.current_rate == pytest.approx(15 * MBPS)
    assert first_hop.current_rate == pytest.approx(85 * MBPS)
    assert validate_against_oracle(protocol).valid


def test_tiny_demand_is_honored_exactly():
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    _, tiny = open_bneck_session(protocol, "r0", "r1", "tiny", demand=0.001 * MBPS)
    _, bulk = open_bneck_session(protocol, "r0", "r1", "bulk")
    protocol.run_until_quiescent()
    assert tiny.current_rate == pytest.approx(0.001 * MBPS)
    assert bulk.current_rate == pytest.approx(100 * MBPS - 0.001 * MBPS)


def test_wan_scale_delays_on_a_synthetic_chain():
    network = line_topology(4, capacity=100 * MBPS, delay=milliseconds(5))
    protocol = BNeckProtocol(network)
    _, long_app = open_bneck_session(protocol, "r0", "r3", "long")
    _, short_app = open_bneck_session(protocol, "r1", "r2", "short")
    quiescence = protocol.run_until_quiescent()
    # Several 10 ms-per-hop round trips are needed before quiescence.
    assert quiescence > milliseconds(10)
    assert long_app.current_rate == pytest.approx(50 * MBPS)
    assert short_app.current_rate == pytest.approx(50 * MBPS)
    assert check_stability(protocol).stable


def test_change_demand_above_access_capacity_clamps_to_access_link():
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    application = _join_over_access_links(protocol, "clamped", 50 * MBPS, 1000 * MBPS)
    protocol.run_until_quiescent()
    assert application.current_rate == pytest.approx(50 * MBPS)
    # Asking for more than the access link can carry changes nothing.
    change_session(protocol, "clamped", 400 * MBPS)
    protocol.run_until_quiescent()
    assert application.current_rate == pytest.approx(50 * MBPS)
    assert validate_against_oracle(protocol).valid


def test_repeated_identical_change_requests_are_stable():
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    _, application = open_bneck_session(protocol, "r0", "r1", "steady", demand=40 * MBPS)
    protocol.run_until_quiescent()
    for _ in range(3):
        change_session(protocol, "steady", 40 * MBPS)
        protocol.run_until_quiescent()
        assert application.current_rate == pytest.approx(40 * MBPS)
        assert check_stability(protocol).stable
    assert validate_against_oracle(protocol).valid


def test_leave_immediately_after_join_converges():
    network = single_link_topology(capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    _, staying = open_bneck_session(protocol, "r0", "r1", "staying")
    open_bneck_session(protocol, "r0", "r1", "ephemeral", at=microseconds(10))
    # The ephemeral session leaves only a few microseconds after joining,
    # while its own Join cycle is still in flight.
    leave_session(protocol, "ephemeral", at=microseconds(25))
    protocol.run_until_quiescent()
    assert staying.current_rate == pytest.approx(100 * MBPS)
    assert len(protocol.registry) == 1
    assert validate_against_oracle(protocol).valid
    assert check_stability(protocol).stable
