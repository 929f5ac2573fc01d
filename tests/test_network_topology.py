"""Unit tests for the synthetic topology builders."""

import pytest

from repro.network.topology import (
    dumbbell_topology,
    line_topology,
    parking_lot_topology,
    single_link_topology,
    star_topology,
)
from repro.network.units import MBPS


def test_single_link_topology():
    network = single_link_topology(capacity=42 * MBPS)
    assert network.number_of_nodes() == 2
    assert network.link("r0", "r1").capacity == 42 * MBPS
    assert network.is_connected()


def test_line_topology_structure():
    network = line_topology(5)
    assert network.number_of_nodes() == 5
    # 4 undirected segments -> 8 directed links.
    assert network.number_of_links() == 8
    assert network.has_link("r2", "r3")
    assert not network.has_link("r0", "r2")
    assert network.is_connected()


def test_line_topology_requires_two_routers():
    with pytest.raises(ValueError):
        line_topology(1)


def test_parking_lot_is_a_line_of_hops():
    network = parking_lot_topology(4)
    assert network.number_of_nodes() == 5
    assert network.has_link("r3", "r4")


def test_star_topology_structure():
    network = star_topology(6)
    assert network.number_of_nodes() == 7
    assert all(network.has_link("hub", "leaf%d" % index) for index in range(6))
    assert not network.has_link("leaf0", "leaf1")
    assert network.is_connected()


def test_star_topology_requires_a_leaf():
    with pytest.raises(ValueError):
        star_topology(0)


def test_dumbbell_topology_structure():
    network = dumbbell_topology(side_count=2, bottleneck_capacity=10 * MBPS)
    assert network.has_link("left", "right")
    assert network.link("left", "right").capacity == 10 * MBPS
    # Edge links are faster than the bottleneck by default.
    assert network.link("west0", "left").capacity > 10 * MBPS
    assert network.number_of_nodes() == 6
    assert network.is_connected()


def test_dumbbell_explicit_edge_capacity():
    network = dumbbell_topology(side_count=1, bottleneck_capacity=10 * MBPS, edge_capacity=20 * MBPS)
    assert network.link("west0", "left").capacity == 20 * MBPS


def test_dumbbell_requires_a_side_router():
    with pytest.raises(ValueError):
        dumbbell_topology(0)
