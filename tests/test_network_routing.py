"""Unit tests for shortest-path routing."""

import pytest

from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links, shortest_path
from repro.network.topology import line_topology, star_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds


def test_shortest_path_on_line():
    network = line_topology(5)
    path = shortest_path(network, "r0", "r4")
    assert path == ["r0", "r1", "r2", "r3", "r4"]


def test_shortest_path_same_node():
    network = line_topology(3)
    assert shortest_path(network, "r1", "r1") == ["r1"]


def test_shortest_path_prefers_fewer_hops():
    network = Network()
    for name in ("a", "b", "c", "d"):
        network.add_router(name)
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    network.add_link("b", "d", 10 * MBPS, microseconds(1))
    network.add_link("a", "c", 10 * MBPS, microseconds(1))
    network.add_link("c", "d", 10 * MBPS, microseconds(1))
    network.add_link("a", "d", 10 * MBPS, milliseconds(10))
    assert shortest_path(network, "a", "d", metric="hops") == ["a", "d"]


def test_delay_metric_avoids_slow_links():
    network = Network()
    for name in ("a", "b", "d"):
        network.add_router(name)
    network.add_link("a", "d", 10 * MBPS, milliseconds(10))
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    network.add_link("b", "d", 10 * MBPS, microseconds(1))
    assert shortest_path(network, "a", "d", metric="delay") == ["a", "b", "d"]


def test_unknown_metric_rejected():
    network = line_topology(2)
    with pytest.raises(ValueError):
        shortest_path(network, "r0", "r1", metric="bandwidth")


def test_no_path_raises():
    network = Network()
    network.add_router("a")
    network.add_router("b")
    with pytest.raises(ValueError):
        shortest_path(network, "a", "b")


def test_hop_routing_never_transits_a_host():
    # A host wired to two routers is still a leaf: the only two-hop route
    # through it must lose to the router-only one, while a path *to* the host
    # still ends there.
    network = Network()
    for name in ("a", "b", "c"):
        network.add_router(name)
    network.add_host("h")
    network.add_link("a", "h", 10 * MBPS, microseconds(1))
    network.add_link("h", "b", 10 * MBPS, microseconds(1))
    network.add_link("a", "c", 10 * MBPS, microseconds(1))
    network.add_link("c", "b", 10 * MBPS, microseconds(1))
    assert shortest_path(network, "a", "b") == ["a", "c", "b"]
    assert shortest_path(network, "a", "h") == ["a", "h"]
    assert shortest_path(network, "h", "c") == ["h", "a", "c"]


def test_hop_routing_ignores_attached_hosts():
    bare = line_topology(4)
    crowded = line_topology(4)
    for router in ("r0", "r1", "r2", "r3"):
        for _ in range(5):
            crowded.attach_host(router, 100 * MBPS, microseconds(1))
    for source, target in (("r0", "r3"), ("r3", "r0"), ("r1", "r2")):
        assert shortest_path(crowded, source, target) == shortest_path(bare, source, target)


def test_path_links_matches_node_path():
    network = line_topology(4)
    node_path = shortest_path(network, "r0", "r3")
    links = path_links(network, node_path)
    assert [link.endpoints for link in links] == [("r0", "r1"), ("r1", "r2"), ("r2", "r3")]


class TestPathComputer(object):
    def test_host_to_host_route_goes_through_attached_routers(self):
        network = star_topology(3)
        source = network.attach_host("leaf0", 100 * MBPS, microseconds(1))
        sink = network.attach_host("leaf2", 100 * MBPS, microseconds(1))
        computer = PathComputer(network)
        route = computer.route(source.node_id, sink.node_id)
        assert route[0] == source.node_id
        assert route[-1] == sink.node_id
        assert route[1:-1] == ["leaf0", "hub", "leaf2"]

    def test_route_links_cover_whole_route(self):
        network = star_topology(2)
        source = network.attach_host("leaf0", 100 * MBPS, microseconds(1))
        sink = network.attach_host("leaf1", 100 * MBPS, microseconds(1))
        computer = PathComputer(network)
        links = computer.route_links(source.node_id, sink.node_id)
        assert links[0].source == source.node_id
        assert links[-1].target == sink.node_id
        for first, second in zip(links, links[1:]):
            assert first.target == second.source

    def test_router_segment_is_cached(self):
        network = star_topology(3)
        computer = PathComputer(network)
        hosts = []
        for _ in range(3):
            hosts.append(
                (
                    network.attach_host("leaf0", 100 * MBPS, microseconds(1)).node_id,
                    network.attach_host("leaf1", 100 * MBPS, microseconds(1)).node_id,
                )
            )
        for source, sink in hosts:
            computer.route(source, sink)
        # All three host pairs share the same router segment -> one cache entry.
        assert computer.cache_size() == 1

    def test_router_route_returns_copy(self):
        network = star_topology(2)
        computer = PathComputer(network)
        first = computer.router_route("leaf0", "leaf1")
        first.append("tampered")
        second = computer.router_route("leaf0", "leaf1")
        assert "tampered" not in second
