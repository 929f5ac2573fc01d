"""Unit tests for shortest-path routing."""

import collections
import heapq
import random

import pytest

from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links, shortest_path
from repro.network.topology import line_topology, star_topology
from repro.network.transit_stub import (
    HOST_LINK_CAPACITY,
    HOST_LINK_DELAY,
    LAN,
    medium_network,
    small_network,
)
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


def test_delay_routing_never_transits_a_host():
    # The host's two 1 us links beat the slow a-b link, but a host forwards
    # nothing: delay routing must agree with hop routing here.
    network = Network()
    for name in ("a", "b"):
        network.add_router(name)
    network.add_host("h")
    network.add_link("a", "h", 10 * MBPS, microseconds(1))
    network.add_link("h", "b", 10 * MBPS, microseconds(1))
    network.add_link("a", "b", 10 * MBPS, milliseconds(10))
    assert shortest_path(network, "a", "b", metric="delay") == ["a", "b"]
    assert shortest_path(network, "a", "b", metric="hops") == ["a", "b"]
    assert shortest_path(network, "a", "h", metric="delay") == ["a", "h"]
    assert shortest_path(network, "h", "b", metric="delay") == ["h", "b"]


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


# ------------------------------------------------------- route equivalence
#
# The searches expand only `Network.relay_neighbors` and enter the target
# from the first popped node linked to it.  The references below scan every
# out-neighbour (hop search) or every out-link (delay search) and skip hosts
# that are not the target; every route must match theirs exactly.


def reference_bfs(network, source, target):
    if source == target:
        return [source]
    predecessor = {source: None}
    frontier = collections.deque([source])
    while frontier:
        current = frontier.popleft()
        for neighbor in network.neighbors(current):
            if neighbor in predecessor:
                continue
            if neighbor == target:
                predecessor[neighbor] = current
                return reconstruct(predecessor, target)
            if network.node(neighbor).is_host:
                continue
            predecessor[neighbor] = current
            frontier.append(neighbor)
    return None


def reference_dijkstra(network, source, target):
    if source == target:
        return [source]
    distances = {source: 0.0}
    predecessor = {source: None}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        distance, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == target:
            return reconstruct(predecessor, target)
        for link in network.out_links(current):
            neighbor = link.target
            if neighbor != target and network.node(neighbor).is_host:
                continue
            candidate = distance + link.propagation_delay
            if neighbor not in distances or candidate < distances[neighbor]:
                distances[neighbor] = candidate
                predecessor[neighbor] = current
                heapq.heappush(heap, (candidate, neighbor))
    return None


def reconstruct(predecessor, target):
    path = [target]
    while predecessor[path[-1]] is not None:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


def routed(network, source, target, metric="hops"):
    try:
        return shortest_path(network, source, target, metric)
    except ValueError:
        return None


def with_hosts(network, count, seed):
    routers = [node.node_id for node in network.routers()]
    rng = random.Random(seed)
    for _ in range(count):
        network.attach_host(rng.choice(routers), HOST_LINK_CAPACITY, HOST_LINK_DELAY)
    return network


def test_every_router_pair_of_small_matches_the_full_scan():
    network = with_hosts(small_network(LAN, seed=1), 300, seed=2)
    routers = [node.node_id for node in network.routers()]
    for source in routers:
        for target in routers:
            assert shortest_path(network, source, target) == reference_bfs(
                network, source, target
            )


def test_sampled_router_pairs_of_medium_match_the_full_scan():
    network = with_hosts(medium_network(LAN, seed=1), 400, seed=3)
    routers = [node.node_id for node in network.routers()]
    rng = random.Random(4)
    for _ in range(2000):
        source, target = rng.choice(routers), rng.choice(routers)
        assert shortest_path(network, source, target) == reference_bfs(
            network, source, target
        )
    for _ in range(200):
        source, target = rng.choice(routers), rng.choice(routers)
        assert shortest_path(network, source, target, "delay") == reference_dijkstra(
            network, source, target
        )


def test_host_targets_match_the_full_scan():
    network = with_hosts(small_network(LAN, seed=1), 100, seed=5)
    routers = sorted(node.node_id for node in network.routers())
    # A multi-homed host, and a host reached only over a one-way link.
    network.add_host("multi")
    for router in routers[::20]:
        network.add_link("multi", router, HOST_LINK_CAPACITY, HOST_LINK_DELAY)
    network.add_host("one-way")
    network.add_link(routers[7], "one-way", HOST_LINK_CAPACITY, HOST_LINK_DELAY,
                     bidirectional=False)
    network.add_link("one-way", routers[50], HOST_LINK_CAPACITY, HOST_LINK_DELAY,
                     bidirectional=False)
    nodes = sorted(node.node_id for node in network.nodes())
    rng = random.Random(6)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(3000)]
    pairs += [(node, "multi") for node in nodes] + [("multi", node) for node in nodes]
    pairs += [(node, "one-way") for node in nodes] + [("one-way", node) for node in nodes]
    for source, target in pairs:
        assert routed(network, source, target) == reference_bfs(network, source, target)
    for source, target in pairs[::10]:
        assert routed(network, source, target, "delay") == reference_dijkstra(
            network, source, target
        )
    assert routed(network, routers[7], "one-way") == [routers[7], "one-way"]
    assert routed(network, routers[50], "one-way") == reference_bfs(
        network, routers[50], "one-way"
    )


def test_a_new_router_link_shortens_later_routes():
    network = line_topology(6)
    network.attach_host("r0", 100 * MBPS, microseconds(1))
    assert shortest_path(network, "r0", "r5") == ["r0", "r1", "r2", "r3", "r4", "r5"]
    network.add_link("r1", "r4", 10 * MBPS, microseconds(1))
    assert shortest_path(network, "r0", "r5") == ["r0", "r1", "r4", "r5"]
    assert shortest_path(network, "r5", "r0") == ["r5", "r4", "r1", "r0"]
    for source in ("r0", "r1", "r2", "r5"):
        for target in ("r0", "r3", "r5"):
            assert shortest_path(network, source, target) == reference_bfs(
                network, source, target
            )


def test_attaching_hosts_leaves_routes_unchanged():
    network = small_network(LAN, seed=1)
    routers = sorted(node.node_id for node in network.routers())
    pairs = [(source, target) for source in routers[::7] for target in routers[::5]]
    before = [shortest_path(network, source, target) for source, target in pairs]
    with_hosts(network, 500, seed=7)
    assert [shortest_path(network, source, target) for source, target in pairs] == before
    assert before == [reference_bfs(network, source, target) for source, target in pairs]


def test_path_computer_router_routes_match_the_full_scan():
    network = medium_network(LAN, seed=1)
    routers = [node.node_id for node in network.routers()]
    computer = PathComputer(network)
    rng = random.Random(8)
    pairs = [(rng.choice(routers), rng.choice(routers)) for _ in range(1500)]
    # Half the routes are searched before any host is attached: the relay
    # map built at the first search stays right as hosts attach.
    for source, target in pairs[:750]:
        assert computer.router_route(source, target) == reference_bfs(network, source, target)
    with_hosts(network, 400, seed=9)
    for source, target in pairs[750:]:
        assert computer.router_route(source, target) == reference_bfs(network, source, target)
    assert computer.router_route(routers[0], routers[0]) == [routers[0]]


def test_path_computer_reports_unreachable_routers():
    network = Network("islands")
    for router in ("a", "b", "c"):
        network.add_router(router)
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    with pytest.raises(ValueError):
        PathComputer(network).router_route("a", "c")
