"""Unit tests for hop-count routing through :class:`PathComputer`."""

import collections
import random
import re

import pytest

from repro.core.actions import JoinAction
from repro.core.protocol import BNeckProtocol
from repro.network import routing
from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links
from repro.network.topology import line_topology, star_topology
from repro.network.transit_stub import (
    HOST_LINK_CAPACITY,
    HOST_LINK_DELAY,
    LAN,
    PAPER_BIG_PARAMETERS,
    PAPER_MEDIUM_PARAMETERS,
    big_network,
    generate_transit_stub,
    medium_network,
    small_network,
)
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds


def test_router_route_on_line():
    network = line_topology(5)
    path = PathComputer(network).router_route("r0", "r4")
    assert path == ["r0", "r1", "r2", "r3", "r4"]


def test_router_route_to_the_same_router():
    network = line_topology(3)
    assert PathComputer(network).router_route("r1", "r1") == ["r1"]


def test_router_route_prefers_fewer_hops():
    network = Network()
    for name in ("a", "b", "c", "d"):
        network.add_router(name)
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    network.add_link("b", "d", 10 * MBPS, microseconds(1))
    network.add_link("a", "c", 10 * MBPS, microseconds(1))
    network.add_link("c", "d", 10 * MBPS, microseconds(1))
    network.add_link("a", "d", 10 * MBPS, milliseconds(10))
    assert PathComputer(network).router_route("a", "d") == ["a", "d"]


def test_a_host_never_relays():
    # A host wired to two routers is still a leaf: the only two-hop route
    # through it must lose to the router-only one.
    network = Network()
    for name in ("a", "b", "c"):
        network.add_router(name)
    network.attach_host("a", 10 * MBPS, microseconds(1), host_id="h")
    network.add_link("h", "b", 10 * MBPS, microseconds(1))
    network.add_link("a", "c", 10 * MBPS, microseconds(1))
    network.add_link("c", "b", 10 * MBPS, microseconds(1))
    network.attach_host("b", 10 * MBPS, microseconds(1))
    assert PathComputer(network).router_route("a", "b") == ["a", "c", "b"]


def test_attached_hosts_leave_router_routes_unchanged():
    bare = line_topology(4)
    crowded = line_topology(4)
    for router in ("r0", "r1", "r2", "r3"):
        for _ in range(5):
            crowded.attach_host(router, 100 * MBPS, microseconds(1))
    for source, target in (("r0", "r3"), ("r3", "r0"), ("r1", "r2")):
        assert PathComputer(crowded).router_route(source, target) == PathComputer(
            bare
        ).router_route(source, target)


def test_path_links_matches_node_path():
    network = line_topology(4)
    node_path = PathComputer(network).router_route("r0", "r3")
    links = path_links(network, node_path)
    assert [link.endpoints for link in links] == [("r0", "r1"), ("r1", "r2"), ("r2", "r3")]


class TestPathComputer(object):
    def test_host_to_host_route_goes_through_attached_routers(self):
        network = star_topology(3)
        protocol = BNeckProtocol(network)
        session = protocol.apply_actions([JoinAction(
            "s", "leaf0", "leaf2", 10 * MBPS, 0.0, HOST_LINK_CAPACITY, HOST_LINK_DELAY)])["s"]
        route = session.node_path
        assert route[0] == session.source
        assert route[-1] == session.destination
        assert route[1:-1] == ["leaf0", "hub", "leaf2"]
        for host, router in ((session.source, "leaf0"), (session.destination, "leaf2")):
            assert network.node(host).attached_router == router

    def test_path_links_cover_a_host_route(self):
        network = star_topology(2)
        source = network.attach_host("leaf0", 100 * MBPS, microseconds(1)).node_id
        sink = network.attach_host("leaf1", 100 * MBPS, microseconds(1)).node_id
        route = [source] + PathComputer(network).router_route("leaf0", "leaf1") + [sink]
        links = path_links(network, route)
        assert links[0].source == source
        assert links[-1].target == sink
        for first, second in zip(links, links[1:]):
            assert first.target == second.source

    def test_router_route_returns_copy(self):
        network = star_topology(2)
        computer = PathComputer(network)
        first = computer.router_route("leaf0", "leaf1")
        first.append("tampered")
        second = computer.router_route("leaf0", "leaf1")
        assert "tampered" not in second


# ------------------------------------------------------- route equivalence
#
# The search is bidirectional over a dense router index and, past the level
# where its two halves meet, follows the routers of the shortest paths alone.
# The reference below is the plain breadth-first search it must agree with:
# it scans every out-neighbour, skips hosts that are not the target, and
# enters each router from the first popped router linked to it.  Every route
# must match its route exactly.


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


def reconstruct(predecessor, target):
    path = [target]
    while predecessor[path[-1]] is not None:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path


def with_hosts(network, count, seed):
    routers = [node.node_id for node in network.routers()]
    rng = random.Random(seed)
    for _ in range(count):
        network.attach_host(rng.choice(routers), HOST_LINK_CAPACITY, HOST_LINK_DELAY)
    return network


def test_every_router_pair_of_small_matches_the_full_scan():
    network = with_hosts(small_network(LAN, seed=1), 300, seed=2)
    routers = [node.node_id for node in network.routers()]
    computer = PathComputer(network)
    for source in routers:
        for target in routers:
            assert computer.router_route(source, target) == reference_bfs(
                network, source, target
            )


def test_sampled_router_pairs_of_medium_match_the_full_scan():
    network = with_hosts(medium_network(LAN, seed=1), 400, seed=3)
    _assert_sampled_pairs_match(network, 2000, seed=4)


def test_sampled_router_pairs_of_big_match_the_full_scan():
    network = with_hosts(big_network(LAN, seed=1), 400, seed=11)
    _assert_sampled_pairs_match(network, 1000, seed=12)


def _assert_sampled_pairs_match(network, count, seed):
    routers = [node.node_id for node in network.routers()]
    computer = PathComputer(network)
    rng = random.Random(seed)
    for _ in range(count):
        source, target = rng.choice(routers), rng.choice(routers)
        assert computer.router_route(source, target) == reference_bfs(
            network, source, target
        )


def _one_way_mesh(seed):
    """40 routers joined by 100 random links, about two thirds of them one
    way, with hosts attached: many router pairs are routed over one-way
    links, in-neighbours differ from out-neighbours, and some pairs have no
    path at all."""
    rng = random.Random(seed)
    network = Network("one-way mesh")
    routers = ["r%d" % index for index in range(40)]
    for router in routers:
        network.add_router(router)
    while network.number_of_links() < 100:
        source, target = rng.sample(routers, 2)
        if not network.has_link(source, target) and not network.has_link(target, source):
            network.add_link(source, target, 10 * MBPS, microseconds(1),
                             bidirectional=rng.random() < 0.35)
    return with_hosts(network, 60, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_router_pair_of_a_one_way_mesh_matches_the_full_scan(seed):
    network = _one_way_mesh(seed)
    routers = [node.node_id for node in network.routers()]
    computer = PathComputer(network)
    one_way_routes = unreachable = 0
    for source in routers:
        for target in routers:
            expected = reference_bfs(network, source, target)
            if expected is None:
                unreachable += 1
                with pytest.raises(ValueError, match=re.escape(
                        "no path from %r to %r" % (source, target))):
                    computer.router_route(source, target)
                continue
            assert computer.router_route(source, target) == expected
            one_way_routes += any(not network.has_link(downstream, upstream)
                                  for upstream, downstream in zip(expected, expected[1:]))
    assert one_way_routes > 100
    assert unreachable > 0


@pytest.mark.parametrize("source, target", [("c", "a"), ("h", "a"), ("b", "h")])
def test_a_router_pair_with_no_path_either_way_is_reported(source, target):
    """``a -> b -> c`` and ``a -> h -> x0, x1, x2`` are one-way links: from
    ``c`` the forward search runs dry at once; from ``h`` to ``a`` the
    backward one does, since ``a`` has no in-neighbour and the forward
    frontier is the larger; ``b`` reaches ``c`` only."""
    network = Network("one-way")
    for router in ("a", "b", "c", "h", "x0", "x1", "x2"):
        network.add_router(router)
    for upstream, downstream in (("a", "b"), ("b", "c"), ("a", "h"),
                                 ("h", "x0"), ("h", "x1"), ("h", "x2")):
        network.add_link(upstream, downstream, 10 * MBPS, microseconds(1),
                         bidirectional=False)
    assert reference_bfs(network, source, target) is None
    with pytest.raises(ValueError, match=re.escape("no path from %r to %r" % (source, target))):
        PathComputer(network).router_route(source, target)
    assert PathComputer(network).router_route("a", "x2") == ["a", "h", "x2"]


@pytest.mark.slow_bench
@pytest.mark.parametrize("parameters", [PAPER_MEDIUM_PARAMETERS, PAPER_BIG_PARAMETERS],
                         ids=["paper-medium", "paper-big"])
def test_sampled_router_pairs_at_paper_scale_match_the_full_scan(parameters):
    network = with_hosts(generate_transit_stub(parameters, scenario=LAN, seed=1), 1000, seed=13)
    _assert_sampled_pairs_match(network, 1000, seed=14)


def test_host_routes_match_the_full_scan():
    network = with_hosts(small_network(LAN, seed=1), 100, seed=5)
    hosts = sorted(node.node_id for node in network.hosts())
    computer = PathComputer(network)
    rng = random.Random(6)
    for _ in range(3000):
        source, target = rng.choice(hosts), rng.choice(hosts)
        if source == target:
            continue
        ingress = network.node(source).attached_router
        egress = network.node(target).attached_router
        route = [source] + computer.router_route(ingress, egress) + [target]
        assert route[1:-1] == reference_bfs(network, ingress, egress)
        assert route == reference_bfs(network, source, target)


def test_attaching_hosts_leaves_routes_unchanged():
    network = small_network(LAN, seed=1)
    routers = sorted(node.node_id for node in network.routers())
    pairs = [(source, target) for source in routers[::7] for target in routers[::5]]
    before = [PathComputer(network).router_route(source, target) for source, target in pairs]
    with_hosts(network, 500, seed=7)
    computer = PathComputer(network)
    assert [computer.router_route(source, target) for source, target in pairs] == before
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


def test_a_batch_routes_each_join_once(monkeypatch):
    """``apply_actions`` searches each join's router path once, when it
    checks the batch, and the replay builds the session along that path.
    Nothing is kept per router pair: the pair the batch names twice is
    searched twice."""
    searches = []

    def counting_search(relays, source, target):
        searches.append((source, target))
        return search(relays, source, target)

    search = routing._shortest_router_path
    monkeypatch.setattr(routing, "_shortest_router_path", counting_search)
    network = small_network(LAN, seed=1)
    routers = sorted(node.node_id for node in network.routers())
    rng = random.Random(10)
    pairs = [(rng.choice(routers), rng.choice(routers)) for _ in range(5)]
    pairs.append(pairs[0])
    batch = [
        JoinAction("s%d" % index, source, target, 10 * MBPS, milliseconds(1),
                   HOST_LINK_CAPACITY, HOST_LINK_DELAY)
        for index, (source, target) in enumerate(pairs)
    ]
    sessions = BNeckProtocol(network).apply_actions(batch)
    assert searches == pairs
    for action in batch:
        session = sessions[action.session_id]
        assert session.node_path == [session.source] + reference_bfs(
            network, action.source_router, action.destination_router
        ) + [session.destination]
        assert network.node(session.source).attached_router == action.source_router
        assert network.node(session.destination).attached_router == action.destination_router


def _joined_line():
    """``line_topology(3)`` with one session joined ``r0 -> r2``, so the
    protocol's route search has built its router map."""
    network = line_topology(3, capacity=100 * MBPS, delay=microseconds(1))
    protocol = BNeckProtocol(network)
    protocol.apply_actions([JoinAction("a", "r0", "r2", 10 * MBPS, milliseconds(1),
                                       HOST_LINK_CAPACITY, HOST_LINK_DELAY)])
    protocol.run_until_quiescent()
    return protocol


def test_a_router_added_after_the_first_route_can_be_joined_to():
    protocol = _joined_line()
    network = protocol.network
    network.add_router("x0")
    network.add_link("r0", "x0", 100 * MBPS, microseconds(1))
    at = protocol.simulator.now + milliseconds(1)
    sessions = protocol.apply_actions([JoinAction(
        "b", "r0", "x0", 10 * MBPS, at, HOST_LINK_CAPACITY, HOST_LINK_DELAY)])
    assert sessions["b"].node_path[1:-1] == ["r0", "x0"]
    protocol.run_until_quiescent()
    assert protocol.current_allocation().as_dict()["b"] == pytest.approx(10 * MBPS)


def test_a_router_link_added_after_the_first_route_is_taken():
    protocol = _joined_line()
    network = protocol.network
    network.add_link("r0", "r2", 100 * MBPS, microseconds(1))
    at = protocol.simulator.now + milliseconds(1)
    sessions = protocol.apply_actions([JoinAction(
        "b", "r0", "r2", 10 * MBPS, at, HOST_LINK_CAPACITY, HOST_LINK_DELAY)])
    fresh = PathComputer(network).router_route("r0", "r2")
    assert fresh == ["r0", "r2"]
    assert sessions["b"].node_path[1:-1] == fresh
    assert protocol.session("a").node_path[1:-1] == ["r0", "r1", "r2"]


def test_attaching_and_detaching_hosts_never_rebuilds_the_router_map(monkeypatch):
    network = small_network(LAN, seed=1)
    computer = PathComputer(network)
    routers = sorted(node.node_id for node in network.routers())
    computer.router_route(routers[0], routers[-1])
    builds = []
    monkeypatch.setattr(network, "routers", lambda: builds.append(1) or [])
    hosts = [network.attach_host(router, HOST_LINK_CAPACITY, HOST_LINK_DELAY)
             for router in routers]
    network.detach_host(hosts[0].node_id)
    assert computer.router_route(routers[1], routers[-1]) == reference_bfs(
        network, routers[1], routers[-1])
    assert builds == []


def test_path_computer_reports_unreachable_routers():
    network = Network("islands")
    for router in ("a", "b", "c"):
        network.add_router(router)
    network.add_link("a", "b", 10 * MBPS, microseconds(1))
    network.attach_host("a", 10 * MBPS, microseconds(1), host_id="h")
    computer = PathComputer(network)
    with pytest.raises(ValueError, match="no path from 'a' to 'c'"):
        computer.router_route("a", "c")
    for endpoint in ("h", "nowhere"):
        with pytest.raises(ValueError, match="%r is not a router" % endpoint):
            computer.router_route("a", endpoint)
        with pytest.raises(ValueError, match="%r is not a router" % endpoint):
            computer.router_route(endpoint, "a")
