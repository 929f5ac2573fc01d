"""Unit tests for the network graph model."""

import math

import pytest

from repro.network.graph import Link, Network
from repro.network.routing import PathComputer
from repro.network.topology import line_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds


class TestNodesAndLinks(object):
    def test_add_router_and_host(self):
        network = Network()
        router = network.add_router("r1", tier="stub")
        host = network.add_host("h1", attached_router="r1")
        assert router.is_router and not router.is_host
        assert host.is_host and not host.is_router
        assert router.tier == "stub"
        assert host.attached_router == "r1"
        assert network.node("r1") is router

    def test_duplicate_node_rejected(self):
        network = Network()
        network.add_router("r1")
        with pytest.raises(ValueError):
            network.add_router("r1")

    def test_unknown_node_kind_rejected(self):
        from repro.network.graph import Node

        with pytest.raises(ValueError):
            Node("x", "switch")

    def test_bidirectional_link_by_default(self, two_router_network):
        assert two_router_network.has_link("a", "b")
        assert two_router_network.has_link("b", "a")
        forward = two_router_network.link("a", "b")
        reverse = two_router_network.reverse_link(forward)
        assert reverse.source == "b" and reverse.target == "a"

    def test_unidirectional_link(self):
        network = Network()
        network.add_router("a")
        network.add_router("b")
        network.add_link("a", "b", 10 * MBPS, 1e-6, bidirectional=False)
        assert network.has_link("a", "b")
        assert not network.has_link("b", "a")

    def test_link_requires_existing_endpoints(self):
        network = Network()
        network.add_router("a")
        with pytest.raises(KeyError):
            network.add_link("a", "missing", 10 * MBPS, 1e-6)

    def test_self_loop_rejected(self):
        network = Network()
        network.add_router("a")
        with pytest.raises(ValueError):
            network.add_link("a", "a", 10 * MBPS, 1e-6)

    def test_duplicate_link_rejected(self, two_router_network):
        with pytest.raises(ValueError):
            two_router_network.add_link("a", "b", 10 * MBPS, 1e-6)

    def test_invalid_link_parameters_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", 0.0, 1e-6)
        with pytest.raises(ValueError):
            Link("a", "b", 10 * MBPS, -1e-6)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf])
    def test_non_finite_capacity_rejected(self, capacity):
        # A NaN capacity used to give a NaN control delay, and NaN event
        # times silently corrupt the event heap's order.
        with pytest.raises(ValueError, match="'a' -> 'b'.*capacity"):
            Link("a", "b", capacity, 1e-6)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_propagation_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="'a' -> 'b'.*propagation delay"):
            Link("a", "b", 1e6, delay)

    def test_add_link_with_nan_delay_leaves_the_graph_unchanged(self):
        network = Network()
        network.add_router("x")
        network.add_router("y")
        with pytest.raises(ValueError):
            network.add_link("x", "y", 10 * MBPS, math.nan)
        assert network.number_of_links() == 0

    def test_control_delay_combines_propagation_and_transmission(self):
        link = Link("a", "b", 100 * MBPS, microseconds(5), control_packet_bits=1000.0)
        expected = microseconds(5) + 1000.0 / (100 * MBPS)
        assert link.control_delay() == pytest.approx(expected)

    def test_node_and_link_equality(self):
        link_a = Link("a", "b", 10 * MBPS, 1e-6)
        link_b = Link("a", "b", 20 * MBPS, 2e-6)
        link_c = Link("b", "a", 10 * MBPS, 1e-6)
        assert link_a == link_b
        assert link_a != link_c
        assert hash(link_a) == hash(link_b)


class TestTopologyQueries(object):
    def test_neighbors(self, two_router_network):
        assert two_router_network.neighbors("a") == ["b"]
        assert two_router_network.neighbors("b") == ["a"]

    def test_counting(self, two_router_network):
        assert two_router_network.number_of_nodes() == 2
        assert two_router_network.number_of_links() == 2

    def test_routers_and_hosts_partition_nodes(self, two_router_network):
        two_router_network.attach_host("a", 10 * MBPS, 1e-6)
        routers = {node.node_id for node in two_router_network.routers()}
        hosts = {node.node_id for node in two_router_network.hosts()}
        assert routers == {"a", "b"}
        assert len(hosts) == 1
        assert not routers & hosts

    def test_is_connected(self):
        network = Network()
        network.add_router("a")
        network.add_router("b")
        network.add_router("c")
        network.add_link("a", "b", 10 * MBPS, 1e-6)
        assert not network.is_connected()
        network.add_link("b", "c", 10 * MBPS, 1e-6)
        assert network.is_connected()

    def test_empty_network_is_connected(self):
        assert Network().is_connected()

    def test_router_changes_moves_with_routers_and_links_not_with_hosts(self):
        network = Network()
        assert network.router_changes == 0
        network.add_router("a")
        network.add_router("b")
        assert network.router_changes == 2
        network.add_link("a", "b", 10 * MBPS, 1e-6)
        assert network.router_changes == 3
        with pytest.raises(ValueError, match="duplicate link"):
            network.add_link("b", "a", 10 * MBPS, 1e-6)
        host = network.attach_host("a", 10 * MBPS, 1e-6)
        network.add_host("loose")
        network.detach_host(host.node_id)
        assert network.router_changes == 3
        with pytest.raises(AttributeError):
            network.router_changes = 0


class TestHostAttachment(object):
    def test_attach_host_creates_both_directions(self, two_router_network):
        host = two_router_network.attach_host("a", 50 * MBPS, microseconds(2))
        assert two_router_network.has_link(host.node_id, "a")
        assert two_router_network.has_link("a", host.node_id)
        assert two_router_network.link(host.node_id, "a").capacity == 50 * MBPS
        assert host.attached_router == "a"

    def test_attach_host_generates_unique_ids(self, two_router_network):
        first = two_router_network.attach_host("a", 10 * MBPS, 1e-6)
        second = two_router_network.attach_host("b", 10 * MBPS, 1e-6)
        assert first.node_id != second.node_id

    def test_attach_host_with_explicit_id(self, two_router_network):
        host = two_router_network.attach_host("a", 10 * MBPS, 1e-6, host_id="alice")
        assert host.node_id == "alice"
        assert two_router_network.node("alice") is host

    @pytest.mark.parametrize("router", ["nowhere", "alice"])
    def test_attach_host_to_a_non_router_adds_nothing(self, two_router_network, router):
        two_router_network.attach_host("a", 10 * MBPS, 1e-6, host_id="alice")
        nodes, links = two_router_network.nodes(), two_router_network.links()
        with pytest.raises(ValueError, match="%r: not a router" % router):
            two_router_network.attach_host(router, 10 * MBPS, 1e-6)
        with pytest.raises(ValueError, match="not a router"):
            two_router_network.attach_host(router, 10 * MBPS, 1e-6, host_id="bob")
        assert two_router_network.nodes() == nodes
        assert two_router_network.links() == links


class TestHostDetachment(object):
    def test_detach_host_removes_the_node_both_links_and_the_adjacency_entry(
            self, two_router_network):
        network = two_router_network
        kept = network.attach_host("a", 10 * MBPS, 1e-6, host_id="kept")
        host = network.attach_host("a", 10 * MBPS, 1e-6, host_id="alice")
        network.detach_host(host.node_id)
        with pytest.raises(KeyError):
            network.node("alice")
        assert not network.has_link("alice", "a")
        assert not network.has_link("a", "alice")
        assert network.neighbors("a") == ["b", kept.node_id]
        assert [node.node_id for node in network.hosts()] == ["kept"]
        assert network.number_of_links() == 4
        assert network.is_connected()

    @pytest.mark.parametrize("node_id", ["a", "nowhere"])
    def test_detach_host_refuses_a_router_or_an_unknown_id(self, two_router_network, node_id):
        network = two_router_network
        network.attach_host("a", 10 * MBPS, 1e-6, host_id="alice")
        nodes, links = network.nodes(), network.links()
        neighbors = {node.node_id: network.neighbors(node.node_id) for node in nodes}
        with pytest.raises(ValueError, match="cannot detach %r: not a host" % node_id):
            network.detach_host(node_id)
        assert network.nodes() == nodes
        assert network.links() == links
        assert {node.node_id: network.neighbors(node.node_id) for node in nodes} == neighbors

    def test_a_host_attached_after_a_detach_is_routed_as_before(self):
        network = line_topology(3, capacity=100 * MBPS, delay=microseconds(1))
        paths = PathComputer(network)
        first = network.attach_host("r0", 10 * MBPS, 1e-6)
        network.attach_host("r2", 10 * MBPS, 1e-6)
        before = paths.router_route("r0", "r2")
        network.detach_host(first.node_id)
        second = network.attach_host("r0", 10 * MBPS, 1e-6)
        assert second.node_id != first.node_id
        assert second.attached_router == "r0"
        assert paths.router_route("r0", "r2") == before == ["r0", "r1", "r2"]
        # The route search knows routers only: neither the new host nor the
        # detached one is an endpoint.
        for host in (first.node_id, second.node_id):
            for ends in (("r0", host), (host, "r2")):
                with pytest.raises(ValueError, match="%r is not a router" % (host,)):
                    paths.router_route(*ends)
