"""Shared fixtures and helpers of the test suite."""

import fractions

import pytest

from repro.core.protocol import BNeckProtocol
from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links
from repro.network.session import Session
from repro.network.topology import (
    dumbbell_topology,
    parking_lot_topology,
    single_link_topology,
    star_topology,
)
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.simulation import Simulator

HOST_CAPACITY = 1000 * MBPS
HOST_DELAY = microseconds(1)


@pytest.fixture
def simulator():
    return Simulator()


# --------------------------------------------------------------------- helpers


def attach_endpoints(network, source_router, destination_router,
                     capacity=HOST_CAPACITY, delay=HOST_DELAY):
    """Attach a fresh source host and destination host and return their ids."""
    source = network.attach_host(source_router, capacity, delay)
    destination = network.attach_host(destination_router, capacity, delay)
    return source.node_id, destination.node_id


def make_session(network, session_id, source_router, destination_router,
                 demand=float("inf"), capacity=HOST_CAPACITY, delay=HOST_DELAY):
    """Build a Session between two fresh hosts attached to the given routers."""
    source_host, destination_host = attach_endpoints(
        network, source_router, destination_router, capacity, delay
    )
    computer = PathComputer(network)
    node_path = computer.route(source_host, destination_host)
    links = path_links(network, node_path)
    return Session(session_id, source_host, destination_host, node_path, links, demand)


def exact_single_link_sessions(demands):
    """One session per demand over a single 100 Mbps link, with every
    capacity and finite demand a ``Fraction``, so the oracles compute exact
    rational rates."""
    network = single_link_topology(capacity=fractions.Fraction(100 * 10**6))
    return [
        make_session(network, "s%d" % index, "r0", "r1", demand=demand,
                     capacity=fractions.Fraction(1000 * 10**6))
        for index, demand in enumerate(demands)
    ]


def open_bneck_session(protocol, source_router, destination_router,
                       session_id, demand=float("inf"), at=None):
    """Attach hosts and join a session on a running BNeckProtocol."""
    source_host, destination_host = attach_endpoints(
        protocol.network, source_router, destination_router
    )
    session = protocol.create_session(
        source_host, destination_host, demand=demand, session_id=session_id
    )
    application = protocol.join(session, at=at)
    return session, application


def parking_lot_protocol(hop_count=3, capacity=100 * MBPS):
    """A BNeckProtocol over a parking-lot topology (no sessions yet)."""
    network = parking_lot_topology(hop_count, capacity=capacity)
    return BNeckProtocol(network)


def parking_lot_workload(protocol, hop_count=3):
    """The canonical parking-lot workload: one long session plus one per hop."""
    applications = {}
    _, applications["long"] = open_bneck_session(
        protocol, "r0", "r%d" % hop_count, session_id="long"
    )
    for hop in range(hop_count):
        _, applications["short%d" % hop] = open_bneck_session(
            protocol, "r%d" % hop, "r%d" % (hop + 1), session_id="short%d" % hop
        )
    return applications


# ------------------------------------------------------------------- fixtures


@pytest.fixture
def single_link_network():
    return single_link_topology(capacity=100 * MBPS)


@pytest.fixture
def parking_lot_network():
    return parking_lot_topology(3, capacity=100 * MBPS)


@pytest.fixture
def dumbbell_network():
    return dumbbell_topology(side_count=3, bottleneck_capacity=100 * MBPS)


@pytest.fixture
def star_network():
    return star_topology(4, capacity=100 * MBPS)


@pytest.fixture
def two_router_network():
    """A hand-built two-router network used by low-level tests."""
    network = Network("two-routers")
    network.add_router("a")
    network.add_router("b")
    network.add_link("a", "b", 100 * MBPS, microseconds(1))
    return network


class ForwardingRecorder(object):
    """A stand-in for BNeckProtocol that records what tasks try to send.

    It implements the forwarding / notification interface the RouterLink,
    SourceNode and DestinationNode tasks rely on, without any simulation, so
    handler-level unit tests can inspect exactly which packets a single
    handler invocation produced.
    """

    def __init__(self):
        self.downstream = []
        self.upstream = []
        self.notifications = []
        self._last_rates = {}

    def forward_downstream(self, sender, packet):
        self.downstream.append((sender.link_id, packet))

    def forward_upstream(self, sender, packet):
        self.upstream.append((sender.link_id, packet))

    def forward_upstream_from_destination(self, session_id, packet):
        self.upstream.append((("destination", session_id), packet))

    def notify_rate(self, session_id, rate):
        self.notifications.append((session_id, rate))
        self._last_rates[session_id] = rate

    def last_notified_rate(self, session_id):
        return self._last_rates.get(session_id)

    # Convenience accessors -------------------------------------------------

    def downstream_packets(self):
        return [packet for _, packet in self.downstream]

    def upstream_packets(self):
        return [packet for _, packet in self.upstream]

    def clear(self):
        self.downstream = []
        self.upstream = []
        self.notifications = []


@pytest.fixture
def recorder():
    return ForwardingRecorder()
