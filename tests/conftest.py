"""Shared fixtures and helpers of the test suite."""

import collections
import fractions
import itertools
import math

import pytest

from repro.core.actions import ChangeAction, JoinAction, LeaveAction
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


def make_session(network, session_id, source_router, destination_router,
                 demand=math.inf, capacity=HOST_CAPACITY, delay=HOST_DELAY):
    """Build a Session between two fresh hosts attached to the given routers."""
    source_host = network.attach_host(source_router, capacity, delay).node_id
    destination_host = network.attach_host(destination_router, capacity, delay).node_id
    router_path = PathComputer(network).router_route(source_router, destination_router)
    node_path = [source_host] + router_path + [destination_host]
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


def join_action(session_id, at=0.0, demand=math.inf, source_router="r0",
                destination_router="r1", capacity=HOST_CAPACITY):
    """A :class:`JoinAction` of a session between two fresh hosts attached
    to the two routers, over access links of ``capacity`` and
    ``HOST_DELAY``."""
    return JoinAction(session_id, source_router, destination_router, demand, at,
                      capacity, HOST_DELAY)


def open_session(protocol, source_router, destination_router, session_id,
                 demand=math.inf, at=None):
    """Join a session between two fresh hosts on any protocol: a
    one-:class:`JoinAction` batch, dated ``at`` or else the simulator's
    current time.  Returns the session."""
    when = protocol.simulator.now if at is None else at
    join = join_action(session_id, when, demand, source_router, destination_router)
    return protocol.apply_actions([join])[session_id]


def open_bneck_session(protocol, source_router, destination_router,
                       session_id, demand=math.inf, at=None):
    """:func:`open_session` on a BNeckProtocol.  Returns ``(session,
    application)``."""
    session = open_session(protocol, source_router, destination_router, session_id,
                           demand, at)
    return session, protocol.application(session_id)


def script_access_links(network, hosts):
    """Give the next hosts attached to ``network`` the access links listed
    in ``hosts``: one ``(capacity, delay_to_router, delay_from_router)`` per
    host, in attach order, where a join attaches its source, then its
    destination.  Once the list is used up, hosts attach as usual.

    A :class:`JoinAction` gives both of its hosts, and both directions of
    each host's link, one capacity and one delay; this builds the sessions
    whose access links differ.
    """
    hosts = iter(hosts)
    host_ids = ("scripted-host-%d" % index for index in itertools.count(1))
    attach_as_usual = network.attach_host

    def attach_host(router_id, capacity, propagation_delay, host_id=None):
        scripted = next(hosts, None)
        if scripted is None:
            return attach_as_usual(router_id, capacity, propagation_delay, host_id)
        capacity, to_router, from_router = scripted
        host = network.add_host(next(host_ids), attached_router=router_id)
        network.add_link(host.node_id, router_id, capacity, to_router, bidirectional=False)
        network.add_link(router_id, host.node_id, capacity, from_router, bidirectional=False)
        return host

    network.attach_host = attach_host


def leave_session(protocol, session_id, at=None):
    """``API.Leave`` of a session: a one-:class:`LeaveAction` batch, dated
    ``at`` or else the simulator's current time."""
    when = protocol.simulator.now if at is None else at
    protocol.apply_actions([LeaveAction(session_id, when)])


def change_session(protocol, session_id, demand, at=None):
    """``API.Change`` of a session: a one-:class:`ChangeAction` batch, dated
    ``at`` or else the simulator's current time."""
    when = protocol.simulator.now if at is None else at
    protocol.apply_actions([ChangeAction(session_id, demand, when)])


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


def deliver(task, packet):
    """Hand ``packet`` to a B-Neck task now: call the handler the task's
    ``delivery`` table names for the packet's class, as a delivery off the
    simulator's heap does."""
    task.delivery[type(packet)](task, packet)


# ------------------------------------------------------------- bounded runs


def run_bounded(protocol, max_events, until=None):
    """Run ``protocol`` as ``run_until_quiescent()`` does -- or, with
    ``until``, as ``run(until=until)`` does -- one :meth:`Simulator.step` at
    a time, and fail once more than ``max_events`` events have run since its
    simulator was built: a livelock fails loudly instead of hanging the
    suite.  It ends with the protocol's own run, which finds no event left
    at or before the horizon but delivers B-Neck's last ``API.Rate`` batch
    and, with ``until``, moves the clock to the horizon.  Returns the
    clock."""
    simulator = protocol.simulator
    heap = simulator.heap
    while heap and (until is None or heap[0][0] <= until):
        simulator.step()
        if simulator.events_processed > max_events:
            pytest.fail("more than %d events by t=%r: a livelock?" % (max_events, simulator.now))
    return protocol.run(until=until)


# ------------------------------------------------------------ send recorder

#: One packet a B-Neck stage put on a link: its time, type name, session,
#: the link's key and ``"downstream"`` or ``"upstream"``.
Send = collections.namedtuple("Send", ("time", "packet_type", "session_id", "link", "direction"))


def record_sends(protocol):
    """Wrap ``forward_downstream``/``forward_upstream`` on this one
    :class:`BNeckProtocol` instance and return the list of every
    :data:`Send` it makes from then on, in send order.  A downstream packet
    crosses the sender's ``link_id``, an upstream one the reverse of its
    target's link, keyed ``link_id[::-1]``."""
    sends = []
    forward_downstream, forward_upstream = protocol.forward_downstream, protocol.forward_upstream

    def downstream(sender, packet):
        forward_downstream(sender, packet)
        sends.append(Send(protocol.simulator.now, packet.type_name, packet.session_id,
                          sender.link_id, "downstream"))

    def upstream(sender, packet):
        forward_upstream(sender, packet)
        target = sender.hops[packet.session_id][1]
        sends.append(Send(protocol.simulator.now, packet.type_name, packet.session_id,
                          target.link_id[::-1], "upstream"))

    protocol.forward_downstream = downstream
    protocol.forward_upstream = upstream
    return sends
