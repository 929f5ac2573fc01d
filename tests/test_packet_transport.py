"""Per-stage hop data of the packet transport.

Every stage that transmits (a session's source and the RouterLinks of its
transit links) stores, once, the control delay of the link it sends on
(``hop_delay``; the link's key is the stage's ``link_id``) and the delay and
key of that link's reverse (``back_delay``/``back_key``).  Forwarding reads
only those, so they must match the network's links exactly.
"""

import math

import pytest

from repro.core.actions import JoinAction
from repro.core.packets import Update
from repro.core.protocol import BNeckProtocol
from repro.network.graph import Network
from repro.network.transit_stub import (
    HOST_LINK_CAPACITY,
    HOST_LINK_DELAY,
    LAN,
    medium_network,
    stub_routers,
)
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.tracing import PacketTracer
from tests.conftest import join_action, script_access_links


@pytest.fixture(scope="module")
def medium_run():
    """Sessions across a Medium LAN network, plus one whose two hosts hang
    off the same router (path host -> router -> host), run to quiescence."""
    network = medium_network(LAN, seed=4)
    protocol = BNeckProtocol(network, tracer=PacketTracer(keep_records=True))
    routers = stub_routers(network)
    pairs = [(routers[0], routers[-1]), (routers[3], routers[len(routers) // 2]),
             (routers[-1], routers[0]), (routers[7], routers[7])]
    joined = protocol.apply_actions([
        JoinAction("s%d" % index, source, destination, math.inf, 0.0,
                   HOST_LINK_CAPACITY, HOST_LINK_DELAY)
        for index, (source, destination) in enumerate(pairs)
    ])
    protocol.run_until_quiescent()
    return protocol, list(joined.values())


def _stages_with_links(protocol, session):
    yield protocol.source(session.session_id), session.access_link
    for link in session.transit_links:
        yield protocol.router_link(link.endpoints), link


def test_same_router_session_has_one_transit_stage(medium_run):
    _protocol, sessions = medium_run
    shared = sessions[-1]
    assert len(shared.links) == 2
    assert shared.links[0].target == shared.links[1].source


def test_every_stage_stores_its_link_and_reverse(medium_run):
    protocol, sessions = medium_run
    network = protocol.network
    checked = 0
    for session in sessions:
        for stage, link in _stages_with_links(protocol, session):
            reverse = network.reverse_link(link)
            assert stage.hop_delay == link.control_delay()
            assert stage.link_id == link.endpoints
            assert stage.back_delay == reverse.control_delay()
            assert stage.back_key == reverse.endpoints
            checked += 1
    assert checked == sum(len(session.links) for session in sessions)


def test_every_record_names_a_link_of_its_session(medium_run):
    protocol, sessions = medium_run
    by_id = {session.session_id: session for session in sessions}
    records = protocol.tracer.records
    assert len(records) == protocol.tracer.total > 0
    for record in records:
        links = by_id[record.session_id].links
        if record.direction == "downstream":
            assert record.link in [link.endpoints for link in links]
        else:
            assert record.link in [(link.target, link.source) for link in links]


def test_upstream_from_the_source_raises_and_counts_nothing(medium_run):
    """The source's hop row has no previous stage: no task sends upstream
    from it, and a send that tried would fail before counting or queueing."""
    protocol, sessions = medium_run
    session_id = sessions[0].session_id
    simulator = protocol.simulator
    before = (protocol.tracer.total, simulator.pending_events, protocol.in_flight_packets)
    assert protocol.source(session_id).hops[session_id][1] is None
    with pytest.raises(AttributeError):
        protocol.forward_upstream(protocol.source(session_id), Update(session_id))
    assert (protocol.tracer.total, simulator.pending_events,
            protocol.in_flight_packets) == before


def test_hops_use_the_delay_of_the_link_they_cross():
    """Each direction of the host -> router -> host path has its own delay,
    so a hop that used the wrong link's delay would arrive at the wrong time.
    A lone session's packets form one chain: each is sent when the previous
    one arrives."""
    network = Network("asymmetric")
    network.add_router("r")
    script_access_links(network, [
        (100 * MBPS, microseconds(1), microseconds(8)),  # h1 -> r, r -> h1
        (100 * MBPS, microseconds(4), microseconds(2)),  # h2 -> r, r -> h2
    ])
    protocol = BNeckProtocol(network, tracer=PacketTracer(keep_records=True))
    session = protocol.apply_actions([join_action("s", source_router="r", destination_router="r")])["s"]
    quiescence = protocol.run_until_quiescent()

    h1, h2 = session.source, session.destination
    records = protocol.tracer.records
    assert [(record.packet_type, record.link) for record in records] == [
        ("Join", (h1, "r")), ("Join", ("r", h2)),
        ("Response", (h2, "r")), ("Response", ("r", h1)),
        ("SetBottleneck", (h1, "r")), ("SetBottleneck", ("r", h2)),
    ]
    arrival = 0.0
    for record in records:
        assert record.time == pytest.approx(arrival, rel=1e-12)
        arrival = record.time + network.link(*record.link).control_delay()
    assert quiescence == pytest.approx(arrival, rel=1e-12)
