"""Per-stage hop data of the packet transport.

Every stage that transmits (a session's source and the RouterLinks of its
transit links) stores, once, the control delay of the link it sends on
(``hop_delay``; the link's key is the stage's ``link_id``) and the delay of
that link's reverse (``back_delay``; its key is ``link_id[::-1]``).
Forwarding reads only those, so they must match the network's links exactly.
The sends are observed with the test-side recorder of ``tests/conftest.py``.
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
from tests.conftest import join_action, record_sends, script_access_links


@pytest.fixture(scope="module")
def medium_run():
    """Sessions across a Medium LAN network, plus one whose two hosts hang
    off the same router (path host -> router -> host), run to quiescence."""
    network = medium_network(LAN, seed=4)
    protocol = BNeckProtocol(network)
    sends = record_sends(protocol)
    routers = stub_routers(network)
    pairs = [(routers[0], routers[-1]), (routers[3], routers[len(routers) // 2]),
             (routers[-1], routers[0]), (routers[7], routers[7])]
    joined = protocol.apply_actions([
        JoinAction("s%d" % index, source, destination, math.inf, 0.0,
                   HOST_LINK_CAPACITY, HOST_LINK_DELAY)
        for index, (source, destination) in enumerate(pairs)
    ])
    protocol.run_until_quiescent()
    return protocol, list(joined.values()), sends


def _stages_with_links(protocol, session):
    yield protocol.source(session.session_id), session.access_link
    for link in session.transit_links:
        yield protocol.router_link(link.endpoints), link


def test_same_router_session_has_one_transit_stage(medium_run):
    _protocol, sessions, _sends = medium_run
    shared = sessions[-1]
    assert len(shared.links) == 2
    assert shared.links[0].target == shared.links[1].source


def test_every_stage_stores_its_link_and_reverse(medium_run):
    protocol, sessions, _sends = medium_run
    network = protocol.network
    checked = 0
    for session in sessions:
        for stage, link in _stages_with_links(protocol, session):
            reverse = network.reverse_link(link)
            assert stage.hop_delay == link.control_delay()
            assert stage.link_id == link.endpoints
            assert stage.back_delay == reverse.control_delay()
            assert reverse.endpoints == stage.link_id[::-1]
            checked += 1
    assert checked == sum(len(session.links) for session in sessions)


def test_every_send_names_a_link_of_its_session(medium_run):
    protocol, sessions, sends = medium_run
    by_id = {session.session_id: session for session in sessions}
    assert len(sends) == protocol.tracer.total > 0
    for send in sends:
        links = by_id[send.session_id].links
        if send.direction == "downstream":
            assert send.link in [link.endpoints for link in links]
        else:
            assert send.link in [(link.target, link.source) for link in links]


def test_upstream_from_the_source_raises_and_counts_nothing(medium_run):
    """The source's hop row has no previous stage: no task sends upstream
    from it, and a send that tried would fail before counting or queueing."""
    protocol, sessions, _sends = medium_run
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
    protocol = BNeckProtocol(network)
    sends = record_sends(protocol)
    session = protocol.apply_actions([join_action("s", source_router="r", destination_router="r")])["s"]
    quiescence = protocol.run_until_quiescent()

    h1, h2 = session.source, session.destination
    assert [(send.packet_type, send.link) for send in sends] == [
        ("Join", (h1, "r")), ("Join", ("r", h2)),
        ("Response", (h2, "r")), ("Response", ("r", h1)),
        ("SetBottleneck", (h1, "r")), ("SetBottleneck", ("r", h2)),
    ]
    assert len(sends) == protocol.tracer.total
    arrival = 0.0
    for send in sends:
        assert send.time == pytest.approx(arrival, rel=1e-12)
        arrival = send.time + network.link(*send.link).control_delay()
    assert quiescence == pytest.approx(arrival, rel=1e-12)
