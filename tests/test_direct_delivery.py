"""Direct packet delivery: one queue entry per hop, calling the handler.

A ``forward_*`` call is a packet's whole send: it resolves the target
stage and the target's handler for the packet, counts the packet, and
pushes one ``(time, sequence, handler, target, packet)`` entry onto the
simulator's heap, whose delivery is the call ``handler(target, packet)``.
These tests pin down what that path promises:

* ``in_flight_packets`` is a recount of the queued packet deliveries at
  any point of a run, never counts a pending API call, and is 0 at the
  quiescence of every golden scenario;
* a packet class the target has no handler for raises ``TypeError``
  naming the target when it is sent, and leaves nothing queued or counted.
"""

import math
import re
from functools import partial

import pytest

from repro.core.packets import (
    Bottleneck,
    Join,
    Leave,
    Probe,
    Response,
    RESPONSE,
    SetBottleneck,
    Update,
)
from repro.core.destination_node import DestinationNodeTask
from repro.core.protocol import BNeckProtocol
from repro.core.router_link import RouterLinkTask
from repro.core.source_node import SourceNodeTask
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import build_network
from test_golden_invariance import GOLDENS, KEYS, run_golden
from tests.conftest import join_action

PACKET_CLASSES = (Join, Probe, Response, Update, Bottleneck, SetBottleneck, Leave)
TASK_CLASSES = (SourceNodeTask, RouterLinkTask, DestinationNodeTask)
MASS_JOIN_KEY = "small-lan-s2-n20"


class Stray(Update):
    """A packet class no stage has a handler for."""

    type_name = "Stray"
    __slots__ = ()


def _queued_deliveries(protocol):
    """Queued entries that deliver a packet to a stage, counted from their
    target and packet fields rather than from the packet alone."""
    return sum(
        1
        for entry in protocol.simulator.heap
        if isinstance(entry[3], TASK_CLASSES) and isinstance(entry[4], PACKET_CLASSES)
    )


def _mass_join(key, protocol_factory):
    """Hot-path golden ``key``: its sessions join within 1 ms (not yet run)."""
    size, delay, seed, count = key.split("-")
    seed, count = int(seed[1:]), int(count[1:])
    network = build_network(size, delay, seed)
    protocol = protocol_factory(network)
    protocol.apply_actions(
        WorkloadGenerator(network, seed=seed + count).generate(count, join_window=(0.0, 1e-3))
    )
    return protocol


def _single_session():
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = BNeckProtocol(network)
    protocol.apply_actions([join_action("a")])
    protocol.run_until_quiescent()
    return protocol


# ------------------------------------------------------------ in-flight count


def test_in_flight_packets_recount_mid_run():
    protocol = _mass_join(MASS_JOIN_KEY, BNeckProtocol)
    simulator = protocol.simulator
    seen = []
    for checkpoint in (1, 10, 50, 150, 300):
        while simulator.events_processed < checkpoint:
            assert simulator.step()
        in_flight = protocol.in_flight_packets
        assert in_flight == _queued_deliveries(protocol), checkpoint
        seen.append(in_flight)
    assert max(seen) > 0
    protocol.run_until_quiescent()
    assert protocol.in_flight_packets == _queued_deliveries(protocol) == 0


def test_in_flight_packets_skip_a_pending_join():
    protocol = _mass_join(MASS_JOIN_KEY, BNeckProtocol)
    simulator = protocol.simulator
    routers = sorted(node.node_id for node in protocol.network.routers())
    protocol.apply_actions([join_action("late", 1.0, math.inf, routers[0], routers[-1])])

    def pending_joins():
        return [entry[4] for entry in simulator.heap].count("API.Join")

    # Run until every join but the late one has fired.
    while pending_joins() > 1:
        assert simulator.step()
    in_flight = protocol.in_flight_packets
    assert 0 < in_flight == _queued_deliveries(protocol)
    # Every queued entry is a packet delivery except the future API.Join.
    assert simulator.pending_events == in_flight + 1
    protocol.run_until_quiescent()
    assert "late" in protocol.registry
    assert protocol.in_flight_packets == 0


@pytest.mark.parametrize("key", KEYS)
def test_no_packet_in_flight_at_the_quiescence_of_every_golden(key):
    protocol, result = run_golden(key)
    assert result == GOLDENS[key]
    assert protocol.simulator.pending_events == 0
    assert protocol.in_flight_packets == 0


def _is_join_to_a_router_link(entry):
    return isinstance(entry[4], Join) and isinstance(entry[3], RouterLinkTask)


def test_each_queued_delivery_calls_the_handler_itself():
    protocol = _mass_join(MASS_JOIN_KEY, BNeckProtocol)
    simulator = protocol.simulator
    while not any(_is_join_to_a_router_link(entry) for entry in simulator.heap):
        assert simulator.step()
    for entry in simulator.heap:
        assert len(entry) == 5
        assert not isinstance(entry[2], partial)
        if _is_join_to_a_router_link(entry):
            assert entry[2] is RouterLinkTask.on_join


# ---------------------------------------------------------- unknown packets


def _last_router_link(protocol):
    return protocol.router_link(protocol.session("a").links[-1].endpoints)


@pytest.mark.parametrize("send, target", [
    (lambda protocol: protocol.forward_downstream(protocol.source("a"), Stray("a")),
     lambda protocol: protocol.router_link(("r0", "r1"))),
    (lambda protocol: protocol.forward_upstream(
        protocol.router_link(("r0", "r1")), Stray("a")),
     lambda protocol: protocol.source("a")),
    (lambda protocol: protocol.forward_downstream(
        _last_router_link(protocol), Response("a", RESPONSE, 1.0, None)),
     lambda protocol: protocol.destination("a")),
    (lambda protocol: protocol.forward_upstream(protocol.destination("a"), Stray("a")),
     _last_router_link),
], ids=["to-router-link", "to-source", "to-destination", "from-destination"])
def test_unknown_packet_class_raises_at_send_and_queues_nothing(send, target):
    protocol = _single_session()
    simulator = protocol.simulator
    name = target(protocol).name
    assert name[:3] in ("RL(", "SN(", "DN(")
    before = (protocol.tracer.total, simulator.pending_events,
              len(simulator.heap), protocol.in_flight_packets)
    with pytest.raises(TypeError, match="^%s cannot handle " % re.escape(name)):
        send(protocol)
    assert (protocol.tracer.total, simulator.pending_events,
            len(simulator.heap), protocol.in_flight_packets) == before
