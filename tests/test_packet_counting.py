"""Packet counts are exact, however the tracer is read.

B-Neck counts each control packet with one increment of its session's list
of per-type counts, a list the tracer owns and hands out with
``counts_for``.  These tests pin down what that promises beyond the
goldens:

* a session that left keeps its counts, and one that joined but never sent
  a packet is absent from ``by_session``;
* the tracer is fixed at construction, since every hop row holds its lists:
  assigning another one raises instead of leaving the rows counting into
  the old one.  The baselines share the rule, so every protocol's tracer is
  the one it was built with.
"""

import pytest

from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol
from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.tracing import PacketTracer
from tests.conftest import change_session, join_action, leave_session


def test_a_session_that_left_keeps_its_counts_and_a_silent_one_is_absent():
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = BNeckProtocol(network)
    protocol.apply_actions([join_action("temp"), join_action("perm"), join_action("late", 1.0)])
    protocol.run(until=0.1)
    leave_session(protocol, "temp")
    protocol.run(until=0.2)
    tracer = protocol.tracer
    left = tracer.by_session["temp"]
    assert tracer.by_type["Leave"] == protocol.session("temp").path_length
    change_session(protocol, "perm", 10 * MBPS)
    protocol.run(until=0.3)
    by_session = tracer.by_session
    assert by_session["temp"] == left
    assert by_session["perm"] > 0
    # "late" joined, so it has a list, but it has not sent a packet yet.
    assert "late" not in by_session
    assert tracer.packets_per_session() == tracer.total / 2.0
    protocol.run_until_quiescent()
    assert tracer.by_session["late"] > 0


@pytest.mark.parametrize("protocol_class",
                         [BNeckProtocol, BFYZProtocol, CGProtocol, RCPProtocol],
                         ids=lambda protocol_class: protocol_class.__name__)
def test_the_tracer_cannot_be_replaced(protocol_class):
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    tracer = PacketTracer()
    protocol = protocol_class(network, tracer=tracer)
    with pytest.raises(AttributeError):
        protocol.tracer = PacketTracer()
    protocol.apply_actions([join_action("a")])
    # B-Neck quiesces long before the horizon; a baseline probes on.
    protocol.run(until=1e-3)
    assert protocol.tracer is tracer
    assert tracer.total > 0
