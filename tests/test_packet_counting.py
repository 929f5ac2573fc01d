"""Packet counts are exact, however the tracer is read or swapped.

B-Neck counts each control packet with one increment of its session's list
of per-type counts, a list the tracer owns and hands out with
``counts_for``.  These tests pin down what that promises beyond the
goldens:

* a session that left keeps its counts, and one that joined but never sent
  a packet is absent from ``by_session``;
* after a tracer swap in mid-run, the new tracer counts exactly the packets
  sent after the swap, and the old tracer's counts stop changing.

The mid-run checks compare against a run of the same schedule whose tracer
keeps every record from the start: the records after the first ``k`` are
exactly the packets sent after the point where ``k`` had been sent.
"""

import collections

import pytest

from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.tracing import PacketTracer
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import build_network
from test_golden_invariance import GOLDENS
from tests.conftest import change_session, join_action, leave_session

KEY = "small-lan-s2-n20"
# Events processed before the tracer is swapped: two thirds of
# the way through the golden run's 595 events.
MIDPOINT = 400


def _mass_join(tracer):
    """Golden ``KEY``'s sessions, joined within 1 ms but not yet run."""
    network = build_network("small", "lan", 2)
    protocol = BNeckProtocol(network, tracer=tracer)
    protocol.apply_actions(WorkloadGenerator(network, seed=22).generate(20, join_window=(0.0, 1e-3)))
    return protocol


def _run_to(protocol, events):
    simulator = protocol.simulator
    while simulator.events_processed < events:
        assert simulator.step()


def _counters(tracer):
    return tracer.total, tracer.by_type, tracer.by_session


@pytest.fixture(scope="module")
def records():
    """Every record of the golden run, and how many were sent by
    ``MIDPOINT``."""
    protocol = _mass_join(PacketTracer(keep_records=True))
    _run_to(protocol, MIDPOINT)
    sent_by_midpoint = len(protocol.tracer.records)
    protocol.run_until_quiescent()
    assert protocol.tracer.total == GOLDENS[KEY]["packets"]
    return protocol.tracer.records, sent_by_midpoint


def _recount(records):
    return (
        len(records),
        collections.Counter(r.packet_type for r in records),
        collections.Counter(r.session_id for r in records),
    )


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


@pytest.mark.parametrize("new_records", [False, True], ids=["to-counting", "to-recording"])
@pytest.mark.parametrize("old_records", [False, True], ids=["counting", "recording"])
def test_swap_mid_run_splits_the_packets_at_the_swap(records, old_records, new_records):
    all_records, sent_by_midpoint = records
    protocol = _mass_join(PacketTracer(keep_records=old_records))
    _run_to(protocol, MIDPOINT)
    old = protocol.tracer
    at_swap = _counters(old)
    assert at_swap == _recount(all_records[:sent_by_midpoint])
    protocol.tracer = new = PacketTracer(keep_records=new_records)
    protocol.run_until_quiescent()
    assert _counters(old) == at_swap
    assert _counters(new) == _recount(all_records[sent_by_midpoint:])
