"""Handler-level unit tests for the SourceNode (Figure 3) and DestinationNode (Figure 4) tasks."""

import pytest

from repro.core.destination_node import DestinationNodeTask
from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.source_node import SourceNodeTask
from repro.core.state import IDLE, WAITING_RESPONSE
from repro.network.units import MBPS
from tests.conftest import deliver, make_session


@pytest.fixture
def session(single_link_network):
    # Access links are 1000 Mbps; the backbone link r0 -> r1 is 100 Mbps.
    return make_session(single_link_network, "s1", "r0", "r1")


@pytest.fixture
def source(recorder, session):
    return SourceNodeTask(recorder, session)


@pytest.fixture
def destination(recorder, session):
    return DestinationNodeTask(recorder, session)


class TestSourceJoinLeaveChange(object):
    def test_api_join_sends_join_with_effective_demand(self, source, recorder):
        source.api_join(float("inf"))
        packets = recorder.downstream_packets()
        assert len(packets) == 1
        assert isinstance(packets[0], Join)
        # D_s = min(inf, 1000 Mbps access capacity).
        assert packets[0].rate == pytest.approx(1000 * MBPS)
        assert packets[0].restricting_link == source.link_id
        assert source.state.state_of("s1") == WAITING_RESPONSE
        assert "s1" in source.state.restricted
        assert source.current_rate() == 0.0

    def test_api_join_with_finite_demand(self, source, recorder):
        source.api_join(10 * MBPS)
        assert recorder.downstream_packets()[0].rate == pytest.approx(10 * MBPS)
        assert source.demand == pytest.approx(10 * MBPS)
        # The source's link state uses the modified-system capacity D_s.
        assert source.state.capacity == pytest.approx(10 * MBPS)

    def test_api_leave_sends_leave_and_clears_state(self, source, recorder):
        source.api_join(float("inf"))
        recorder.clear()
        source.api_leave()
        assert isinstance(recorder.downstream_packets()[0], Leave)
        assert not source.state.knows("s1")
        assert source.left

    def test_packets_after_leave_are_dropped(self, source, recorder):
        source.api_join(float("inf"))
        source.api_leave()
        recorder.clear()
        deliver(source, Response("s1", RESPONSE, 10 * MBPS, ("x", "y")))
        deliver(source, Update("s1"))
        assert recorder.downstream_packets() == []

    # One packet per handler, each of which would make the handler send or
    # notify if the session were still active.
    PACKETS_AFTER_LEAVE = [
        Update("s1"),
        Bottleneck("s1"),
        Response("s1", UPDATE, 10 * MBPS, ("x", "y")),
    ]

    def test_every_handler_is_covered_after_leave(self):
        assert {type(packet) for packet in self.PACKETS_AFTER_LEAVE} == set(
            SourceNodeTask.delivery
        )

    @pytest.mark.parametrize("packet", PACKETS_AFTER_LEAVE, ids=lambda packet: packet.type_name)
    def test_each_handler_drops_packets_after_leave(self, source, recorder, packet):
        source.api_join(float("inf"))
        source.api_leave()
        recorder.clear()
        deliver(source, packet)
        assert recorder.downstream_packets() == []
        assert recorder.notifications == []
        assert not source.state.knows("s1")

    def test_api_change_reprobes_when_idle(self, source, recorder):
        source.api_join(float("inf"))
        deliver(source, Response("s1", RESPONSE, 40 * MBPS, ("r0", "r1")))
        recorder.clear()
        source.api_change(20 * MBPS)
        probes = [p for p in recorder.downstream_packets() if isinstance(p, Probe)]
        assert len(probes) == 1
        assert probes[0].rate == pytest.approx(20 * MBPS)
        assert source.state.state_of("s1") == WAITING_RESPONSE

    def test_api_change_while_probing_defers(self, source, recorder):
        source.api_join(float("inf"))
        recorder.clear()
        source.api_change(20 * MBPS)
        assert recorder.downstream_packets() == []
        assert source.update_received
        # When the in-flight Response finally arrives, a new Probe fires even
        # though the Response itself was a plain RESPONSE.
        deliver(source, Response("s1", RESPONSE, 40 * MBPS, ("r0", "r1")))
        probes = [p for p in recorder.downstream_packets() if isinstance(p, Probe)]
        assert len(probes) == 1
        assert probes[0].rate == pytest.approx(20 * MBPS)


class TestSourceResponses(object):
    def test_plain_response_records_rate_without_notification(self, source, recorder):
        source.api_join(float("inf"))
        deliver(source, Response("s1", RESPONSE, 40 * MBPS, ("r0", "r1")))
        assert source.current_rate() == pytest.approx(40 * MBPS)
        assert source.state.state_of("s1") == IDLE
        # The rate (40) is below the demand (1000): no API.Rate yet, the
        # source waits for a Bottleneck indication.
        assert recorder.notifications == []
        assert not source.bottleneck_received

    def test_response_at_full_demand_declares_bottleneck(self, source, recorder):
        source.api_join(30 * MBPS)
        deliver(source, Response("s1", RESPONSE, 30 * MBPS, source.link_id))
        assert recorder.notifications == [("s1", pytest.approx(30 * MBPS))]
        assert source.bottleneck_received
        set_bottlenecks = [p for p in recorder.downstream_packets() if isinstance(p, SetBottleneck)]
        assert set_bottlenecks and set_bottlenecks[-1].found_bottleneck is True

    def test_bottleneck_response_notifies_and_sets_beta(self, source, recorder):
        source.api_join(float("inf"))
        deliver(source, Response("s1", BOTTLENECK, 40 * MBPS, ("r0", "r1")))
        assert recorder.notifications == [("s1", pytest.approx(40 * MBPS))]
        set_bottlenecks = [p for p in recorder.downstream_packets() if isinstance(p, SetBottleneck)]
        assert len(set_bottlenecks) == 1
        # The rate is below the demand, so the source itself is not the
        # bottleneck: beta is False and the session moves to F_e at the source.
        assert set_bottlenecks[0].found_bottleneck is False
        assert "s1" in source.state.unrestricted

    def test_update_response_triggers_new_probe(self, source, recorder):
        source.api_join(float("inf"))
        recorder.clear()
        deliver(source, Response("s1", UPDATE, 40 * MBPS, ("r0", "r1")))
        probes = [p for p in recorder.downstream_packets() if isinstance(p, Probe)]
        assert len(probes) == 1
        assert source.state.state_of("s1") == WAITING_RESPONSE
        assert not source.bottleneck_received


class TestSourceUpdateAndBottleneckPackets(object):
    def test_update_when_idle_triggers_probe(self, source, recorder):
        source.api_join(float("inf"))
        deliver(source, Response("s1", RESPONSE, 40 * MBPS, ("r0", "r1")))
        recorder.clear()
        deliver(source, Update("s1"))
        probes = [p for p in recorder.downstream_packets() if isinstance(p, Probe)]
        assert len(probes) == 1
        assert source.state.state_of("s1") == WAITING_RESPONSE

    def test_update_while_probing_is_remembered(self, source, recorder):
        source.api_join(float("inf"))
        recorder.clear()
        deliver(source, Update("s1"))
        assert recorder.downstream_packets() == []
        assert source.update_received

    def test_bottleneck_packet_notifies_once(self, source, recorder):
        source.api_join(float("inf"))
        deliver(source, Response("s1", RESPONSE, 40 * MBPS, ("r0", "r1")))
        recorder.clear()
        deliver(source, Bottleneck("s1"))
        assert recorder.notifications == [("s1", pytest.approx(40 * MBPS))]
        assert source.state.state_of("s1") == IDLE
        assert source.bottleneck_received
        recorder.clear()
        # A duplicate Bottleneck changes nothing (bneck_rcv guard).
        deliver(source, Bottleneck("s1"))
        assert recorder.notifications == []
        assert recorder.downstream_packets() == []

    def test_bottleneck_packet_ignored_while_probing(self, source, recorder):
        source.api_join(float("inf"))
        recorder.clear()
        deliver(source, Bottleneck("s1"))
        assert recorder.notifications == []
        assert recorder.downstream_packets() == []


class TestDestinationNode(object):
    def test_join_is_answered_with_a_response(self, destination, recorder):
        deliver(destination, Join("s1", 25 * MBPS, ("r0", "r1")))
        packets = recorder.upstream_packets()
        assert len(packets) == 1
        assert isinstance(packets[0], Response)
        assert packets[0].tau == RESPONSE
        assert packets[0].rate == pytest.approx(25 * MBPS)
        assert packets[0].restricting_link == ("r0", "r1")
        assert destination.closed_probe_cycles == 1

    def test_probe_is_answered_with_a_response(self, destination, recorder):
        deliver(destination, Probe("s1", 30 * MBPS, ("r0", "r1")))
        assert isinstance(recorder.upstream_packets()[0], Response)
        assert destination.closed_probe_cycles == 1

    def test_set_bottleneck_without_bottleneck_triggers_update(self, destination, recorder):
        deliver(destination, SetBottleneck("s1", False))
        packets = recorder.upstream_packets()
        assert len(packets) == 1
        assert isinstance(packets[0], Update)
        assert destination.no_bottleneck_updates == 1

    def test_set_bottleneck_with_bottleneck_is_absorbed(self, destination, recorder):
        deliver(destination, SetBottleneck("s1", True))
        assert recorder.upstream_packets() == []

    @pytest.mark.parametrize(
        "packet",
        [
            Join("s1", 10 * MBPS, ("r0", "r1")),
            Probe("s1", 10 * MBPS, ("r0", "r1")),
            SetBottleneck("s1", False),
        ],
        ids=lambda packet: packet.type_name,
    )
    def test_each_handler_drops_packets_after_leave(self, destination, recorder, packet):
        deliver(destination, Leave("s1"))
        deliver(destination, packet)
        assert recorder.upstream_packets() == []
        assert destination.closed_probe_cycles == destination.no_bottleneck_updates == 0

    def test_leave_silences_the_destination(self, destination, recorder):
        deliver(destination, Leave("s1"))
        deliver(destination, Probe("s1", 10 * MBPS, ("r0", "r1")))
        assert recorder.upstream_packets() == []
        assert destination.left
