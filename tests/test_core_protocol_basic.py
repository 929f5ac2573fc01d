"""Integration tests: the full distributed B-Neck protocol on known topologies.

These are end-to-end runs of the three tasks over the discrete-event simulator,
checked against hand-computed max-min allocations and against the centralized
oracle, exactly like the paper's validation methodology.
"""

import pytest

from repro.core import check_stability, validate_against_oracle
from repro.core.protocol import BNeckProtocol
from repro.network.topology import dumbbell_topology, star_topology
from repro.network.units import MBPS
from tests.conftest import (
    leave_session,
    open_bneck_session,
    parking_lot_protocol,
    parking_lot_workload,
)


class TestSingleSessions(object):
    def test_lonely_session_gets_the_backbone_capacity(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, application = open_bneck_session(protocol, "r0", "r1", "solo")
        protocol.run_until_quiescent()
        assert application.current_rate == pytest.approx(100 * MBPS)
        assert protocol.quiescent

    def test_demand_limited_session(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, application = open_bneck_session(protocol, "r0", "r1", "capped", demand=7 * MBPS)
        protocol.run_until_quiescent()
        assert application.current_rate == pytest.approx(7 * MBPS)

    def test_every_session_gets_exactly_one_rate_notification_in_steady_state(
        self, single_link_network
    ):
        protocol = BNeckProtocol(single_link_network)
        _, application = open_bneck_session(protocol, "r0", "r1", "solo")
        protocol.run_until_quiescent()
        assert application.notification_count == 1

    def test_rate_notifications_are_recorded_with_time(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, application = open_bneck_session(protocol, "r0", "r1", "solo")
        protocol.run_until_quiescent()
        assert len(application.notifications) == 1
        notification = application.notifications[0]
        assert notification.session_id == "solo"
        assert notification.time > 0.0
        assert protocol.last_notified_rate("solo") == pytest.approx(100 * MBPS)


class TestSharedBottleneck(object):
    def test_two_sessions_split_evenly(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, first = open_bneck_session(protocol, "r0", "r1", "a")
        _, second = open_bneck_session(protocol, "r0", "r1", "b")
        protocol.run_until_quiescent()
        assert first.current_rate == pytest.approx(50 * MBPS)
        assert second.current_rate == pytest.approx(50 * MBPS)

    def test_demand_limited_session_releases_surplus(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, greedy = open_bneck_session(protocol, "r0", "r1", "greedy")
        _, capped = open_bneck_session(protocol, "r0", "r1", "capped", demand=20 * MBPS)
        protocol.run_until_quiescent()
        assert capped.current_rate == pytest.approx(20 * MBPS)
        assert greedy.current_rate == pytest.approx(80 * MBPS)

    def test_many_sessions_split_evenly(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        applications = [
            open_bneck_session(protocol, "r0", "r1", "s%d" % index)[1] for index in range(10)
        ]
        protocol.run_until_quiescent()
        for application in applications:
            assert application.current_rate == pytest.approx(10 * MBPS)
        assert validate_against_oracle(protocol).valid


class TestCanonicalTopologies(object):
    def test_parking_lot_allocation(self):
        protocol = parking_lot_protocol(hop_count=3)
        applications = parking_lot_workload(protocol, hop_count=3)
        protocol.run_until_quiescent()
        for application in applications.values():
            assert application.current_rate == pytest.approx(50 * MBPS)
        assert validate_against_oracle(protocol).valid
        assert check_stability(protocol)

    def test_unbalanced_parking_lot(self):
        protocol = parking_lot_protocol(hop_count=2)
        _, long_app = open_bneck_session(protocol, "r0", "r2", "long")
        _, short_a = open_bneck_session(protocol, "r0", "r1", "shortA")
        _, short_b = open_bneck_session(protocol, "r0", "r1", "shortB")
        protocol.run_until_quiescent()
        third = 100 * MBPS / 3.0
        assert long_app.current_rate == pytest.approx(third)
        assert short_a.current_rate == pytest.approx(third)
        assert short_b.current_rate == pytest.approx(third)
        assert validate_against_oracle(protocol).valid

    def test_dumbbell_with_mixed_demands(self):
        network = dumbbell_topology(side_count=3, bottleneck_capacity=100 * MBPS)
        protocol = BNeckProtocol(network)
        _, bulk1 = open_bneck_session(protocol, "west0", "east0", "bulk1")
        _, bulk2 = open_bneck_session(protocol, "west1", "east1", "bulk2")
        _, capped = open_bneck_session(protocol, "west2", "east2", "capped", demand=10 * MBPS)
        protocol.run_until_quiescent()
        assert capped.current_rate == pytest.approx(10 * MBPS)
        assert bulk1.current_rate == pytest.approx(45 * MBPS)
        assert bulk2.current_rate == pytest.approx(45 * MBPS)
        assert check_stability(protocol)

    def test_star_cross_traffic(self):
        network = star_topology(4, capacity=100 * MBPS)
        protocol = BNeckProtocol(network)
        _, a = open_bneck_session(protocol, "leaf0", "leaf1", "a")
        _, b = open_bneck_session(protocol, "leaf0", "leaf2", "b")
        _, c = open_bneck_session(protocol, "leaf3", "leaf1", "c")
        protocol.run_until_quiescent()
        assert a.current_rate == pytest.approx(50 * MBPS)
        assert b.current_rate == pytest.approx(50 * MBPS)
        assert c.current_rate == pytest.approx(50 * MBPS)
        assert validate_against_oracle(protocol).valid


class TestPacketAccounting(object):
    def test_single_session_join_cycle_costs_twice_the_path_length(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        session, _ = open_bneck_session(protocol, "r0", "r1", "solo")
        protocol.run_until_quiescent()
        # One Join cycle (down + up) plus one SetBottleneck pass (down only).
        join_cost = 2 * session.path_length
        assert protocol.tracer.by_type["Join"] == session.path_length
        assert protocol.tracer.by_type["Response"] == session.path_length
        assert protocol.tracer.by_type["SetBottleneck"] == session.path_length
        assert protocol.tracer.total == join_cost + session.path_length

    def test_all_packets_belong_to_known_types(self, single_link_network):
        from repro.core.packets import PACKET_TYPES

        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        protocol.run_until_quiescent()
        assert set(protocol.tracer.by_type) <= set(PACKET_TYPES)

    def test_quiescence_means_no_pending_events_and_no_in_flight_packets(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        protocol.run_until_quiescent()
        assert protocol.quiescent
        assert protocol.in_flight_packets == 0
        assert protocol.simulator.pending_events == 0

    def test_determinism_same_workload_same_run(self, single_link_network):
        def run():
            from repro.network.topology import single_link_topology

            network = single_link_topology(capacity=100 * MBPS)
            protocol = BNeckProtocol(network)
            for index in range(5):
                open_bneck_session(protocol, "r0", "r1", "s%d" % index)
            quiescence = protocol.run_until_quiescent()
            return quiescence, protocol.tracer.total, protocol.current_allocation().as_dict()

        assert run() == run()


class TestProtocolApiMisuse(object):
    def test_unknown_session_lookup_fails(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        with pytest.raises(KeyError):
            protocol.source("ghost")
        with pytest.raises(ValueError, match="names session 'ghost', which has not joined"):
            leave_session(protocol, "ghost")
