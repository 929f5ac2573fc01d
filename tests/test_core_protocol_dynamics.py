"""Integration tests: session dynamics (arrivals, departures, rate changes).

The defining feature of B-Neck is that any change in the session configuration
reactivates it, the new max-min rates are found and notified, and the protocol
becomes quiescent again.  These tests drive exactly those transitions and check
rates, re-notifications, packet activity and stability after every step.
"""

import gc
import weakref

import pytest

from repro.core import check_stability, validate_against_oracle
from repro.core.actions import JoinAction, LeaveAction
from repro.core.protocol import BNeckProtocol
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.topology import dumbbell_topology, line_topology
from repro.network.units import MBPS
from repro.simulator.clock import milliseconds
from repro.workloads.stochastic import PoissonChurnWorkload
from tests.conftest import (
    change_session,
    leave_session,
    open_bneck_session,
    parking_lot_protocol,
)


class TestDepartures(object):
    def test_leaving_session_frees_bandwidth(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, staying = open_bneck_session(protocol, "r0", "r1", "staying")
        open_bneck_session(protocol, "r0", "r1", "leaving")
        protocol.run_until_quiescent()
        assert staying.current_rate == pytest.approx(50 * MBPS)

        leave_session(protocol, "leaving")
        protocol.run_until_quiescent()
        assert staying.current_rate == pytest.approx(100 * MBPS)
        assert len(protocol.registry) == 1
        assert validate_against_oracle(protocol).valid
        assert check_stability(protocol)

    def test_departed_session_receives_no_further_notifications(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, leaving = open_bneck_session(protocol, "r0", "r1", "leaving")
        open_bneck_session(protocol, "r0", "r1", "staying")
        protocol.run_until_quiescent()
        notifications_at_departure = leaving.notification_count
        leave_session(protocol, "leaving")
        protocol.run_until_quiescent()
        assert leaving.notification_count == notifications_at_departure

    def test_all_sessions_leaving_empties_the_network(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        for index in range(4):
            open_bneck_session(protocol, "r0", "r1", "s%d" % index)
        protocol.run_until_quiescent()
        for index in range(4):
            leave_session(protocol, "s%d" % index)
        protocol.run_until_quiescent()
        assert len(protocol.registry) == 0
        assert protocol.quiescent
        # Every remaining RouterLink state is empty and hence stable.
        assert check_stability(protocol)

    def test_staggered_departures_keep_rates_max_min(self):
        protocol = parking_lot_protocol(hop_count=3)
        _, long_app = open_bneck_session(protocol, "r0", "r3", "long")
        for hop in range(3):
            open_bneck_session(protocol, "r%d" % hop, "r%d" % (hop + 1), "short%d" % hop)
        protocol.run_until_quiescent()
        assert long_app.current_rate == pytest.approx(50 * MBPS)

        for hop in range(3):
            leave_session(protocol, "short%d" % hop)
            protocol.run_until_quiescent()
            assert validate_against_oracle(protocol).valid
        # All the shorts are gone: the long session takes a full link.
        assert long_app.current_rate == pytest.approx(100 * MBPS)


class TestArrivalsAfterQuiescence(object):
    def test_new_arrival_reduces_existing_rates(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, first = open_bneck_session(protocol, "r0", "r1", "first")
        protocol.run_until_quiescent()
        assert first.current_rate == pytest.approx(100 * MBPS)

        _, second = open_bneck_session(protocol, "r0", "r1", "second")
        protocol.run_until_quiescent()
        assert first.current_rate == pytest.approx(50 * MBPS)
        assert second.current_rate == pytest.approx(50 * MBPS)
        # The incumbent was re-notified with its reduced rate.
        assert first.notification_count >= 2

    def test_scheduled_future_joins_fire_in_order(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, early = open_bneck_session(protocol, "r0", "r1", "early", at=milliseconds(1))
        _, late = open_bneck_session(protocol, "r0", "r1", "late", at=milliseconds(5))
        quiescence = protocol.run_until_quiescent()
        assert quiescence > milliseconds(5)
        assert early.current_rate == pytest.approx(50 * MBPS)
        assert late.current_rate == pytest.approx(50 * MBPS)
        # The early session briefly enjoyed the full link.
        assert early.notifications[0].rate == pytest.approx(100 * MBPS)


class TestRateChanges(object):
    def test_lowering_the_demand_frees_bandwidth(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, changing = open_bneck_session(protocol, "r0", "r1", "changing")
        _, other = open_bneck_session(protocol, "r0", "r1", "other")
        protocol.run_until_quiescent()
        assert other.current_rate == pytest.approx(50 * MBPS)

        change_session(protocol, "changing", 10 * MBPS)
        protocol.run_until_quiescent()
        assert changing.current_rate == pytest.approx(10 * MBPS)
        assert other.current_rate == pytest.approx(90 * MBPS)
        assert validate_against_oracle(protocol).valid
        assert check_stability(protocol)

    def test_raising_the_demand_reclaims_bandwidth(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, changing = open_bneck_session(protocol, "r0", "r1", "changing", demand=10 * MBPS)
        _, other = open_bneck_session(protocol, "r0", "r1", "other")
        protocol.run_until_quiescent()
        assert changing.current_rate == pytest.approx(10 * MBPS)
        assert other.current_rate == pytest.approx(90 * MBPS)

        change_session(protocol, "changing", 500 * MBPS)
        protocol.run_until_quiescent()
        assert changing.current_rate == pytest.approx(50 * MBPS)
        assert other.current_rate == pytest.approx(50 * MBPS)
        assert validate_against_oracle(protocol).valid

    def test_change_to_current_rate_is_cheap(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        protocol.run_until_quiescent()
        packets_before = protocol.tracer.total
        # Changing the demand of "a" to exactly its current rate still triggers
        # a Probe cycle but converges immediately.
        change_session(protocol, "a", 50 * MBPS)
        protocol.run_until_quiescent()
        assert validate_against_oracle(protocol).valid
        session_a_path = protocol.session("a").path_length
        assert protocol.tracer.total - packets_before <= 4 * session_a_path


class TestMixedChurn(object):
    def test_simultaneous_join_leave_change(self):
        network = dumbbell_topology(side_count=4, bottleneck_capacity=100 * MBPS)
        protocol = BNeckProtocol(network)
        _, a = open_bneck_session(protocol, "west0", "east0", "a")
        _, b = open_bneck_session(protocol, "west1", "east1", "b")
        _, c = open_bneck_session(protocol, "west2", "east2", "c")
        protocol.run_until_quiescent()

        now = protocol.simulator.now
        leave_session(protocol, "a", at=now + milliseconds(0.1))
        change_session(protocol, "b", 15 * MBPS, at=now + milliseconds(0.2))
        _, d = open_bneck_session(protocol, "west3", "east3", "d", at=now + milliseconds(0.3))
        protocol.run_until_quiescent()

        assert b.current_rate == pytest.approx(15 * MBPS)
        assert c.current_rate == pytest.approx(42.5 * MBPS)
        assert d.current_rate == pytest.approx(42.5 * MBPS)
        assert validate_against_oracle(protocol).valid
        assert check_stability(protocol)

    def test_rapid_fire_changes_converge(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        _, app = open_bneck_session(protocol, "r0", "r1", "volatile")
        open_bneck_session(protocol, "r0", "r1", "steady")
        protocol.run_until_quiescent()
        now = protocol.simulator.now
        # Several demand changes scheduled before the previous ones settle.
        for index, demand in enumerate((10, 60, 5, 35)):
            change_session(protocol, "volatile", demand * MBPS, at=now + index * 1e-5)
        protocol.run_until_quiescent()
        assert app.current_rate == pytest.approx(35 * MBPS)
        assert validate_against_oracle(protocol).valid
        assert check_stability(protocol)

    def test_arrival_during_convergence_of_previous_arrival(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        applications = []
        # Joins spaced closer than a probe round-trip: every join interrupts
        # the convergence of the previous one.
        for index in range(8):
            _, application = open_bneck_session(
                protocol, "r0", "r1", "s%d" % index, at=index * 2e-6
            )
            applications.append(application)
        protocol.run_until_quiescent()
        for application in applications:
            assert application.current_rate == pytest.approx(100 * MBPS / 8.0)
        assert validate_against_oracle(protocol).valid
        assert check_stability(protocol)


def _kept_record(protocol, session_id):
    """What a departed session keeps: its session, application, packet
    count and last notified rate."""
    return (
        protocol.session(session_id),
        protocol.application(session_id),
        protocol.tracer.by_session[session_id],
        protocol.last_notified_rate(session_id),
    )


def _assert_released(protocol, session_id):
    session = protocol.session(session_id)
    with pytest.raises(KeyError):
        protocol.source(session_id)
    with pytest.raises(KeyError):
        protocol.destination(session_id)
    for host in (session.source, session.destination):
        with pytest.raises(KeyError):
            protocol.network.node(host)
    for state in protocol.router_link_states():
        assert state.link_id[1] != session.destination
        assert session_id not in protocol.router_link(state.link_id).hops
        snapshot = state.snapshot()
        assert session_id not in snapshot["mu"]
        assert session_id not in snapshot["rate"]
        assert session_id not in snapshot["restricted"]
        assert session_id not in snapshot["unrestricted"]


class TestReleaseOfDepartedSessions(object):
    """A departed session's tasks, link state and hosts are released by the
    next batch applied on an empty heap; its records stay."""

    def test_churn_releases_every_departed_session(self):
        with ExperimentRunner(ScenarioSpec(size="small", seed=1)) as runner:
            protocol = runner.protocol
            workload = PoissonChurnWorkload(
                arrival_rate=4000.0, mean_holding=4e-3, horizon=5e-3, segments=5)
            joined = []
            for label, actions in workload.rounds(runner):
                assert protocol.quiescent
                departed = [session_id for session_id in joined
                            if session_id not in protocol.registry]
                kept = {session_id: _kept_record(protocol, session_id)
                        for session_id in departed}
                runner.apply_actions(actions)
                for session_id in departed:
                    _assert_released(protocol, session_id)
                    assert _kept_record(protocol, session_id) == kept[session_id]
                joined += [action.session_id for action in actions if action.kind == "join"]
                assert runner.checkpoint(label).validated
            assert len(departed) > 20
            # Two hosts per session not released: the held ones and those
            # that left in the last round, which no batch has released yet.
            assert len(protocol.network.hosts()) == 2 * (len(joined) - len(departed))

    def test_a_refused_batch_releases_nothing(self):
        with ExperimentRunner(ScenarioSpec(size="small", seed=1)) as runner:
            protocol = runner.protocol
            runner.populate(5)
            runner.checkpoint()
            runner.apply_actions([LeaveAction("s1", protocol.simulator.now + 1e-4)])
            runner.checkpoint()
            session = protocol.session("s1")
            states = len(protocol.router_link_states())
            hosts = len(protocol.network.hosts())
            with pytest.raises(ValueError, match="has already left"):
                runner.apply_actions([LeaveAction("s1", protocol.simulator.now + 1e-4)])
            assert protocol.source("s1").left
            assert protocol.destination("s1").left
            assert protocol.network.node(session.destination).is_host
            assert len(protocol.router_link_states()) == states
            assert len(protocol.network.hosts()) == hosts
            # The next accepted batch releases it.
            runner.apply_actions([LeaveAction("s2", protocol.simulator.now + 1e-4)])
            _assert_released(protocol, "s1")
            assert len(protocol.network.hosts()) == hosts - 2
            assert runner.checkpoint().validated

    def test_a_late_response_leaves_no_trace_after_the_release(self):
        """A Leave sent right behind the Join passes each link before the
        Join's Response returns upstream, which records the session there
        again; the release clears those entries."""
        protocol = BNeckProtocol(line_topology(4, capacity=100 * MBPS, delay=1e-6))
        protocol.apply_actions([JoinAction("stay", "r0", "r3", 50 * MBPS, 0.0, 1000 * MBPS, 1e-6)])
        protocol.run_until_quiescent()
        at = protocol.simulator.now + 1e-3
        protocol.apply_actions([JoinAction("quick", "r0", "r3", 10 * MBPS, at, 1000 * MBPS, 1e-6),
                                LeaveAction("quick", at + 2e-6)])
        protocol.run_until_quiescent()
        ghosts = [state.link_id for state in protocol.router_link_states()
                  if "quick" in state.snapshot()["mu"] and not state.knows("quick")]
        assert ("r0", "r1") in ghosts
        protocol.apply_actions([])
        _assert_released(protocol, "quick")
        assert validate_against_oracle(protocol).valid

    def test_a_released_session_is_freed_by_reference_counting(self):
        """Once released, nothing reachable refers to a session's tasks: no
        RouterLink keeps its hop row, and with the cyclic collector off its
        SourceNode and DestinationNode tasks die as the release drops them.
        A hop row that referred back to its own stage would form a cycle
        that only the collector frees."""
        protocol = BNeckProtocol(line_topology(4, capacity=100 * MBPS, delay=1e-6))
        protocol.apply_actions([JoinAction("stay", "r0", "r3", 50 * MBPS, 0.0, 1000 * MBPS, 1e-6),
                                JoinAction("gone", "r0", "r3", 10 * MBPS, 0.0, 1000 * MBPS, 1e-6)])
        protocol.run_until_quiescent()
        gc.disable()
        try:
            source = weakref.ref(protocol.source("gone"))
            destination = weakref.ref(protocol.destination("gone"))
            protocol.apply_actions([LeaveAction("gone", protocol.simulator.now + 1e-3)])
            protocol.run_until_quiescent()
            assert source() is not None
            protocol.apply_actions([])
            _assert_released(protocol, "gone")
            assert source() is None
            assert destination() is None
        finally:
            gc.enable()
        assert validate_against_oracle(protocol).valid

    def test_no_release_while_events_are_pending(self, single_link_network):
        protocol = BNeckProtocol(single_link_network)
        open_bneck_session(protocol, "r0", "r1", "leaving")
        open_bneck_session(protocol, "r0", "r1", "staying")
        protocol.run_until_quiescent()
        leave_session(protocol, "leaving")
        # The Leave is still travelling: nothing may be released yet.
        protocol.apply_actions([LeaveAction("staying", protocol.simulator.now + 1e-3)])
        protocol.source("leaving")
        protocol.run_until_quiescent()
        protocol.apply_actions([JoinAction("next", "r0", "r1", 10 * MBPS,
                                           protocol.simulator.now + 1e-3, 1000 * MBPS, 1e-6)])
        _assert_released(protocol, "leaving")
        _assert_released(protocol, "staying")
        protocol.run_until_quiescent()
        assert protocol.current_allocation().as_dict() == {"next": pytest.approx(10 * MBPS)}
        assert validate_against_oracle(protocol).valid
