"""Per-instant ``API.Rate`` delivery semantics.

Pinned guarantees:

* **Per-instant coalescing**: however many times a session's rate is
  renegotiated within one simulation instant, its application receives exactly
  one ``deliver_rate`` callback carrying the final value, at the instant's
  timestamp, after every event of the instant.
* ``last_notified_rate`` stays synchronously up to date with every
  ``notify_rate`` call, ahead of the coalesced delivery.
* Delivery is the protocol's own work, not the simulator's: the protocol
  holds an instant's batch until the first notification of a later instant
  or the end of a protocol run, whichever comes first.  It is not an event,
  never moves the quiescence time, never counts against a bound on the
  events of a run, and a run, with or without a horizon, returns only after
  the delivery of its last instant.
"""

import pytest

from repro.core.actions import ChangeAction
from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import build_network
from tests.conftest import join_action, open_bneck_session, run_bounded


def _single_link_protocol():
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    return BNeckProtocol(network)


class TestPerInstantCoalescing(object):
    def _notify_twice_in_one_instant(self):
        protocol = _single_link_protocol()
        _, application = open_bneck_session(protocol, "r0", "r1", "a")
        protocol.run_until_quiescent()
        baseline = application.notification_count
        simulator = protocol.simulator

        def burst():
            # Two renegotiations of the same session within one instant, as a
            # same-instant join+change collapse produces.
            protocol.notify_rate("a", 10 * MBPS)
            protocol.notify_rate("a", 70 * MBPS)

        simulator.schedule(1e-3, burst)
        protocol.run_until_quiescent()
        return protocol, application, baseline

    def test_batched_delivers_one_final_rate_per_instant(self):
        protocol, application, baseline = self._notify_twice_in_one_instant()
        assert application.notification_count == baseline + 1
        assert application.current_rate == 70 * MBPS
        assert protocol.last_notified_rate("a") == 70 * MBPS

    def test_batched_delivery_carries_the_instant_timestamp(self):
        protocol, application, _ = self._notify_twice_in_one_instant()
        last = application.notifications[-1]
        assert last.time == pytest.approx(protocol.simulator.now)

    def test_batched_delivery_order_is_first_update_order(self, monkeypatch):
        protocol = _single_link_protocol()
        open_bneck_session(protocol, "r0", "r1", "a")
        open_bneck_session(protocol, "r0", "r1", "b")
        protocol.run_until_quiescent()
        order = []
        for session_id in ("a", "b"):
            application = protocol.application(session_id)

            def recording(time, rate, session_id=session_id, deliver=application.deliver_rate):
                order.append((session_id, rate))
                return deliver(time, rate)

            monkeypatch.setattr(application, "deliver_rate", recording)

        def burst():
            protocol.notify_rate("b", 1.0)
            protocol.notify_rate("a", 2.0)
            protocol.notify_rate("b", 3.0)

        protocol.simulator.schedule(1e-3, burst)
        protocol.run_until_quiescent()
        # b was updated first (and coalesced to its final value), then a.
        assert order == [("b", 3.0), ("a", 2.0)]

    def test_same_instant_join_then_change_yields_single_final_rate(self):
        protocol = _single_link_protocol()
        protocol.apply_actions([
            join_action("a"),
            ChangeAction("a", 40 * MBPS, 0.0),
        ])
        application = protocol.application("a")
        protocol.run_until_quiescent()
        # The final notified rate reflects the change, and no instant ever
        # delivered more than one notification to the application.
        assert protocol.last_notified_rate("a") == pytest.approx(40 * MBPS)
        assert application.current_rate == pytest.approx(40 * MBPS)
        times = [n.time for n in application.notifications]
        assert len(times) == len(set(times))

    def test_churn_run_never_delivers_twice_per_instant(self):
        network = build_network("small", "lan", 11)
        protocol = BNeckProtocol(network)
        generator = WorkloadGenerator(network, seed=11)
        protocol.apply_actions(generator.generate(30, join_window=(0.0, 1e-3)))
        protocol.run_until_quiescent()
        for session in protocol.active_sessions():
            application = protocol.application(session.session_id)
            times = [n.time for n in application.notifications]
            assert len(times) == len(set(times))
        assert protocol.rate_callbacks == sum(
            protocol.application(s.session_id).notification_count
            for s in protocol.active_sessions()
        )


class TestDeliveryIsOutOfBand(object):
    """The coalesced delivery is the protocol's, off the simulator's heap."""

    def _quiescent_session(self):
        protocol = _single_link_protocol()
        _, application = open_bneck_session(protocol, "r0", "r1", "a")
        protocol.run_until_quiescent()
        return protocol, application

    def test_updates_in_different_instants_deliver_separately(self):
        protocol, application = self._quiescent_session()
        baseline = application.notification_count
        protocol.simulator.schedule(1e-3, lambda: protocol.notify_rate("a", 10 * MBPS))
        protocol.simulator.schedule(2e-3, lambda: protocol.notify_rate("a", 20 * MBPS))
        protocol.run_until_quiescent()
        delivered = application.notifications[baseline:]
        assert [n.rate for n in delivered] == [10 * MBPS, 20 * MBPS]
        assert delivered[1].time - delivered[0].time == pytest.approx(1e-3)

    def test_delivery_is_invisible_to_simulation_metrics(self):
        protocol, application = self._quiescent_session()
        events = protocol.simulator.events_processed
        protocol.simulator.schedule(1e-3, lambda: protocol.notify_rate("a", 10 * MBPS))
        quiescence = protocol.run_until_quiescent()
        # One event ran; its delivery added a callback but no event, and the
        # reported quiescence is the event's own time.
        assert protocol.simulator.events_processed == events + 1
        assert quiescence == protocol.simulator.now
        assert application.notifications[-1].time == quiescence

    def test_last_instant_delivers_before_the_run_returns(self):
        protocol, application = self._quiescent_session()
        assert protocol.simulator.pending_events == 0
        assert application.current_rate == protocol.last_notified_rate("a")
        assert protocol.rate_callbacks == application.notification_count

    def test_a_horizon_run_delivers_its_last_instant_before_it_returns(self):
        protocol, application = self._quiescent_session()
        baseline = application.notification_count
        simulator = protocol.simulator
        start = simulator.now
        simulator.schedule(1e-3, lambda: protocol.notify_rate("a", 10 * MBPS))
        simulator.schedule(5e-3, lambda: protocol.notify_rate("a", 20 * MBPS))
        assert protocol.run(until=start + 2e-3) == start + 2e-3
        delivered = application.notifications[baseline:]
        assert [(n.time, n.rate) for n in delivered] == [(start + 1e-3, 10 * MBPS)]
        assert protocol.rate_callbacks == application.notification_count
        assert simulator.pending_events == 1

    def test_a_step_holds_the_instant_until_a_later_instant_notifies(self):
        protocol, application = self._quiescent_session()
        baseline = application.notification_count
        simulator = protocol.simulator
        first = simulator.now + 1e-3
        simulator.schedule_at(first, lambda: protocol.notify_rate("a", 10 * MBPS))
        simulator.schedule_at(first + 1e-3, lambda: protocol.notify_rate("a", 20 * MBPS))
        assert simulator.step()
        # Held: the protocol reports the rate, the application has not had it.
        assert protocol.last_notified_rate("a") == 10 * MBPS
        assert protocol.notified_allocation().as_dict() == {"a": 10 * MBPS}
        assert application.notification_count == baseline
        assert simulator.step()
        # The next instant's first notify delivered it, at its own instant.
        delivered = application.notifications[baseline:]
        assert [(n.time, n.rate) for n in delivered] == [(first, 10 * MBPS)]
        assert protocol.last_notified_rate("a") == 20 * MBPS
        protocol.run_until_quiescent()
        delivered = application.notifications[baseline:]
        assert [(n.time, n.rate) for n in delivered] == [
            (first, 10 * MBPS), (first + 1e-3, 20 * MBPS)]
        assert protocol.rate_callbacks == application.notification_count

    def test_delivery_does_not_count_against_an_event_bound(self):
        protocol, application = self._quiescent_session()
        # A fresh run bounded at exactly its event count: the deliveries of
        # its instants must not count against the bound.
        events = protocol.simulator.events_processed
        again = _single_link_protocol()
        _, replayed = open_bneck_session(again, "r0", "r1", "a")
        run_bounded(again, events)
        assert again.simulator.events_processed == events
        assert [(n.time, n.rate) for n in replayed.notifications] == [
            (n.time, n.rate) for n in application.notifications
        ]
