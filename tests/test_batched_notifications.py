"""Batched ``API.Rate`` delivery semantics.

Pinned guarantees:

* **Per-instant coalescing**: however many times a session's rate is
  renegotiated within one simulation instant, its application receives exactly
  one ``deliver_rate`` callback carrying the final value, at the instant's
  timestamp, after every event of the instant.
* **Observation-only**: batching and the notification-log variants never
  change the simulation; ``tests/test_golden_invariance.py`` runs every
  golden scenario under each configuration.
* **Windowed batching** (opt-in) coalesces across instants at window
  boundaries, still delivering the final rate, while ``last_notified_rate``
  stays synchronously up to date.
"""

import pytest

from repro.core.api import SessionApplication
from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import NetworkScenario

def _single_link_protocol(**kwargs):
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = BNeckProtocol(network, **kwargs)
    source = network.attach_host("r0", 1000 * MBPS, microseconds(1))
    sink = network.attach_host("r1", 1000 * MBPS, microseconds(1))
    return protocol, source.node_id, sink.node_id


class TestPerInstantCoalescing(object):
    def _notify_twice_in_one_instant(self, **kwargs):
        protocol, source, sink = _single_link_protocol(**kwargs)
        session, application = protocol.open_session(source, sink, session_id="a")
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
        # The record side still saw both invocations.
        assert protocol.notification_log.recorded == baseline + 2
        assert protocol.last_notified_rate("a") == 70 * MBPS

    def test_unbatched_delivers_every_invocation(self):
        protocol, application, baseline = self._notify_twice_in_one_instant(
            batch_notifications=False
        )
        assert application.notification_count == baseline + 2
        assert application.current_rate == 70 * MBPS

    def test_batched_delivery_carries_the_instant_timestamp(self):
        protocol, application, _ = self._notify_twice_in_one_instant()
        last = application.notifications[-1]
        assert last.time == pytest.approx(protocol.simulator.now)

    def test_batched_delivery_order_is_first_update_order(self):
        protocol, source, sink = _single_link_protocol()
        protocol.open_session(source, sink, session_id="a")
        protocol.run_until_quiescent()
        order = []

        class Recording(SessionApplication):
            def on_rate(self, time, rate):
                order.append((self.session_id, rate))

        protocol._applications["a"] = Recording("a", 100 * MBPS)
        protocol._applications["b"] = Recording("b", 100 * MBPS)

        def burst():
            protocol.notify_rate("b", 1.0)
            protocol.notify_rate("a", 2.0)
            protocol.notify_rate("b", 3.0)

        protocol.simulator.schedule(1e-3, burst)
        protocol.run_until_quiescent()
        # b was updated first (and coalesced to its final value), then a.
        assert order == [("b", 3.0), ("a", 2.0)]

    def test_same_instant_join_then_change_yields_single_final_rate(self):
        protocol, source, sink = _single_link_protocol()
        session = protocol.create_session(source, sink, session_id="a")
        application = protocol.join(session, at=0.0)
        protocol.change("a", 40 * MBPS, at=0.0)
        protocol.run_until_quiescent()
        # The final notified rate reflects the change, and no instant ever
        # delivered more than one notification to the application.
        assert protocol.last_notified_rate("a") == pytest.approx(40 * MBPS)
        assert application.current_rate == pytest.approx(40 * MBPS)
        times = [n.time for n in application.notifications]
        assert len(times) == len(set(times))

    def test_churn_run_never_delivers_twice_per_instant(self):
        network = NetworkScenario("small", "lan", seed=11).build()
        protocol = BNeckProtocol(network)
        generator = WorkloadGenerator(network, seed=11)
        generator.populate(protocol, 30, join_window=(0.0, 1e-3))
        protocol.run_until_quiescent()
        for session in protocol.active_sessions():
            application = protocol.application(session.session_id)
            times = [n.time for n in application.notifications]
            assert len(times) == len(set(times))
        assert protocol.rate_callbacks == sum(
            protocol.application(s.session_id).notification_count
            for s in protocol.active_sessions()
        )


class TestWindowedBatching(object):
    def test_coalesces_across_instants_within_the_window(self):
        protocol, source, sink = _single_link_protocol(
            notification_batch_window=1e-3
        )
        session, application = protocol.open_session(source, sink, session_id="a")
        simulator = protocol.simulator
        protocol.run_until_quiescent()
        baseline = application.notification_count

        # Three renegotiations at distinct instants inside one 1 ms window.
        simulator.schedule_at(10e-3 + 1e-4, lambda: protocol.notify_rate("a", 1.0))
        simulator.schedule_at(10e-3 + 2e-4, lambda: protocol.notify_rate("a", 2.0))
        simulator.schedule_at(10e-3 + 3e-4, lambda: protocol.notify_rate("a", 3.0))
        protocol.run_until_quiescent()

        assert application.notification_count == baseline + 1
        assert application.current_rate == 3.0
        # Delivery happened at the window boundary.
        assert application.notifications[-1].time == pytest.approx(11e-3)
        # last_notified_rate tracked every invocation synchronously.
        assert protocol.last_notified_rate("a") == 3.0

    def test_updates_in_different_windows_deliver_separately(self):
        protocol, source, sink = _single_link_protocol(
            notification_batch_window=1e-3
        )
        session, application = protocol.open_session(source, sink, session_id="a")
        simulator = protocol.simulator
        protocol.run_until_quiescent()
        baseline = application.notification_count

        simulator.schedule_at(10e-3 + 1e-4, lambda: protocol.notify_rate("a", 1.0))
        simulator.schedule_at(12e-3 + 1e-4, lambda: protocol.notify_rate("a", 2.0))
        protocol.run_until_quiescent()
        assert application.notification_count == baseline + 2

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            _single_link_protocol(notification_batch_window=0.0)

    def test_windowed_flush_is_invisible_to_simulation_metrics(self):
        """The flush is bookkeeping, not an event (ROADMAP follow-up).

        A windowed run must report the same ``events_processed`` and the same
        quiescence time as the equivalent per-instant run: the flush never
        occupies an event-queue slot and never stretches a reported phase by
        up to one window (the historical quirk of the event-based flush).
        """

        def run(**kwargs):
            protocol, source, sink = _single_link_protocol(**kwargs)
            protocol.open_session(source, sink, session_id="a")
            quiescence = protocol.run_until_quiescent()
            return protocol, quiescence

        plain, plain_quiescence = run()
        windowed, windowed_quiescence = run(notification_batch_window=1e-3)
        assert windowed.simulator.events_processed == plain.simulator.events_processed
        assert windowed_quiescence == plain_quiescence
        assert windowed.simulator.pending_events == 0
        assert windowed.simulator.pending_bookkeeping == 0
        # The application still saw its rate, stamped at the window boundary.
        application = windowed.application("a")
        assert application.notification_count >= 1
        assert application.notifications[-1].time >= windowed_quiescence

    def test_windowed_flush_fires_even_past_the_last_event(self):
        # The last rate update of a run typically lands mid-window: the flush
        # boundary lies *after* the quiescence time, yet the application must
        # still receive the final rate when the run drains.
        protocol, source, sink = _single_link_protocol(notification_batch_window=1.0)
        session, application = protocol.open_session(source, sink, session_id="a")
        quiescence = protocol.run_until_quiescent()
        assert quiescence < 1.0
        assert application.current_rate == pytest.approx(100 * MBPS)
        assert application.notifications[-1].time == pytest.approx(1.0)

    def test_windowed_flush_does_not_trip_safety_caps(self):
        network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
        from repro.simulator.simulation import Simulator

        probe = BNeckProtocol(network)
        source = network.attach_host("r0", 1000 * MBPS, microseconds(1))
        sink = network.attach_host("r1", 1000 * MBPS, microseconds(1))
        probe.open_session(source.node_id, sink.node_id, session_id="a")
        probe.run_until_quiescent()
        budget = probe.simulator.events_processed

        capped_network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
        protocol = BNeckProtocol(
            capped_network,
            simulator=Simulator(max_events=budget),
            notification_batch_window=1e-3,
        )
        capped_source = capped_network.attach_host("r0", 1000 * MBPS, microseconds(1))
        capped_sink = capped_network.attach_host("r1", 1000 * MBPS, microseconds(1))
        protocol.open_session(capped_source.node_id, capped_sink.node_id, session_id="a")
        # With the historical event-based flush this run needed budget + 1
        # events; the bookkeeping timer keeps it exactly at the cap.
        protocol.run_until_quiescent()
        assert protocol.simulator.events_processed == budget
