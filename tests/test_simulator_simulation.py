"""Unit tests for the simulation loop."""

import pytest

from repro.simulator.errors import SimulationLimitExceeded
from repro.simulator.simulation import Simulator


def test_clock_starts_at_zero(simulator):
    assert simulator.now == 0.0
    assert simulator.events_processed == 0


def test_schedule_and_run_until_quiescent(simulator):
    fired = []
    simulator.schedule(0.5, lambda: fired.append(simulator.now))
    simulator.schedule(0.2, lambda: fired.append(simulator.now))
    quiescence_time = simulator.run_until_quiescent()
    assert fired == [0.2, 0.5]
    assert quiescence_time == 0.5
    assert simulator.pending_events == 0


def test_events_can_schedule_more_events(simulator):
    fired = []

    def first():
        fired.append("first")
        simulator.schedule(0.1, lambda: fired.append("second"))

    simulator.schedule(1.0, first)
    simulator.run_until_quiescent()
    assert fired == ["first", "second"]
    assert simulator.now == pytest.approx(1.1)


def test_run_with_horizon_stops_before_later_events(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append("early"))
    simulator.schedule(5.0, lambda: fired.append("late"))
    simulator.run(until=2.0)
    assert fired == ["early"]
    assert simulator.now == 2.0
    assert simulator.pending_events == 1
    simulator.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_advances_clock_to_horizon_when_queue_drains(simulator):
    simulator.schedule(0.5, lambda: None)
    simulator.run(until=3.0)
    assert simulator.now == 3.0


def test_schedule_negative_delay_rejected(simulator):
    with pytest.raises(ValueError):
        simulator.schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.run_until_quiescent()
    with pytest.raises(ValueError):
        simulator.schedule_at(0.5, lambda: None)


def test_schedule_at_absolute_time(simulator):
    fired = []
    simulator.schedule_at(2.5, lambda: fired.append(simulator.now))
    simulator.run_until_quiescent()
    assert fired == [2.5]


def test_cancelled_events_do_not_fire(simulator):
    fired = []
    event = simulator.schedule(0.5, lambda: fired.append("cancelled"))
    simulator.schedule(1.0, lambda: fired.append("kept"))
    simulator.cancel(event)
    simulator.run_until_quiescent()
    assert fired == ["kept"]


def test_event_limit_raises(simulator):
    simulator.max_events = 5

    def reschedule():
        simulator.schedule(0.1, reschedule)

    simulator.schedule(0.1, reschedule)
    with pytest.raises(SimulationLimitExceeded):
        simulator.run_until_quiescent()
    assert simulator.events_processed == 5


def test_time_limit_raises():
    simulator = Simulator(max_time=1.0)
    simulator.schedule(2.0, lambda: None)
    with pytest.raises(SimulationLimitExceeded):
        simulator.run_until_quiescent()


def test_step_returns_false_when_empty(simulator):
    assert simulator.step() is False
    simulator.schedule(0.1, lambda: None)
    assert simulator.step() is True
    assert simulator.step() is False


def test_events_processed_counts(simulator):
    for index in range(4):
        simulator.schedule(0.1 * (index + 1), lambda: None)
    simulator.run_until_quiescent()
    assert simulator.events_processed == 4


# ------------------------------------------------------------ bare entries


def test_bare_entries_fire_in_order_with_events(simulator):
    fired = []
    simulator.schedule(0.2, lambda: fired.append("event"))
    simulator.queue.push_callback(0.1, lambda: fired.append("bare-early"))
    simulator.queue.push_callback(0.2, lambda: fired.append("bare-tied"))
    simulator.run_until_quiescent()
    # The tie at t=0.2 breaks by insertion order: the Event came first.
    assert fired == ["bare-early", "event", "bare-tied"]
    assert simulator.events_processed == 3


def test_bare_entries_count_as_pending(simulator):
    simulator.queue.push_callback(0.5, lambda: None)
    assert simulator.pending_events == 1
    simulator.run_until_quiescent()
    assert simulator.pending_events == 0


def test_drain_skips_a_cancelled_head_before_bare_entries(simulator):
    fired = []
    cancelled = simulator.schedule(0.1, lambda: fired.append("cancelled"))
    simulator.queue.push_callback(0.2, lambda: fired.append("bare"))
    simulator.schedule(0.3, lambda: fired.append("event"))
    simulator.cancel(cancelled)
    assert simulator.run_until_quiescent() == 0.3
    assert fired == ["bare", "event"]
    assert simulator.events_processed == 2
    assert simulator.pending_events == 0


def test_drain_stops_on_a_queue_of_cancelled_events(simulator):
    simulator.cancel(simulator.schedule(0.1, lambda: None))
    assert simulator.run() == 0.0
    assert simulator.events_processed == 0
    assert simulator.pending_events == 0


# ------------------------------------------------------ end-of-instant hooks


def test_instant_callback_runs_after_all_same_instant_events(simulator):
    fired = []

    def first():
        fired.append("first")
        simulator.call_at_instant_end(lambda: fired.append("deferred"))

    simulator.schedule(1.0, first)
    simulator.schedule(1.0, lambda: fired.append("second"))
    simulator.schedule(2.0, lambda: fired.append("next-instant"))
    simulator.run_until_quiescent()
    assert fired == ["first", "second", "deferred", "next-instant"]


def test_instant_callbacks_preserve_registration_order(simulator):
    fired = []

    def register_two():
        simulator.call_at_instant_end(lambda: fired.append("a"))
        simulator.call_at_instant_end(lambda: fired.append("b"))

    simulator.schedule(1.0, register_two)
    simulator.run_until_quiescent()
    assert fired == ["a", "b"]


def test_instant_callback_sees_the_instant_clock(simulator):
    seen = []
    simulator.schedule(1.5, lambda: simulator.call_at_instant_end(
        lambda: seen.append(simulator.now)))
    simulator.schedule(3.0, lambda: None)
    simulator.run_until_quiescent()
    assert seen == [1.5]


def test_instant_callback_may_schedule_same_instant_events(simulator):
    fired = []

    def deferred():
        fired.append("deferred")
        simulator.schedule(0.0, lambda: fired.append("late-arrival"))

    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(deferred))
    simulator.run_until_quiescent()
    # The event scheduled *by* the flush still belongs to the instant and runs
    # before the clock may advance.
    assert fired == ["deferred", "late-arrival"]
    assert simulator.now == 1.0


def test_instant_callback_may_redefer(simulator):
    fired = []

    def again():
        fired.append("again")

    def deferred():
        fired.append("deferred")
        simulator.call_at_instant_end(again)

    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(deferred))
    simulator.run_until_quiescent()
    assert fired == ["deferred", "again"]


def test_instant_callbacks_flush_before_horizon_return(simulator):
    fired = []
    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(
        lambda: fired.append("flushed")))
    simulator.schedule(5.0, lambda: fired.append("beyond"))
    simulator.run(until=2.0)
    assert fired == ["flushed"]
    assert simulator.pending_instant_callbacks == 0


def test_instant_callbacks_flush_in_general_loop(simulator):
    # max_events forces the fully-featured run loop instead of the fast drain.
    simulator.max_events = 100
    fired = []

    def first():
        fired.append("first")
        simulator.call_at_instant_end(lambda: fired.append("deferred"))

    simulator.schedule(1.0, first)
    simulator.schedule(1.0, lambda: fired.append("second"))
    simulator.run_until_quiescent()
    assert fired == ["first", "second", "deferred"]


def test_step_completes_the_instant_before_advancing(simulator):
    fired = []
    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(
        lambda: fired.append("deferred")))
    simulator.schedule(2.0, lambda: fired.append("later"))
    assert simulator.step()           # the t=1.0 event
    assert fired == []
    assert simulator.pending_instant_callbacks == 1
    assert simulator.step()           # the flush (not an event)
    assert fired == ["deferred"]
    assert simulator.events_processed == 1
    assert simulator.step()           # the t=2.0 event
    assert fired == ["deferred", "later"]
    assert not simulator.step()


def test_instant_flush_is_not_an_event(simulator):
    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(lambda: None))
    simulator.run_until_quiescent()
    assert simulator.events_processed == 1
    assert simulator.now == 1.0


def test_horizon_run_leaves_later_instants_untouched(simulator):
    fired = []
    simulator.schedule(9.0, lambda: simulator.call_at_instant_end(
        lambda: fired.append("deferred")))
    simulator.run(until=5.0)
    assert fired == []
    assert simulator.pending_events == 1
    assert simulator.pending_instant_callbacks == 0
    simulator.run_until_quiescent()
    assert fired == ["deferred"]


def test_instant_flush_does_not_count_against_max_events(simulator):
    simulator.max_events = 2
    fired = []

    def redefer(count):
        fired.append(count)
        if count < 5:
            simulator.call_at_instant_end(lambda: redefer(count + 1))

    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(lambda: redefer(1)))
    simulator.schedule(2.0, lambda: None)
    assert simulator.run_until_quiescent() == 2.0
    assert fired == [1, 2, 3, 4, 5]
    assert simulator.events_processed == 2


def test_instant_flush_at_max_time_does_not_raise(simulator):
    simulator.max_time = 1.0
    fired = []
    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(
        lambda: fired.append(simulator.now)))
    assert simulator.run() == 1.0
    assert fired == [1.0]


def test_general_loop_quiescence_ignores_the_flush(simulator):
    # max_events forces the fully-featured loop; the flush of the last
    # instant runs but the reported quiescence time is that instant's.
    simulator.max_events = 100
    fired = []
    simulator.schedule(0.5, lambda: None)
    simulator.schedule(1.0, lambda: simulator.call_at_instant_end(
        lambda: fired.append(simulator.now)))
    assert simulator.run_until_quiescent() == 1.0
    assert fired == [1.0]
    assert simulator.now == 1.0
    assert simulator.events_processed == 2
