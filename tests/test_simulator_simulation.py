"""Unit tests for the simulation loop."""

import heapq
import math
import re

import pytest

from repro.simulator.simulation import Simulator, _call


def test_clock_starts_at_zero(simulator):
    assert simulator.now == 0.0
    assert simulator.events_processed == 0


def test_schedule_and_run_until_quiescent(simulator):
    fired = []
    simulator.schedule(0.5, lambda: fired.append(simulator.now))
    simulator.schedule(0.2, lambda: fired.append(simulator.now))
    quiescence_time = simulator.run()
    assert fired == [0.2, 0.5]
    assert quiescence_time == 0.5
    assert simulator.pending_events == 0


def test_events_can_schedule_more_events(simulator):
    fired = []

    def first():
        fired.append("first")
        simulator.schedule(0.1, lambda: fired.append("second"))

    simulator.schedule(1.0, first)
    simulator.run()
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
    simulator.run()
    with pytest.raises(ValueError):
        simulator.schedule_at(0.5, lambda: None)


def test_schedule_at_absolute_time(simulator):
    fired = []
    simulator.schedule_at(2.5, lambda: fired.append(simulator.now))
    simulator.run()
    assert fired == [2.5]


def test_step_returns_false_when_empty(simulator):
    assert simulator.step() is False
    simulator.schedule(0.1, lambda: None)
    assert simulator.step() is True
    assert simulator.step() is False


def test_events_processed_counts(simulator):
    for index in range(4):
        simulator.schedule(0.1 * (index + 1), lambda: None)
    simulator.run()
    assert simulator.events_processed == 4


# ------------------------------------------------------------- event order


def test_events_fire_in_time_order(simulator):
    fired = []
    simulator.schedule_at(2.0, lambda: fired.append(simulator.now))
    simulator.schedule_at(1.0, lambda: fired.append(simulator.now))
    simulator.run()
    assert fired == [1.0, 2.0]


def test_ties_break_by_insertion_order(simulator):
    fired = []
    for name in ("first", "second", "third"):
        simulator.schedule_at(1.0, lambda name=name: fired.append(name))
    simulator.run()
    assert fired == ["first", "second", "third"]


def test_many_events_keep_global_order(simulator):
    fired = []
    times = [5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 2.5]
    for time in times:
        simulator.schedule_at(time, lambda: fired.append(simulator.now))
    assert simulator.pending_events == len(times)
    simulator.run()
    assert fired == sorted(times)


def test_every_heap_entry_is_a_plain_five_tuple(simulator):
    def callback():
        pass

    simulator.schedule(0.5, callback, tag="relative")
    simulator.schedule_at(0.25, callback, tag="absolute")
    assert sorted(simulator.heap) == [
        (0.25, 1, _call, callback, "absolute"),
        (0.5, 0, _call, callback, "relative"),
    ]


def test_a_scheduled_entry_runs_its_callback_through_the_trampoline(simulator):
    fired = []
    simulator.schedule(0.5, lambda: fired.append(simulator.now), tag="tagged")
    time, _, handler, callback, tag = simulator.heap[0]
    assert (time, handler, tag) == (0.5, _call, "tagged")
    handler(callback, tag)
    assert fired == [0.0]


# ------------------------------------------------------------ bare entries
# A bare entry ``(time, sequence, handler, target, packet)`` is pushed
# straight onto the public heap, as the protocol pushes every packet
# delivery, instead of going through schedule(); it runs as
# ``handler(target, packet)``.


def test_bare_entries_fire_in_order_with_events(simulator):
    fired = []
    heap, sequence = simulator.heap, simulator.sequence
    simulator.schedule(0.2, lambda: fired.append("event"))
    heapq.heappush(heap, (0.1, next(sequence), list.append, fired, "bare-early"))
    heapq.heappush(heap, (0.2, next(sequence), list.append, fired, "bare-tied"))
    simulator.run()
    # The tie at t=0.2 breaks by sequence number: the event came first.
    assert fired == ["bare-early", "event", "bare-tied"]
    assert simulator.events_processed == 3


def test_bare_entries_count_as_pending(simulator):
    heapq.heappush(simulator.heap, (0.5, next(simulator.sequence), list.append, [], "bare"))
    assert simulator.pending_events == 1
    simulator.run()
    assert simulator.pending_events == 0


def test_bare_entries_interleave_with_events_by_sequence_number(simulator):
    fired = []
    simulator.schedule_at(1.0, lambda: fired.append("event"))
    heapq.heappush(simulator.heap, (1.0, next(simulator.sequence), list.append, fired, "bare"))
    simulator.schedule(1.0, lambda: fired.append("event-2"))
    assert simulator.pending_events == 3
    assert simulator.step()
    assert simulator.pending_events == 2
    simulator.run()
    assert fired == ["event", "bare", "event-2"]
    assert simulator.pending_events == 0


# ------------------------------------------------- a callback raising mid-run


class Boom(Exception):
    pass


def _raise_boom(target, packet):
    raise Boom(packet)


def _schedule_a_raise_between(simulator, fired):
    """Two events, a bare entry that raises, then two more events (one of
    them at the raising instant)."""
    simulator.schedule_at(1.0, lambda: fired.append(1.0))
    simulator.schedule_at(2.0, lambda: fired.append(2.0))
    heapq.heappush(simulator.heap, (3.0, next(simulator.sequence), _raise_boom, None, "boom"))
    simulator.schedule_at(3.0, lambda: fired.append(3.0))
    simulator.schedule_at(4.0, lambda: fired.append(4.0))


@pytest.mark.parametrize("until", [None, 100.0], ids=["drain", "horizon"])
def test_events_processed_stays_exact_when_a_callback_raises(until):
    simulator = Simulator()
    fired = []
    _schedule_a_raise_between(simulator, fired)
    with pytest.raises(Boom, match="boom"):
        simulator.run(until=until)
    # The two events before it and the raising one ran.
    assert fired == [1.0, 2.0]
    assert simulator.events_processed == 3
    assert simulator.now == 3.0
    assert simulator.pending_events == 2
    # A following run carries on from the right count.
    assert simulator.run(until=until) == (4.0 if until is None else until)
    assert fired == [1.0, 2.0, 3.0, 4.0]
    assert simulator.events_processed == 5
    assert simulator.pending_events == 0


def test_a_raise_inside_a_drain_keeps_the_count_of_earlier_runs(simulator):
    simulator.schedule_at(0.5, lambda: None)
    simulator.run(until=0.75)
    assert simulator.events_processed == 1
    fired = []
    _schedule_a_raise_between(simulator, fired)
    with pytest.raises(Boom):
        simulator.run()
    assert simulator.events_processed == 4
    simulator.run()
    assert simulator.events_processed == 6


# -------------------------------------------------- non-finite and past times


@pytest.mark.parametrize("delay", [math.nan, math.inf])
def test_schedule_rejects_a_non_finite_delay(simulator, delay):
    with pytest.raises(ValueError, match=re.escape(repr(delay))):
        simulator.schedule(delay, lambda: None)
    assert simulator.pending_events == 0


@pytest.mark.parametrize("time", [math.nan, math.inf])
def test_schedule_at_rejects_a_non_finite_time(simulator, time):
    with pytest.raises(ValueError, match=re.escape(repr(time))):
        simulator.schedule_at(time, lambda: None)
    assert simulator.pending_events == 0


def test_a_rejected_time_leaves_the_clock_and_the_run_alone(simulator):
    fired = []
    simulator.schedule_at(1.0, lambda: fired.append(simulator.now))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            simulator.schedule_at(bad, lambda: fired.append("bad"))
        with pytest.raises(ValueError):
            simulator.schedule(bad, lambda: fired.append("bad"))
    assert simulator.run() == 1.0
    assert fired == [1.0]


@pytest.mark.parametrize("until", [math.nan, math.inf])
def test_run_rejects_a_non_finite_horizon(simulator, until):
    simulator.schedule(1.0, lambda: None)
    with pytest.raises(ValueError, match=re.escape(repr(until))):
        simulator.run(until=until)
    assert simulator.now == 0.0
    assert simulator.pending_events == 1
    assert simulator.events_processed == 0


def test_run_rejects_an_infinite_horizon_after_a_drain(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.run()
    with pytest.raises(ValueError):
        simulator.run(until=math.inf)
    assert simulator.now == 1.0


def test_run_rejects_a_horizon_behind_the_clock(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.schedule(2.0, lambda: None)
    assert simulator.run(until=1.5) == 1.5
    with pytest.raises(ValueError, match="0.5"):
        simulator.run(until=0.5)
    assert simulator.now == 1.5
    assert simulator.run(until=1.5) == 1.5
    assert simulator.pending_events == 1


# ------------------------------------------------------ one event per step


def test_step_runs_one_event_per_call_within_an_instant(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append("first"))
    simulator.schedule(1.0, lambda: fired.append("second"))
    assert simulator.step()
    assert fired == ["first"]
    assert simulator.events_processed == 1
    assert simulator.step()
    assert fired == ["first", "second"]
    assert simulator.events_processed == 2
    assert not simulator.step()


def test_horizon_run_leaves_later_instants_untouched(simulator):
    fired = []
    simulator.schedule(9.0, lambda: fired.append(simulator.now))
    simulator.run(until=5.0)
    assert fired == []
    assert simulator.pending_events == 1
    simulator.run()
    assert fired == [9.0]


def test_horizon_run_runs_the_events_at_the_horizon(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append(simulator.now))
    simulator.schedule(1.0, lambda: fired.append(simulator.now))
    assert simulator.run(until=1.0) == 1.0
    assert fired == [1.0, 1.0]
    assert simulator.pending_events == 0
