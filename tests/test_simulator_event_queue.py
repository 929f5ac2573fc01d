"""Unit tests for the event queue."""

import heapq

import pytest

from repro.simulator.event_queue import EventQueue


def test_push_and_pop_in_time_order():
    queue = EventQueue()
    fired = []
    queue.push(2.0, lambda: fired.append("late"))
    queue.push(1.0, lambda: fired.append("early"))
    first = queue.pop()
    second = queue.pop()
    assert first.time == 1.0
    assert second.time == 2.0


def test_ties_break_by_insertion_order():
    queue = EventQueue()
    queue.push(1.0, lambda: None, tag="first")
    queue.push(1.0, lambda: None, tag="second")
    queue.push(1.0, lambda: None, tag="third")
    assert [queue.pop().tag for _ in range(3)] == ["first", "second", "third"]


def test_pop_empty_returns_none():
    queue = EventQueue()
    assert queue.pop() is None


def test_len_counts_live_events():
    queue = EventQueue()
    assert len(queue) == 0
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.pop()
    assert len(queue) == 1


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    queue.push(0.5, lambda: None)
    assert queue


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, tag="cancelled")
    queue.push(2.0, lambda: None, tag="kept")
    queue.cancel(event)
    assert len(queue) == 1
    popped = queue.pop()
    assert popped.tag == "kept"


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_peek_time_returns_earliest_live_time():
    queue = EventQueue()
    assert queue.peek_time() is None
    early = queue.push(1.0, lambda: None)
    queue.push(3.0, lambda: None)
    assert queue.peek_time() == 1.0
    queue.cancel(early)
    assert queue.peek_time() == 3.0


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(-1.0, lambda: None)


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert queue.pop() is None


def test_event_repr_mentions_state():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, tag="probe")
    assert "pending" in repr(event)
    queue.cancel(event)
    assert "cancelled" in repr(event)


def test_cancel_after_pop_keeps_len_consistent():
    # Regression: cancelling an event that already fired used to decrement the
    # live-event counter anyway, making len() (and Simulator.pending_events)
    # undercount and quiescence detection fire early.
    queue = EventQueue()
    first = queue.push(1.0, lambda: None, tag="first")
    queue.push(2.0, lambda: None, tag="second")
    popped = queue.pop()
    assert popped is first
    assert len(queue) == 1
    queue.cancel(first)
    assert len(queue) == 1
    queue.cancel(first)
    assert len(queue) == 1
    assert queue.pop().tag == "second"
    assert len(queue) == 0


def test_cancel_after_pop_then_cancel_live_event():
    queue = EventQueue()
    fired = queue.push(1.0, lambda: None)
    live = queue.push(2.0, lambda: None)
    queue.pop()
    queue.cancel(fired)   # no-op: already consumed
    queue.cancel(live)    # real cancellation
    assert len(queue) == 0
    assert queue.pop() is None


def test_popped_events_are_marked_consumed():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    assert not event.consumed
    queue.pop()
    assert event.consumed
    assert "consumed" in repr(event)


def test_cancel_after_clear_is_a_noop():
    queue = EventQueue()
    stale = queue.push(1.0, lambda: None)
    queue.clear()
    queue.cancel(stale)
    assert len(queue) == 0
    queue.push(2.0, lambda: None)
    assert len(queue) == 1


def test_cancel_before_pop_still_skips_event():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.pop() is None


def test_push_callback_interleaves_with_events_by_insertion_order():
    queue = EventQueue()
    queue.push(1.0, lambda: None, tag="event")
    queue.push_callback(1.0, lambda: None, tag="bare")
    queue.push(1.0, lambda: None, tag="event-2")
    assert [queue.pop().tag for _ in range(3)] == ["event", "bare", "event-2"]


def test_push_callback_counts_as_live():
    queue = EventQueue()
    queue.push_callback(1.0, lambda: None)
    assert len(queue) == 1
    assert queue
    queue.pop()
    assert len(queue) == 0


def test_push_callback_pop_synthesizes_consumed_event():
    fired = []
    queue = EventQueue()
    queue.push_callback(0.5, lambda: fired.append("ran"), tag="bare")
    event = queue.pop()
    assert event.time == 0.5
    assert event.tag == "bare"
    assert event.consumed
    event.callback()
    assert fired == ["ran"]
    # The synthesized handle is already consumed: cancel is a no-op.
    queue.cancel(event)
    assert len(queue) == 0


def test_push_callback_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push_callback(-0.5, lambda: None)


def test_pop_entry_returns_raw_tuples_for_both_flavours():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None, tag="cancellable")
    queue.push_callback(2.0, lambda: None, tag="bare")
    first = queue.pop_entry()
    assert first[0] == 1.0 and first[3] == "cancellable" and first[4] is handle
    assert handle.consumed
    second = queue.pop_entry()
    assert second[0] == 2.0 and second[3] == "bare" and second[4] is None
    assert queue.pop_entry() is None


def test_cancel_after_pop_with_bare_entries_in_the_heap():
    # The live count must stay exact when cancellable and bare entries mix
    # and a handle is cancelled after its event already fired.
    queue = EventQueue()
    fired = queue.push(1.0, lambda: None, tag="fired")
    queue.push_callback(2.0, lambda: None, tag="bare")
    queue.push(3.0, lambda: None, tag="live")
    assert queue.pop().tag == "fired"
    assert len(queue) == 2
    queue.cancel(fired)      # already consumed: must be a no-op
    queue.cancel(fired)
    assert len(queue) == 2
    assert queue.pop().tag == "bare"
    assert queue.pop().tag == "live"
    assert len(queue) == 0


def test_peek_time_skips_cancelled_ahead_of_bare_entries():
    queue = EventQueue()
    early = queue.push(1.0, lambda: None)
    queue.push_callback(2.0, lambda: None)
    queue.cancel(early)
    assert queue.peek_time() == 2.0


def test_clear_discards_bare_entries():
    queue = EventQueue()
    queue.push_callback(1.0, lambda: None)
    stale = queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    queue.cancel(stale)
    assert len(queue) == 0
    assert queue.pop() is None


def test_many_events_keep_global_order():
    queue = EventQueue()
    times = [5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 2.5]
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(times)


def test_direct_heap_entries_count_as_live_through_cancel_peek_and_clear():
    # The owning simulator pushes bare entries straight onto the queue's
    # public heap; the live count is the heap size minus unpopped cancels.
    queue = EventQueue()
    heap, counter = queue.heap, queue.sequence
    early = queue.push(1.0, lambda: None, tag="early")
    heapq.heappush(heap, (2.0, next(counter), lambda: None, "direct", None))
    queue.push_callback(3.0, lambda: None, tag="bare")
    assert len(queue) == 3
    queue.cancel(early)
    assert len(queue) == 2 and queue
    assert queue.peek_time() == 2.0  # drops the cancelled head
    assert len(queue) == 2
    assert queue.pop().tag == "direct"
    queue.clear()
    assert heap == [] and len(queue) == 0 and not queue
    heapq.heappush(heap, (4.0, next(counter), lambda: None, "after", None))
    assert len(queue) == 1 and queue.pop().tag == "after"
