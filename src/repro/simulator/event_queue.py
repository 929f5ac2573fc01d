"""A deterministic priority queue of timed events.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a strictly
increasing insertion counter.  Ties in time are therefore broken by insertion
order, which keeps simulation runs fully deterministic for a given workload and
random seed -- a requirement for the regression tests that compare distributed
B-Neck against the centralized oracle.

Heap micro-layout
-----------------

The heap stores flat ``(time, sequence, callback, tag, event)`` tuples: tuple
comparisons run entirely in C, so sift-up and sift-down never call back into
Python on the hot path.  Two entry flavours share that layout:

* **Cancellable entries** (:meth:`EventQueue.push`) additionally allocate an
  :class:`Event` handle (the fifth tuple slot) that callers use with
  :meth:`EventQueue.cancel`.
* **Bare entries** (:meth:`EventQueue.push_callback`) carry ``None`` in the
  event slot and allocate nothing beyond the tuple.  The vast majority of
  simulation events are packet deliveries that are never cancelled; storing
  them bare skips one object allocation (and its GC tracking) per packet.

The queue counts *cancelled entries still in the heap* rather than live
ones, so a push is nothing but a ``heappush`` and a bare head is always
live.  That makes the public ``heap`` and ``sequence`` the packet path's
whole interface: the B-Neck protocol's ``forward_*`` methods push every
delivery onto ``heap`` as a bare entry drawing one ``next(sequence)``, and
the simulator's drain loop pops a bare head with ``heappop`` directly,
calling :meth:`EventQueue.pop_entry` only when the head is cancellable.

:meth:`EventQueue.pop_entry` returns raw tuples and skips cancelled ones;
:meth:`EventQueue.pop` keeps the historical Event-returning interface for
callers that want a handle (synthesizing an already-consumed :class:`Event`
for bare entries).
"""

import heapq
import itertools

# Indices into the (time, sequence, callback, tag, event) heap entries.
ENTRY_TIME = 0
ENTRY_SEQUENCE = 1
ENTRY_CALLBACK = 2
ENTRY_TAG = 3
ENTRY_EVENT = 4


class Event(object):
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires.
        sequence: insertion counter used for deterministic tie-breaking.
        callback: zero-argument callable executed when the event fires.
        cancelled: set by :meth:`cancel`; cancelled events are skipped.
        consumed: set by :meth:`EventQueue.pop` once the event has fired;
            consumed events can no longer be cancelled.
        tag: optional label used by traces and tests.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "consumed", "tag")

    def __init__(self, time, sequence, callback, tag=None):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self.consumed = False
        self.tag = tag

    def cancel(self):
        """Mark the event as cancelled; it will be skipped when popped.

        Prefer :meth:`EventQueue.cancel`, which also keeps the queue's
        live-event count in sync; this raw marker does not.
        """
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __repr__(self):
        if self.cancelled:
            state = "cancelled"
        elif self.consumed:
            state = "consumed"
        else:
            state = "pending"
        return "Event(time=%r, seq=%d, tag=%r, %s)" % (
            self.time,
            self.sequence,
            self.tag,
            state,
        )


class EventQueue(object):
    """Min-heap of timed callbacks ordered by (time, insertion order).

    Attributes:
        heap: the ``(time, sequence, callback, tag, event)`` entries, a
            :mod:`heapq` list.  Pushing a bare ``(time, next(sequence),
            callback, tag, None)`` entry onto it directly is equivalent to
            :meth:`push_callback`; nothing else may write to it.
        sequence: the insertion counter (an :func:`itertools.count`) every
            entry draws its tie-breaking sequence number from.
    """

    __slots__ = ("heap", "sequence", "_cancelled")

    def __init__(self):
        self.heap = []
        self.sequence = itertools.count()
        # Cancelled entries not yet popped: len(heap) minus this is the
        # number of live events.
        self._cancelled = 0

    def push(self, time, callback, tag=None):
        """Schedule ``callback`` at absolute ``time`` and return an :class:`Event`.

        The returned event is the cancellation handle; use
        :meth:`push_callback` instead when the caller will never cancel.
        """
        if time < 0:
            raise ValueError("event time must be non-negative, got %r" % time)
        sequence = next(self.sequence)
        event = Event(time, sequence, callback, tag=tag)
        heapq.heappush(self.heap, (time, sequence, callback, tag, event))
        return event

    def push_callback(self, time, callback, tag=None):
        """Schedule a *non-cancellable* bare callback at absolute ``time``.

        No :class:`Event` handle is allocated or returned: the entry cannot be
        cancelled, which is exactly right for the packet-delivery majority of
        simulation events.  Ordering is identical to :meth:`push` (the same
        sequence counter is shared), so mixing bare and cancellable entries
        preserves full (time, sequence) determinism.
        """
        if time < 0:
            raise ValueError("event time must be non-negative, got %r" % time)
        heapq.heappush(self.heap, (time, next(self.sequence), callback, tag, None))

    def pop_entry(self):
        """Remove and return the earliest live heap entry as a raw tuple.

        The returned tuple is ``(time, sequence, callback, tag, event)`` where
        ``event`` is ``None`` for bare entries.  Cancellable entries are marked
        *consumed*: a later :meth:`cancel` on their handle is a no-op and does
        not disturb the live-event count.  Returns ``None`` when the queue
        holds no live events.
        """
        heap = self.heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[4]
            if event is not None:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.consumed = True
            return entry
        return None

    def pop(self):
        """Remove and return the earliest live event as an :class:`Event`.

        Compatibility wrapper around :meth:`pop_entry`: bare entries are
        wrapped in a freshly synthesized, already-consumed :class:`Event` so
        callers can keep reading ``.time`` / ``.tag`` / ``.callback``.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        event = entry[4]
        if event is None:
            event = Event(entry[0], entry[1], entry[2], tag=entry[3])
            event.consumed = True
        return event

    def peek_time(self):
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self.heap
        while heap:
            event = heap[0][4]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][0]
        return None

    def cancel(self, event):
        """Cancel a previously scheduled event.

        Cancelling an event that already fired (was popped) or was already
        cancelled is a no-op, so the live-event count stays consistent no
        matter how often or how late ``cancel`` is called.
        """
        if event.cancelled or event.consumed:
            return
        event.cancelled = True
        self._cancelled += 1

    def clear(self):
        """Drop every pending event.

        Dropped cancellable events are marked cancelled so a stale handle
        passed to :meth:`cancel` afterwards stays a no-op instead of
        corrupting the live-event count.  Bare entries have no handle and are
        simply discarded.
        """
        for entry in self.heap:
            event = entry[4]
            if event is not None:
                event.cancelled = True
        # In place: the owning simulator holds the same list (module docstring).
        self.heap.clear()
        self._cancelled = 0

    def __len__(self):
        return len(self.heap) - self._cancelled

    def __bool__(self):
        return len(self.heap) > self._cancelled

    def __repr__(self):
        return "EventQueue(pending=%d)" % len(self)
