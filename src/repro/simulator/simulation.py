"""The simulation loop.

A :class:`Simulator` owns the event heap and the clock.  Work is scheduled
through :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time); each scheduled callback executes
atomically at its firing time, matching the paper's model of ``when`` blocks
that are "executed atomically, and activated asynchronously when an event is
triggered".  Nothing ever cancels a scheduled event: B-Neck has no timers, so
every entry in the heap is live.  Packet deliveries do not go through
:meth:`Simulator.schedule`: the protocol pushes each one straight onto the
public ``heap``, and the drain loop pops it straight off.

Because B-Neck is *quiescent*, a steady-state simulation terminates on its own:
once the max-min fair rates are computed, no task schedules further events and
the heap drains.  :meth:`Simulator.run` therefore runs until the heap is
empty by default, and the time of the last processed event is the
time-to-quiescence reported by the experiments.

Event order and heap micro-layout
---------------------------------

Events are ordered by ``(time, sequence)`` where ``sequence`` is a strictly
increasing insertion counter.  Ties in time are therefore broken by insertion
order, which keeps simulation runs fully deterministic for a given workload and
random seed -- a requirement for the regression tests that compare distributed
B-Neck against the centralized oracle.

``Simulator.heap`` is a :mod:`heapq` list of plain ``(time, sequence,
handler, target, packet)`` tuples, and ``Simulator.sequence`` is the
:func:`itertools.count` every entry draws its sequence number from.  Running
an entry is the call ``handler(target, packet)``.  No two entries share a
``(time, sequence)`` pair, so tuple comparisons run entirely in C and never
reach the last three fields: sift-up and sift-down never call back into
Python, and an entry allocates nothing beyond its tuple.  The two attributes
are the packet path's whole interface: the B-Neck protocol's ``forward_*``
methods push every delivery onto ``heap`` as the receiving task's unbound
handler, the task and the packet, drawing one ``next(sequence)``, and the
drain loop pops the head with ``heappop`` and makes the call.  The rare
callbacks of :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
take the same shape: their entry is ``(time, sequence, _call, callback,
tag)``, where ``_call(callback, tag)`` calls ``callback()``.  Times are
finite and never behind the clock: :meth:`Simulator.schedule`,
:meth:`Simulator.schedule_at` and ``run(until=)`` reject any other value.

End-of-instant batching
-----------------------

All events sharing one timestamp form an *instant*.  Work registered through
:meth:`Simulator.call_at_instant_end` during an instant is deferred until every
event of that instant (including events scheduled *for* the instant while it
runs) has been processed, and executes before the clock advances to the next
event time.  Deferred callbacks run in registration order, so the mechanism
preserves the (time, sequence) determinism contract; they may schedule new
events (same-instant or later) and re-register themselves, in which case the
flush repeats until the instant is truly exhausted.  The B-Neck protocol layer
uses this to coalesce ``API.Rate`` notifications: however many rate updates a
session receives within one instant, its application sees a single batched
callback carrying the final value (see
:meth:`repro.core.protocol.BNeckProtocol.notify_rate`).

A run ends only when the heap drains or a time horizon is crossed, and it
flushes the instant first; so after a run no deferred callback is pending.
Only :meth:`Simulator.step`, which executes a single unit of work, can leave
an instant half done.

Out-of-band work
----------------

End-of-instant callbacks are the simulator's only work outside the event
heap.  They never show in ``events_processed`` and never stretch a reported
quiescence time.  The protocol's per-instant ``API.Rate`` delivery is their
one user.
"""

import itertools
import math
from heapq import heappop, heappush


def _call(callback, tag):
    """The handler of a :meth:`Simulator.schedule` entry: run its callback
    (the tag only labels the entry)."""
    callback()


class Simulator(object):
    """Discrete-event simulation loop with quiescence detection.

    Attributes:
        now: current simulation time in seconds.  Only the run loop writes
            it.
        heap: the pending ``(time, sequence, handler, target, packet)``
            entries, a :mod:`heapq` list; an entry runs as ``handler(target,
            packet)``.  Pushing ``(time, next(sequence), handler, target,
            packet)`` onto it directly, with ``now <= time < inf``, is
            equivalent to scheduling that call with :meth:`schedule_at`;
            nothing else may write to it.
        sequence: the insertion counter (an :func:`itertools.count`) every
            entry draws its tie-breaking sequence number from.
    """

    def __init__(self):
        self.heap = []
        self.sequence = itertools.count()
        self.now = 0.0
        self._events_processed = 0
        self._instant_callbacks = []

    # ------------------------------------------------------------------ clock

    @property
    def events_processed(self):
        """Number of events executed so far.

        Exact between runs, also after a callback raised.  While a run with
        no horizon drains the heap, it is brought up to date only when the
        drain returns or raises."""
        return self._events_processed

    @property
    def pending_events(self):
        """Number of events still waiting in the heap."""
        return len(self.heap)

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay, callback, tag=None):
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative.
        """
        if not 0 <= delay < math.inf:
            raise ValueError("delay must be finite and non-negative, got %r" % (delay,))
        heappush(self.heap, (self.now + delay, next(self.sequence), _call, callback, tag))

    def schedule_at(self, time, callback, tag=None):
        """Schedule ``callback`` at an absolute simulation time.

        ``time`` must be finite and not before :attr:`now`.
        """
        if not self.now <= time < math.inf:
            raise ValueError(
                "event time must be finite and not in the past (now=%r), got %r"
                % (self.now, time)
            )
        heappush(self.heap, (time, next(self.sequence), _call, callback, tag))

    def call_at_instant_end(self, callback):
        """Defer ``callback`` to the end of the current instant.

        The callback runs after every event carrying the current timestamp has
        been processed and before the clock advances (or the run returns, when
        the heap drains or a horizon is crossed).  Callbacks run in
        registration order and may register further deferred callbacks or
        schedule new events.  See the module docstring for the full contract.
        """
        self._instant_callbacks.append(callback)

    # ---------------------------------------------------------------- running

    def _flush_instant(self):
        """Run one batch of end-of-instant callbacks (registration order).

        The list is emptied in place, so a loop that bound it keeps seeing
        the callbacks registered later; those registered by this batch run
        in the next one."""
        callbacks = self._instant_callbacks
        batch = callbacks[:]
        callbacks.clear()
        for callback in batch:
            callback()

    def _instant_finished(self):
        """True when no event shares the current timestamp."""
        heap = self.heap
        return not heap or heap[0][0] > self.now

    def step(self):
        """Execute the next pending unit of work.

        Runs either one batch of end-of-instant callbacks (when the current
        instant is exhausted) or the next event.  Returns ``False`` only when
        neither remains.
        """
        if self._instant_callbacks and self._instant_finished():
            self._flush_instant()
            return True
        if not self.heap:
            return False
        self.now, _, handler, target, packet = heappop(self.heap)
        self._events_processed += 1
        handler(target, packet)
        return True

    def run(self, until=None):
        """Run the simulation.

        Args:
            until: optional absolute time horizon, finite and not before
                :attr:`now`.  Events scheduled after the horizon stay in the
                heap, and the run ends with the clock at ``until``.  Without
                one the run drains the heap (:meth:`run_until_quiescent`).

        Returns:
            The simulation time at which the run stopped.
        """
        if until is None:
            self._drain()
            return self.now
        if not self.now <= until < math.inf:
            raise ValueError(
                "run horizon must be finite and not in the past (now=%r), got %r"
                % (self.now, until)
            )
        heap = self.heap
        while True:
            if self._instant_callbacks and self._instant_finished():
                # The current instant is exhausted: flush its deferred work
                # before the clock may advance (or the run return).
                self._flush_instant()
                continue
            if not heap or heap[0][0] > until:
                break
            self.step()
        # Also when the heap drained first, so that a run to a later horizon
        # never sees the clock behind its previous one.
        self.now = until
        return until

    def _drain(self):
        """Run until the heap drains.

        Processes exactly the events :meth:`run` with a horizon past the
        last one would, in the same order.  The heap and the end-of-instant
        list are bound to locals once (:meth:`_flush_instant` empties the
        list in place), so an event costs the pop, the call and one test of
        the list.  It counts the events it runs in a local and adds them to
        ``events_processed`` on the way out, also when a callback raises.
        """
        heap = self.heap
        callbacks = self._instant_callbacks
        processed = 0
        try:
            while True:
                if callbacks and self._instant_finished():
                    self._flush_instant()
                    continue
                if not heap:
                    break
                self.now, _, handler, target, packet = heappop(heap)
                processed += 1
                handler(target, packet)
        finally:
            self._events_processed += processed

    def run_until_quiescent(self):
        """Run until the event heap drains and return the quiescence time.

        The returned value is the timestamp of the last processed event, i.e.
        the instant at which the network stopped carrying control traffic.
        End-of-instant callbacks do not delay the reported time: they execute
        at the timestamp of the instant they belong to.  This is :meth:`run`
        with no horizon: after a drain the clock sits on the last processed
        event (or is untouched when the heap was already empty).
        """
        return self.run()

    def __repr__(self):
        return "Simulator(now=%r, pending=%d, processed=%d)" % (
            self.now,
            len(self.heap),
            self._events_processed,
        )
