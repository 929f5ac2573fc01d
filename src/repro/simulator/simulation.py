"""The simulation loop.

A :class:`Simulator` owns the event queue and the clock.  Work is scheduled
through :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time); each scheduled callback executes
atomically at its firing time, matching the paper's model of ``when`` blocks
that are "executed atomically, and activated asynchronously when an event is
triggered".  Packet deliveries, the non-cancellable majority, do not go
through the simulator: the protocol pushes each one as a bare entry onto the
public ``queue``'s heap (see :mod:`repro.simulator.event_queue`), and the
drain loop pops bare heads straight off that heap.

Because B-Neck is *quiescent*, a steady-state simulation terminates on its own:
once the max-min fair rates are computed, no task schedules further events and
the queue drains.  :meth:`Simulator.run` therefore runs until the queue is
empty by default, and the time of the last processed event is the
time-to-quiescence reported by the experiments.

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

A run ends only when the queue drains or a time horizon is crossed, and it
flushes the instant first; so after a run no deferred callback is pending.
Only :meth:`Simulator.step`, which executes a single unit of work, can leave
an instant half done.

Out-of-band work
----------------

End-of-instant callbacks are the simulator's only work outside the event
queue.  They never show in ``events_processed``, never stretch a reported
quiescence time and never count against ``max_events`` / ``max_time``.  The
protocol's per-instant ``API.Rate`` delivery is their one user.
"""

from heapq import heappop

from repro.simulator.errors import SimulationLimitExceeded
from repro.simulator.event_queue import EventQueue


class Simulator(object):
    """Discrete-event simulation loop with quiescence detection.

    Args:
        max_events: optional safety cap on processed events; exceeded caps
            raise :class:`SimulationLimitExceeded`.
        max_time: optional safety cap on the simulation clock.

    Attributes:
        now: current simulation time in seconds.  Only the run loop writes
            it.
        queue: the :class:`~repro.simulator.event_queue.EventQueue`.
    """

    def __init__(self, max_events=None, max_time=None):
        self.queue = EventQueue()
        self.now = 0.0
        self._events_processed = 0
        self._instant_callbacks = []
        self.max_events = max_events
        self.max_time = max_time

    # ------------------------------------------------------------------ clock

    @property
    def events_processed(self):
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self):
        """Number of live events still waiting in the queue."""
        return len(self.queue)

    @property
    def pending_instant_callbacks(self):
        """Number of end-of-instant callbacks not yet flushed.

        Non-zero only while an instant is unfinished: inside a run, or after
        :meth:`step` executed part of one.
        """
        return len(self._instant_callbacks)

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay, callback, tag=None):
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % delay)
        return self.queue.push(self.now + delay, callback, tag=tag)

    def schedule_at(self, time, callback, tag=None):
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                "cannot schedule in the past (now=%r, requested=%r)" % (self.now, time)
            )
        return self.queue.push(time, callback, tag=tag)

    def call_at_instant_end(self, callback):
        """Defer ``callback`` to the end of the current instant.

        The callback runs after every event carrying the current timestamp has
        been processed and before the clock advances (or the run returns, when
        the queue drains or a horizon is crossed).  Callbacks run in
        registration order and may register further deferred callbacks or
        schedule new events.  See the module docstring for the full contract.
        """
        self._instant_callbacks.append(callback)

    def cancel(self, event):
        """Cancel a previously scheduled event."""
        self.queue.cancel(event)

    # ---------------------------------------------------------------- running

    def _flush_instant(self):
        """Run one batch of end-of-instant callbacks (registration order)."""
        callbacks = self._instant_callbacks
        self._instant_callbacks = []
        for callback in callbacks:
            callback()

    def _instant_finished(self):
        """True when no live event shares the current timestamp."""
        next_time = self.queue.peek_time()
        return next_time is None or next_time > self.now

    def step(self):
        """Execute the next pending unit of work.

        Runs either one batch of end-of-instant callbacks (when the current
        instant is exhausted) or the next event.  Returns ``False`` only when
        neither remains.
        """
        if self._instant_callbacks and self._instant_finished():
            self._flush_instant()
            return True
        entry = self.queue.pop_entry()
        if entry is None:
            return False
        self.now = entry[0]
        self._events_processed += 1
        entry[2]()
        return True

    def _unconstrained(self):
        """True when no per-event limit check is needed."""
        return self.max_events is None and self.max_time is None

    def run(self, until=None):
        """Run the simulation.

        Args:
            until: optional absolute time horizon.  Events scheduled after the
                horizon stay in the queue; the clock is advanced to ``until``
                when the horizon is hit with work still pending.

        Returns:
            The simulation time at which the run stopped.
        """
        if until is None and self._unconstrained():
            self._drain_fast()
        else:
            self._run_general(until)
        if until is not None and not self.queue and self.now < until:
            # The queue drained before the horizon: advance the clock so
            # repeated run(until=...) calls observe monotonic time.
            self.now = until
        return self.now

    def _run_general(self, until):
        """The fully-featured run loop: horizon and limits."""
        while True:
            if self._instant_callbacks and self._instant_finished():
                # The current instant is exhausted: flush its deferred work
                # before the clock may advance (or the run return).
                self._flush_instant()
                continue
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            self._check_limits(next_time)
            self.step()

    def _drain_fast(self):
        """Drain the queue with no limit checks.

        Processes exactly the same events in exactly the same order as the
        general loop; it only skips the per-event limit checks, which are
        no-ops when ``max_events``/``max_time`` are unset.
        """
        heap = self.queue.heap
        pop_entry = self.queue.pop_entry
        while True:
            if self._instant_callbacks and self._instant_finished():
                self._flush_instant()
                continue
            if not heap:
                break
            if heap[0][4] is None:
                # A bare head (a packet delivery) is live: no queue call.
                entry = heappop(heap)
            else:
                entry = pop_entry()
                if entry is None:
                    break
            self.now = entry[0]
            self._events_processed += 1
            entry[2]()

    def run_until_quiescent(self):
        """Run until the event queue drains and return the quiescence time.

        The returned value is the timestamp of the last processed event, i.e.
        the instant at which the network stopped carrying control traffic.
        End-of-instant callbacks do not delay the reported time: they execute
        at the timestamp of the instant they belong to.  This is :meth:`run`
        with no horizon: after a drain the clock sits on the last processed
        event (or is untouched when the queue was already empty).
        """
        return self.run()

    def _check_limits(self, next_time):
        if self.max_events is not None and self._events_processed >= self.max_events:
            raise SimulationLimitExceeded(
                "event limit of %d exceeded at t=%r (possible livelock)"
                % (self.max_events, self.now),
                events_processed=self._events_processed,
                current_time=self.now,
            )
        if self.max_time is not None and next_time > self.max_time:
            raise SimulationLimitExceeded(
                "time limit of %r exceeded (next event at %r)" % (self.max_time, next_time),
                events_processed=self._events_processed,
                current_time=self.now,
            )

    def __repr__(self):
        return "Simulator(now=%r, pending=%d, processed=%d)" % (
            self.now,
            len(self.queue),
            self._events_processed,
        )
