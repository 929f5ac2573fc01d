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

The heap is a run's whole pending state: the simulator runs nothing that is
not one of its entries, so the heap and the clock fix everything a run does
next.
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

    # ---------------------------------------------------------------- running

    def step(self):
        """Run the next event.  Returns ``False`` only when the heap is
        empty."""
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
        while heap and heap[0][0] <= until:
            self.step()
        # Also when the heap drained first, so that a run to a later horizon
        # never sees the clock behind its previous one.
        self.now = until
        return until

    def _drain(self):
        """Run until the heap drains.

        Processes exactly the events :meth:`run` with a horizon past the
        last one would, in the same order.  The heap is bound to a local
        once, so an event costs the pop and the call.  It counts the events
        it runs in a local and adds them to ``events_processed`` on the way
        out, also when a callback raises.
        """
        heap = self.heap
        processed = 0
        try:
            while heap:
                self.now, _, handler, target, packet = heappop(heap)
                processed += 1
                handler(target, packet)
        finally:
            self._events_processed += processed

    def run_until_quiescent(self):
        """Run until the event heap drains and return the quiescence time.

        The returned value is the timestamp of the last processed event, i.e.
        the instant at which the network stopped carrying control traffic.
        This is :meth:`run` with no horizon: after a drain the clock sits on
        the last processed event (or is untouched when the heap was already
        empty).
        """
        return self.run()

    def __repr__(self):
        return "Simulator(now=%r, pending=%d, processed=%d)" % (
            self.now,
            len(self.heap),
            self._events_processed,
        )
