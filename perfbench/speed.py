"""Wall times scaled to a reference processor speed.

On a shared machine the processor's speed drifts by tens of percent within a
fraction of a second as neighbours come and go, which would swamp the
differences the benchmark must resolve.  So while a timed region runs, a
:class:`SpeedProbe` times a fixed pure-Python loop (heap, dict, float and
method-call work, the interpreter operations the simulator spends its time
on) once at each end and once every :data:`TICK_SECONDS` from a ``SIGALRM``
handler.  The region's wall time, minus the time the probe itself took, is
then multiplied by ``REFERENCE_SECONDS`` over the loop's mean time.  The
loop is the benchmark's own code, so the program under test cannot speed it
up: a faster program still reads faster.
"""

import heapq
import signal
import statistics
import time

# What one loop takes on the reference processor: one vCPU of a 2-vCPU
# Intel Xeon VM running CPython 3.11, in its fast state.
REFERENCE_SECONDS = 0.85e-3

TICK_SECONDS = 0.02

_ITERATIONS = 1200


class _Cell(object):
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def add(self, amount):
        self.value += amount
        return self.value


def loop_seconds():
    """Run the reference loop once; returns its wall time."""
    start = time.perf_counter()
    cells = [_Cell() for _ in range(64)]
    heap = []
    counts = {}
    for index in range(_ITERATIONS):
        heapq.heappush(heap, (((index * 7919) % 1009) * 1e-6, index, cells[index & 63]))
        counts[index & 255] = counts.get(index & 255, 0) + 1
    total = 0.0
    while heap:
        when, _, cell = heapq.heappop(heap)
        total += cell.add(when)
    return time.perf_counter() - start


class SpeedProbe(object):
    """Samples the processor's speed around and during timed regions.

    Use as a context manager around one timed region; inside it,
    :meth:`now` is a clock that stops while the probe runs its loop, and
    :meth:`scaled` turns an interval of that clock into reference seconds.
    With ``tick=None`` the loop runs only at the two ends (a profiled region
    would otherwise profile, and slow, the loop too).
    """

    def __init__(self, tick=TICK_SECONDS):
        self.tick = tick
        self.samples = []
        self._probing = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self._probing += time.perf_counter() - start

    def __enter__(self):
        self.samples = [loop_seconds()]
        self._probing = 0.0
        if self.tick is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if self.tick is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(loop_seconds())
        return False

    def now(self):
        return time.perf_counter() - self._probing

    def scaled(self, seconds):
        return seconds * REFERENCE_SECONDS / statistics.fmean(self.samples)
