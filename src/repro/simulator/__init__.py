"""Discrete-event simulation substrate.

This package replaces the Peersim (Java) simulator used in the paper with a
small, deterministic, pure-Python discrete-event engine.  It provides:

* :class:`~repro.simulator.simulation.Simulator` -- the simulation loop: a
  heap of timed callbacks with deterministic ``(time, sequence)``
  tie-breaking, run until it drains (*quiescence*) or until a time horizon.
* :class:`~repro.simulator.tracing.PacketTracer` -- control-packet accounting
  (per type, per time interval) used by the experiment harnesses.
* :mod:`~repro.simulator.statistics` -- summary statistics used for the
  figures.
* :mod:`~repro.simulator.clock` -- time-unit helpers (the simulator clock is a
  float number of seconds).
* :func:`~repro.simulator.random_source.fork_seed` -- the stable derivation
  of each seeded :class:`random.Random` stream (topology structure, topology
  delays, workload) from one experiment seed.
"""

from repro.simulator.clock import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    microseconds,
    milliseconds,
    seconds,
)
from repro.simulator.random_source import fork_seed
from repro.simulator.simulation import Simulator
from repro.simulator.statistics import SummaryStatistics, percentile, summarize
from repro.simulator.tracing import PacketTracer

__all__ = [
    "MICROSECOND",
    "MILLISECOND",
    "PacketTracer",
    "SECOND",
    "Simulator",
    "SummaryStatistics",
    "fork_seed",
    "microseconds",
    "milliseconds",
    "percentile",
    "seconds",
    "summarize",
]
