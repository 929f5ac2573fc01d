"""Discrete-event simulation substrate.

This package replaces the Peersim (Java) simulator used in the paper with a
small, deterministic, pure-Python discrete-event engine.  It provides:

* :class:`~repro.simulator.event_queue.EventQueue` -- a priority queue of timed
  events with deterministic tie-breaking.
* :class:`~repro.simulator.simulation.Simulator` -- the simulation loop, with
  support for running until the event queue drains (*quiescence*) or until a
  time horizon.
* :class:`~repro.simulator.process.Process` -- base class for simulated actors
  (protocol tasks) whose handlers execute atomically.
* :class:`~repro.simulator.tracing.PacketTracer` -- control-packet accounting
  (per type, per time interval) used by the experiment harnesses.
* :mod:`~repro.simulator.statistics` -- summary statistics and time series
  helpers used for the figures.
* :mod:`~repro.simulator.clock` -- time-unit helpers (the simulator clock is a
  float number of seconds).
"""

from repro.simulator.clock import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    format_time,
    microseconds,
    milliseconds,
    seconds,
)
from repro.simulator.errors import (
    SimulationError,
    SimulationLimitExceeded,
    SimulationNotRunning,
)
from repro.simulator.event_queue import Event, EventQueue
from repro.simulator.process import Process
from repro.simulator.random_source import RandomSource
from repro.simulator.simulation import Simulator
from repro.simulator.statistics import (
    Histogram,
    SummaryStatistics,
    TimeSeries,
    percentile,
    summarize,
)
from repro.simulator.tracing import (
    NullPacketTracer,
    PacketRecord,
    PacketTracer,
)

__all__ = [
    "Event",
    "EventQueue",
    "Histogram",
    "MICROSECOND",
    "MILLISECOND",
    "NullPacketTracer",
    "PacketRecord",
    "PacketTracer",
    "Process",
    "RandomSource",
    "SECOND",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationNotRunning",
    "Simulator",
    "SummaryStatistics",
    "TimeSeries",
    "format_time",
    "microseconds",
    "milliseconds",
    "percentile",
    "seconds",
    "summarize",
]
