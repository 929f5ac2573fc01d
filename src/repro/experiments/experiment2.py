"""Experiment 2 (Figure 6): stability of B-Neck under a highly dynamic workload.

A Medium/LAN network goes through five consecutive phases of churn, each
compressed into the first millisecond of its phase:

1. a mass **join** establishes the population;
2. a mass **leave** removes 20% of the sessions;
3. a mass **rate change** alters the demand of 20% of the sessions;
4. another mass **join** adds 20% more sessions;
5. a **mixed** phase joins, leaves and changes 20% each, simultaneously.

The paper reports (a) the time each phase needs to reach quiescence again and
(b) the number of control packets of each type transmitted per 5 ms interval
(Figure 6).  Counts are scaled down from the paper's 100,000-session population
to ``Experiment2Config.initial_sessions`` (500 by default); the ratios between
phases are preserved.

The phases run as a :class:`~repro.workloads.stochastic.PhaseChurnWorkload`
through :meth:`~repro.experiments.runner.ExperimentRunner.run_scenario`, one
round per phase, so every phase is validated at its own quiescence point.
"""

from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import LAN
from repro.workloads.stochastic import DEFAULT_PHASES, PhaseChurnWorkload


class Experiment2Config(object):
    """Knobs of the Experiment 2 run.  It runs on LAN delays; each phase's
    actions fall in its first millisecond, a phase starts 1 ms after the
    previous one's quiescence, demands are uniform in ``[1, 80]`` Mb/s, and
    packets are counted per 5 ms interval."""

    def __init__(self, size="medium", initial_sessions=500, churn_fraction=0.2, seed=0):
        self.size = size
        self.initial_sessions = initial_sessions
        self.churn_fraction = churn_fraction
        self.seed = seed

    def phases(self):
        return DEFAULT_PHASES(self.initial_sessions, self.churn_fraction)

    def spec(self):
        """The :class:`~repro.experiments.runner.ScenarioSpec` of this config."""
        return ScenarioSpec(size=self.size, delay_model=LAN, seed=self.seed,
                            tracer_interval=5e-3)

    def __repr__(self):
        return "Experiment2Config(size=%r, sessions=%d, churn=%.0f%%)" % (
            self.size,
            self.initial_sessions,
            self.churn_fraction * 100,
        )


class Experiment2Result(object):
    """Per-phase quiescence timings plus the per-interval packet-type series.

    ``records`` are the workload's :data:`~repro.workloads.stochastic.PhaseRecord`
    entries and ``measurements`` the runner's
    :class:`~repro.experiments.runner.RunMeasurement` of each phase, in
    phase order.
    """

    def __init__(self, config, records, measurements, interval_series,
                 rate_callbacks=0):
        self.config = config
        self.records = records
        self.measurements = measurements
        self.interval_series = interval_series
        self.validated = all(measurement.validated for measurement in measurements)
        self.rate_callbacks = rate_callbacks

    def phase_rows(self):
        """``(phase, seconds until quiescence, measurement)`` per phase."""
        return [
            (record.phase, measurement.quiescence_time - record.start_time, measurement)
            for record, measurement in zip(self.records, self.measurements)
        ]

    def phase_durations(self):
        """``{phase name: seconds until quiescence}``."""
        return {phase.name: duration for phase, duration, _ in self.phase_rows()}

    def total_packets(self):
        return sum(measurement.packets for measurement in self.measurements)

    def __repr__(self):
        return "Experiment2Result(phases=%d, total_packets=%d, validated=%r)" % (
            len(self.measurements),
            self.total_packets(),
            self.validated,
        )


def run_experiment2(config=None):
    """Run Experiment 2 and return an :class:`Experiment2Result`."""
    config = config or Experiment2Config()
    workload = PhaseChurnWorkload(config.phases())
    with ExperimentRunner(config.spec()) as runner:
        measurements = runner.run_scenario(workload)
        return Experiment2Result(
            config=config,
            records=workload.records,
            measurements=measurements,
            interval_series=runner.tracer.interval_series(),
            rate_callbacks=runner.protocol.rate_callbacks,
        )
