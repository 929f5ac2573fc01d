"""Experiment 3 (Figures 7 and 8): B-Neck vs. non-quiescent protocols.

A Medium/LAN network receives a mass join while a tenth of the sessions leave
again, all during the first five milliseconds.  Every ``sample_interval`` the
experiment records, for each protocol under test,

* the distribution of the per-session relative error between the currently
  assigned rate and the max-min fair rate of the final configuration
  (Figure 7, left: "error at sources");
* the distribution of the per-bottleneck-link relative error of the aggregate
  assigned rate (Figure 7, right: "error in network links");
* the number of control packets transmitted in the interval (Figure 8).

The paper compares B-Neck against BFYZ (and reports that CG and RCP failed to
converge in the allotted time beyond 500 sessions); this harness runs any
subset of {B-Neck, BFYZ, CG, RCP} on the *same* workload.
"""

import math

from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol
from repro.core.actions import LeaveAction
from repro.core.centralized import centralized_bneck
from repro.core.protocol import BNeckProtocol
from repro.experiments.metrics import (
    bottleneck_link_errors,
    convergence_time,
    error_summary,
    relative_errors,
)
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import LAN

BNECK = "bneck"
BFYZ = "bfyz"
CG = "cg"
RCP = "rcp"

PROTOCOLS = {BNECK: BNeckProtocol, BFYZ: BFYZProtocol, CG: CGProtocol, RCP: RCPProtocol}


class Experiment3Config(object):
    """Knobs of the Experiment 3 comparison.  It runs on LAN delays, every
    session is greedy (an infinite demand), the baselines probe every
    millisecond, and a protocol has converged once every source's error
    stays within 1%."""

    def __init__(
        self,
        size="medium",
        initial_sessions=300,
        leave_count=30,
        churn_window=5e-3,
        sample_interval=3e-3,
        horizon=120e-3,
        protocols=(BNECK, BFYZ),
        seed=0,
    ):
        unknown = set(protocols) - set(PROTOCOLS)
        if unknown:
            raise ValueError("unknown protocols %r" % sorted(unknown))
        # Either one out of range would give a sample list that never ends
        # (or, for a NaN horizon, is silently empty).
        for name, value in (("sample_interval", sample_interval), ("horizon", horizon)):
            if not 0 < value < math.inf:
                raise ValueError("%s must be positive and finite, got %r" % (name, value))
        self.size = size
        self.initial_sessions = initial_sessions
        self.leave_count = leave_count
        self.churn_window = churn_window
        self.sample_interval = sample_interval
        self.horizon = horizon
        self.protocols = tuple(protocols)
        self.seed = seed

    def sample_times(self):
        times = []
        current = self.sample_interval
        while current <= self.horizon + 1e-12:
            times.append(current)
            current += self.sample_interval
        return times

    def __repr__(self):
        return "Experiment3Config(size=%r, sessions=%d, protocols=%r)" % (
            self.size,
            self.initial_sessions,
            self.protocols,
        )


class ProtocolTimeSeries(object):
    """Everything Experiment 3 records about one protocol."""

    def __init__(self, name):
        self.name = name
        self.source_error_series = []   # [(time, SummaryStatistics)]
        self.link_error_series = []     # [(time, SummaryStatistics)]
        self.packets_series = []        # [(interval_start, packets)]
        self.total_packets = 0
        self.convergence_time = None
        self.quiescent = False

    def converged(self):
        return self.convergence_time is not None

    def __repr__(self):
        return (
            "ProtocolTimeSeries(%r, samples=%d, packets=%d, converged=%r, quiescent=%r)"
            % (
                self.name,
                len(self.source_error_series),
                self.total_packets,
                self.converged(),
                self.quiescent,
            )
        )


class Experiment3Result(object):
    """Per-protocol time series, over an identical workload."""

    def __init__(self, config, series_by_protocol):
        self.config = config
        self.series_by_protocol = series_by_protocol

    def series(self, name):
        return self.series_by_protocol[name]

    def protocol_names(self):
        return list(self.series_by_protocol)

    def __repr__(self):
        return "Experiment3Result(protocols=%r)" % (self.protocol_names(),)


def _run_one_protocol(name, config):
    """Run one protocol over the (re-generated, identical) workload."""
    spec = ScenarioSpec(
        size=config.size,
        delay_model=LAN,
        seed=config.seed,
        tracer_interval=config.sample_interval,
        protocol_factory=lambda network, tracer: PROTOCOLS[name](network, tracer=tracer),
    )
    with ExperimentRunner(spec, generator_seed=config.seed) as runner:
        return _drive_protocol(name, runner, config)


def _drive_protocol(name, runner, config):
    protocol, generator = runner.protocol, runner.generator

    joins = generator.generate(config.initial_sessions, join_window=(0.0, config.churn_window))
    installed = runner.apply_actions(joins)
    join_time_of = {join.session_id: join.at for join in joins}
    leavers = generator.pick_sessions(list(installed), config.leave_count)
    leaves = []
    for session_id in leavers:
        # A session can only leave after it has joined; its departure still
        # falls inside the churn window, as in the paper.
        earliest = join_time_of[session_id]
        when = generator.random_times(1, (earliest, config.churn_window))[0]
        leaves.append(LeaveAction(session_id, max(when, earliest)))
    runner.apply_actions(leaves)

    left = set(leavers)
    surviving = [session for session_id, session in installed.items() if session_id not in left]
    oracle = centralized_bneck(surviving)

    series = ProtocolTimeSeries(name)
    for sample_time in config.sample_times():
        runner.run_until(sample_time)
        assigned = protocol.current_allocation()
        source_errors = relative_errors(assigned, oracle)
        link_errors = bottleneck_link_errors(surviving, assigned, oracle)
        if source_errors:
            series.source_error_series.append((sample_time, error_summary(source_errors)))
        if link_errors:
            series.link_error_series.append((sample_time, error_summary(link_errors)))
    series.packets_series = runner.tracer.totals_per_interval()
    series.total_packets = runner.tracer.total
    series.convergence_time = convergence_time(series.source_error_series)
    series.quiescent = protocol.simulator.pending_events == 0
    return series


def run_experiment3(config=None, progress=None):
    """Run Experiment 3 for every configured protocol on the same workload."""
    config = config or Experiment3Config()
    series_by_protocol = {}
    for name in config.protocols:
        series = _run_one_protocol(name, config)
        series_by_protocol[name] = series
        if progress is not None:
            progress(series)
    return Experiment3Result(config, series_by_protocol)
