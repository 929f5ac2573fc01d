"""Stochastic-scenario benchmarks: sustained open-loop churn.

The fast tier times the Poisson-churn scenario (Poisson arrivals with
exponential holding times, emitted as action batches) on the
Medium transit-stub network and is guarded against regressions by
``benchmarks/baseline.json`` (see ``scripts/check_bench_regression.py``).
The ``slow_bench`` tier runs a paper-medium sustained-churn case -- many
consecutive open-loop segments, every quiescence point validated against the
centralized/water-filling oracles -- in the nightly/manual CI job.
"""

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.workloads.stochastic import PoissonChurnWorkload


def _run_poisson(size, seed, workload, trace_packets=True, notification_log=None):
    spec = ScenarioSpec(
        size=size,
        delay_model="lan",
        seed=seed,
        trace_packets=trace_packets,
        notification_log=notification_log,
    )
    with ExperimentRunner(spec) as runner:
        measurements = runner.run_scenario(workload)
        return {
            "measurements": measurements,
            "events": runner.protocol.simulator.events_processed,
            "packets": runner.tracer.total,
            "active": len(runner.active_ids),
            "allocation": runner.protocol.current_allocation().as_dict(),
        }


def test_poisson_churn_sustained(benchmark, print_table):
    """Fast tier: three sustained Poisson-churn segments on Medium (LAN)."""
    workload = PoissonChurnWorkload(
        arrival_rate=25000.0, mean_holding=6e-3, horizon=10e-3, segments=3
    )

    def run():
        return _run_poisson("medium", seed=17, workload=workload)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    measurements = result["measurements"]
    assert all(measurement.validated for measurement in measurements)
    assert result["active"] > 0
    print_table(
        "Poisson churn -- Medium LAN, %d segments" % len(measurements),
        format_table(
            ("segment", "quiescent at [ms]", "packets", "active sessions"),
            [
                (
                    measurement.description,
                    measurement.quiescence_time * 1e3,
                    measurement.packets,
                    result["active"],
                )
                for measurement in measurements
            ],
        ),
    )


@pytest.mark.slow_bench
def test_paper_medium_sustained_churn(print_table):
    """Nightly tier: sustained open-loop churn on the paper's full Medium.

    Six consecutive Poisson segments keep a large session population in
    steady churn (the open-loop regime Experiment 2's one-shot bursts never
    reach); every segment boundary is a validated quiescence point.
    """
    workload = PoissonChurnWorkload(
        arrival_rate=40000.0, mean_holding=8e-3, horizon=10e-3, segments=6
    )
    result = _run_poisson(
        "paper-medium",
        seed=3,
        workload=workload,
        trace_packets=False,
        notification_log="ring",
    )
    measurements = result["measurements"]
    assert len(measurements) == 6
    assert all(measurement.validated for measurement in measurements)
    assert result["active"] > 100
    print_table(
        "Paper-medium sustained Poisson churn (%d segments)" % len(measurements),
        format_table(
            ("segment", "quiescent at [ms]", "events"),
            [
                (
                    measurement.description,
                    measurement.quiescence_time * 1e3,
                    measurement.events_processed,
                )
                for measurement in measurements
            ],
        ),
    )
