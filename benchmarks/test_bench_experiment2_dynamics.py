"""Figure 6: traffic details of B-Neck under a highly dynamic workload.

Five consecutive phases of churn (mass join, leave, rate change, join, mixed)
hit a Medium/LAN network; the bench reports the packets of each type per 5 ms
interval and the time each phase needs to become quiescent again.

Reproduced qualitative findings:

* B-Neck becomes quiescent again after every phase, whatever the kind of
  churn;
* the time to quiescence is of the same order of magnitude across phase kinds
  (the paper: 35-60 ms for 100,000 sessions; here, scaled down, a few ms);
* once quiescence is reached no packet at all is transmitted until the next
  phase starts.

``API.Rate`` reaches each session's application once per simulation instant,
the protocol's only delivery mode; it schedules no events, so it cannot
change the phase timings or the packet series reported here.
"""

from repro.experiments.experiment2 import Experiment2Config, run_experiment2
from repro.experiments.reporting import format_experiment2_table

CONFIG = Experiment2Config(
    size="medium",
    initial_sessions=400,
    churn_fraction=0.2,
    seed=3,
)


def test_figure6_dynamic_phases(benchmark, print_table):
    result = benchmark.pedantic(run_experiment2, args=(CONFIG,), iterations=1, rounds=1)
    assert result.validated

    durations = result.phase_durations()
    assert set(durations) == {"join", "leave", "change", "join2", "mixed"}
    # Every phase reaches quiescence again (finite, positive durations).
    for name, duration in durations.items():
        assert duration > 0.0
    # The paper's conclusion: the time to quiescence is nearly independent of
    # the kind of dynamics.  We allow an order of magnitude of slack between
    # the churn-only phases (leave/change/join2/mixed).
    churn_durations = [durations[name] for name in ("leave", "change", "join2", "mixed")]
    assert max(churn_durations) <= 10 * min(churn_durations)
    # Phases produce packets; the series accounts for all of them.
    assert result.total_packets() > 0

    print_table(
        "Figure 6 -- packets per type per 5 ms interval, and per-phase quiescence",
        format_experiment2_table(result),
    )
