"""Figure 5 (left): time until quiescence vs. number of arriving sessions.

Regenerates the quiescence-time curves for the Small and Medium transit-stub
networks in both LAN and WAN scenarios (the Big network is exercised at a
single point to bound benchmark time).  The paper's qualitative findings that
this bench reproduces:

* for small session counts the time to quiescence is nearly negligible in the
  LAN scenario;
* once sessions interact, the time grows roughly linearly with the number of
  sessions;
* WAN times are dominated by propagation delay and are orders of magnitude
  larger than LAN times.
"""

from repro.experiments.experiment1 import (
    Experiment1Config,
    run_experiment1,
    run_experiment1_case,
)
from repro.experiments.reporting import format_experiment1_table

SWEEP_CONFIG = Experiment1Config(
    session_counts=(10, 50, 150, 400),
    sizes=("small", "medium"),
    delay_models=("lan", "wan"),
    seed=7,
)


def test_figure5_left_time_to_quiescence(benchmark, print_table):
    rows = benchmark.pedantic(run_experiment1, args=(SWEEP_CONFIG,), iterations=1, rounds=1)
    assert all(row.validated for row in rows)
    # LAN quiescence times must be far below WAN quiescence times at equal size.
    by_label = {}
    for row in rows:
        by_label.setdefault((row.scenario_label, row.session_count), row)
    for size in ("small", "medium"):
        for count in SWEEP_CONFIG.session_counts:
            lan = by_label[("%s-lan" % size, count)]
            wan = by_label[("%s-wan" % size, count)]
            assert lan.time_to_quiescence < wan.time_to_quiescence
    # Quiescence time grows with the number of sessions once they interact.
    for size in ("small", "medium"):
        first = by_label[("%s-lan" % size, SWEEP_CONFIG.session_counts[0])]
        last = by_label[("%s-lan" % size, SWEEP_CONFIG.session_counts[-1])]
        assert last.time_to_quiescence >= first.time_to_quiescence
    print_table(
        "Figure 5 (left) -- time until quiescence [ms] vs sessions",
        format_experiment1_table(rows),
    )


def test_figure5_left_big_network_single_point(benchmark, print_table):
    config = Experiment1Config(seed=7)
    row = benchmark.pedantic(
        run_experiment1_case, args=(("big", "lan"), 200, config), iterations=1, rounds=1
    )
    assert row.validated
    print_table(
        "Figure 5 (left) -- Big network, single point",
        format_experiment1_table([row]),
    )
