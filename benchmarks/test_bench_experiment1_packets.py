"""Figure 5 (right): total control packets vs. number of arriving sessions.

The paper's qualitative findings reproduced here:

* the number of packets grows roughly linearly with the number of sessions;
* each LAN scenario produces more packets than the corresponding WAN scenario
  (WAN probe cycles are slower, so fewer of them are wasted on transient
  configurations), with the gap below one order of magnitude;
* B-Neck stays at a moderate number of packets per session.
"""

from repro.experiments.experiment1 import Experiment1Config, run_experiment1
from repro.experiments.reporting import format_experiment1_table

SWEEP_CONFIG = Experiment1Config(
    session_counts=(10, 50, 150, 400),
    sizes=("small", "medium"),
    delay_models=("lan", "wan"),
    seed=11,
)


def test_figure5_right_packet_counts(benchmark, print_table):
    rows = benchmark.pedantic(run_experiment1, args=(SWEEP_CONFIG,), iterations=1, rounds=1)
    assert all(row.validated for row in rows)

    by_label = {}
    for row in rows:
        by_label[(row.label, row.sessions)] = row

    counts = SWEEP_CONFIG.session_counts
    for size in ("small", "medium"):
        for delay_model in ("lan", "wan"):
            label = "%s-%s" % (size, delay_model)
            # Roughly linear growth: more sessions, more packets.
            packet_series = [by_label[(label, count)].total_packets for count in counts]
            assert packet_series == sorted(packet_series)
        # LAN produces more packets than WAN for the same size and count, but
        # within one order of magnitude (paper, Section IV, Experiment 1).
        for count in counts[1:]:
            lan_packets = by_label[("%s-lan" % size, count)].total_packets
            wan_packets = by_label[("%s-wan" % size, count)].total_packets
            assert lan_packets >= wan_packets
            assert lan_packets <= 10 * wan_packets

    print_table(
        "Figure 5 (right) -- total control packets vs sessions",
        format_experiment1_table(rows),
    )
