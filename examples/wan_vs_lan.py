"""LAN vs WAN: how propagation delays shape B-Neck's convergence.

Runs the same mass-arrival workload (Experiment 1 style) on the Small
transit-stub network configured as a LAN (1 microsecond links) and as a WAN
(1-10 ms router links), and reports time to quiescence, control packets and
packets per session for a few population sizes.

The paper's observations that this example lets you reproduce interactively:

* LAN quiescence times are nearly negligible until sessions start interacting;
* WAN quiescence times are dominated by probe-cycle round trips (tens of ms);
* the LAN scenario transmits more packets than the WAN scenario because its
  fast probe cycles react to more transient configurations.

Run with::

    python examples/wan_vs_lan.py [session counts ...]
"""

import sys

from repro.experiments.experiment1 import Experiment1Config, run_experiment1
from repro.experiments.reporting import format_experiment1_table


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    counts = tuple(int(value) for value in argv) if argv else (10, 50, 150)
    config = Experiment1Config(
        session_counts=counts,
        sizes=("small",),
        delay_models=("lan", "wan"),
        seed=17,
    )
    rows = run_experiment1(config, progress=lambda row: print("finished %r" % (row,)))
    print()
    print(format_experiment1_table(rows))
    print()
    lan_rows = [row for row in rows if row.label.endswith("lan")]
    wan_rows = [row for row in rows if row.label.endswith("wan")]
    for lan_row, wan_row in zip(lan_rows, wan_rows):
        ratio = wan_row.quiescence_time / max(lan_row.quiescence_time, 1e-12)
        print(
            "%4d sessions: WAN takes %.0fx longer to become quiescent, "
            "LAN sends %.1fx the packets"
            % (
                lan_row.sessions,
                ratio,
                lan_row.total_packets / max(wan_row.total_packets, 1),
            )
        )


if __name__ == "__main__":
    main()
