"""Full Experiment 1 sweep (Figure 5), at a user-selected scale.

By default this reproduces the scaled-down sweep used by the benchmark harness
(Small/Medium/Big networks, LAN and WAN, 10..1,000 sessions).  Users with time
to spare can raise the session counts and switch to the paper's full-size
Medium/Big topologies::

    python examples/experiment1_sweep.py --sizes small medium big --counts 10 100 1000 3000
    python examples/experiment1_sweep.py --sizes paper-medium --counts 100 1000

Every run is validated against the centralized oracle; the script exits with a
non-zero status if any validation fails.
"""

import argparse
import sys

from repro.experiments.experiment1 import Experiment1Config, run_experiment1
from repro.experiments.reporting import format_experiment1_table
from repro.workloads.scenarios import NETWORK_SIZES


def parse_arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--counts",
        type=int,
        nargs="+",
        default=[10, 30, 100, 300, 1000],
        help="numbers of sessions to sweep",
    )
    parser.add_argument(
        "--sizes",
        nargs="+",
        default=["small", "medium", "big"],
        choices=sorted(NETWORK_SIZES),
        help="network sizes to sweep",
    )
    parser.add_argument(
        "--delay-models",
        nargs="+",
        default=["lan", "wan"],
        choices=["lan", "wan"],
        help="delay scenarios to sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None):
    arguments = parse_arguments(argv)
    config = Experiment1Config(
        session_counts=tuple(arguments.counts),
        sizes=tuple(arguments.sizes),
        delay_models=tuple(arguments.delay_models),
        seed=arguments.seed,
    )
    rows = run_experiment1(config, progress=lambda row: print("finished %r" % row))
    print()
    print(format_experiment1_table(rows))
    if not all(row.validated for row in rows):
        print("ERROR: some runs did not match the centralized oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
