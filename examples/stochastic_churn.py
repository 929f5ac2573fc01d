"""Stochastic scenario walkthrough: open-loop churn, validated round by round.

Runs one of the stochastic workloads from :mod:`repro.workloads.stochastic`
through the shared :class:`~repro.experiments.runner.ExperimentRunner` entry
point and prints one row per round (quiescence time, control packets,
``API.Rate`` callbacks, oracle validation):

* ``poisson-churn`` -- Poisson session arrivals with exponential holding
  times (sustained open-loop churn; the population climbs toward the
  M/M/inf steady state);
* ``flash-crowd`` -- a burst of correlated joins whose destinations all land
  in one stub-domain subtree, then drains away;
* ``heavy-tailed-demand`` -- storms of rate changes with Pareto-distributed
  new demands;
* ``capacity-dynamics`` -- deep link-capacity cuts and a final restore, each
  validated against the water-filling oracle on the updated network.

Every scenario is resolved into action batches up front, so the same seed
replays bit-identically::

    python examples/stochastic_churn.py --workload poisson-churn
    python examples/stochastic_churn.py --workload capacity-dynamics --seed 13
    python examples/stochastic_churn.py --workload flash-crowd --size medium

The script exits non-zero if any round fails oracle validation.
"""

import argparse
import sys

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.workloads.scenarios import NETWORK_SIZES
from repro.workloads.stochastic import WORKLOADS


def parse_arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload",
        default="poisson-churn",
        choices=sorted(WORKLOADS),
        help="stochastic scenario to run (default: poisson-churn)",
    )
    parser.add_argument(
        "--size",
        default="small",
        choices=sorted(NETWORK_SIZES),
        help="transit-stub topology size",
    )
    parser.add_argument(
        "--delay-model", default="lan", choices=["lan", "wan"], help="delay scenario"
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args(argv)


def main(argv=None):
    arguments = parse_arguments(argv)
    spec = ScenarioSpec(
        size=arguments.size,
        delay_model=arguments.delay_model,
        seed=arguments.seed,
        workload=arguments.workload,
    )
    with ExperimentRunner(spec) as runner:
        try:
            measurements = runner.run_scenario()
        except RuntimeError as error:
            # run_scenario fails fast on the first round whose allocation
            # diverges from the oracles.
            print("ERROR: %s" % error, file=sys.stderr)
            return 1
        rows = [
            (
                measurement.description,
                measurement.quiescence_time * 1e3,
                measurement.packets,
                measurement.rate_callbacks,
                "yes" if measurement.validated else "NO",
            )
            for measurement in measurements
        ]
        print(
            format_table(
                ("round", "quiescent at [ms]", "packets", "API.Rate", "validated"),
                rows,
            )
        )
        print(
            "%d sessions active at the end; %d control packets total"
            % (len(runner.active_ids), runner.tracer.total)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
