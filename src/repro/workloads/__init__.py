"""Workload generation: networks, session populations and dynamics.

The evaluation of the paper is driven by three ingredients, which this package
provides as reusable building blocks:

* :mod:`~repro.workloads.scenarios` -- the Small/Medium/Big transit-stub
  networks in their LAN and WAN flavours, built by size, delay model and
  seed (:func:`~repro.workloads.scenarios.build_network`);
* :mod:`~repro.workloads.generator` -- populations of sessions with random
  endpoints (uniform over stub routers), random demands and random join times
  inside a window;
* :mod:`~repro.workloads.stochastic` -- workloads emitted as rounds of
  action batches that a seed pins exactly: Experiment 2's phases of joins,
  leaves and rate changes, and open-loop stochastic scenarios (Poisson
  churn, flash crowds, heavy-tailed demand storms, link-capacity dynamics),
  listed by name in :data:`~repro.workloads.stochastic.WORKLOADS`.

Every workload is driven by
:meth:`repro.experiments.runner.ExperimentRunner.run_scenario`, which takes
one workload instance.
"""

from repro.workloads.generator import (
    WorkloadGenerator,
    infinite_demand,
    mixed_demand,
    uniform_demand,
)
from repro.network.transit_stub import HOST_LINK_CAPACITY, HOST_LINK_DELAY
from repro.workloads.scenarios import (
    NETWORK_SIZES,
    build_network,
)
from repro.workloads.stochastic import (
    WORKLOADS,
    CapacityDynamicsWorkload,
    DynamicPhase,
    FlashCrowdWorkload,
    HeavyTailedDemandWorkload,
    PhaseChurnWorkload,
    PoissonChurnWorkload,
    StochasticWorkload,
)

__all__ = [
    "CapacityDynamicsWorkload",
    "DynamicPhase",
    "FlashCrowdWorkload",
    "HeavyTailedDemandWorkload",
    "HOST_LINK_CAPACITY",
    "HOST_LINK_DELAY",
    "NETWORK_SIZES",
    "PhaseChurnWorkload",
    "PoissonChurnWorkload",
    "StochasticWorkload",
    "WORKLOADS",
    "WorkloadGenerator",
    "build_network",
    "infinite_demand",
    "mixed_demand",
    "uniform_demand",
]
