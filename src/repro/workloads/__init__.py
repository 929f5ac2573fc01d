"""Workload generation: networks, session populations and dynamics.

The evaluation of the paper is driven by three ingredients, which this package
provides as reusable building blocks:

* :mod:`~repro.workloads.scenarios` -- the Small/Medium/Big transit-stub
  networks in their LAN and WAN flavours;
* :mod:`~repro.workloads.generator` -- populations of sessions with random
  endpoints (uniform over stub routers), random demands and random join times
  inside a window;
* :mod:`~repro.workloads.dynamics` -- phases of joins, leaves and rate changes
  (the churn patterns of Experiments 2 and 3);
* :mod:`~repro.workloads.stochastic` -- open-loop stochastic scenarios
  (Poisson churn, flash crowds, heavy-tailed demand storms, link-capacity
  dynamics), emitted as action batches that a seed pins exactly.
"""

from repro.workloads.dynamics import DynamicPhase, PhaseOutcome, apply_phase
from repro.workloads.generator import (
    SessionSpec,
    WorkloadGenerator,
    infinite_demand,
    mixed_demand,
    uniform_demand,
)
from repro.network.transit_stub import HOST_LINK_CAPACITY, HOST_LINK_DELAY
from repro.workloads.scenarios import (
    NETWORK_SIZES,
    NetworkScenario,
    build_network,
)
from repro.workloads.stochastic import (
    WORKLOADS,
    CapacityDynamicsWorkload,
    FlashCrowdWorkload,
    HeavyTailedDemandWorkload,
    PoissonChurnWorkload,
    StochasticWorkload,
    make_workload,
    register_workload,
)

__all__ = [
    "CapacityDynamicsWorkload",
    "DynamicPhase",
    "FlashCrowdWorkload",
    "HeavyTailedDemandWorkload",
    "HOST_LINK_CAPACITY",
    "HOST_LINK_DELAY",
    "NETWORK_SIZES",
    "NetworkScenario",
    "PhaseOutcome",
    "PoissonChurnWorkload",
    "SessionSpec",
    "StochasticWorkload",
    "WORKLOADS",
    "WorkloadGenerator",
    "apply_phase",
    "build_network",
    "infinite_demand",
    "make_workload",
    "mixed_demand",
    "register_workload",
    "uniform_demand",
]
