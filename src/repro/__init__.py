"""Reproduction of *B-Neck: A Distributed and Quiescent Max-min Fair Algorithm*.

Mozo, Lopez-Presa, Fernandez Anta (IEEE NCA 2011).

The library is organised as one package per system of the paper:

* :mod:`repro.simulator` -- discrete-event simulation engine;
* :mod:`repro.network` -- network graph, routing, sessions, topologies;
* :mod:`repro.fairness` -- max-min fairness theory (water-filling, bottleneck
  analysis, verification);
* :mod:`repro.core` -- the B-Neck protocol (distributed and centralized);
* :mod:`repro.baselines` -- non-quiescent comparison protocols (BFYZ, CG, RCP);
* :mod:`repro.workloads` -- session workload and dynamics generators;
* :mod:`repro.experiments` -- the paper's Experiments 1-3 and their metrics.

Quickstart::

    from repro import BNeckProtocol, dumbbell_topology, MBPS
    from repro.core import JoinAction

    network = dumbbell_topology(side_count=2, bottleneck_capacity=100 * MBPS)
    protocol = BNeckProtocol(network)
    # Session "a" joins at time 0 between two fresh hosts, one attached to
    # router west0 and one to east0, over 1000 Mbps, 1 us access links.
    protocol.apply_actions(
        [JoinAction("a", "west0", "east0", float("inf"), 0.0, 1000 * MBPS, 1e-6)]
    )
    protocol.run_until_quiescent()
    print(protocol.application("a").current_rate)
"""

from repro.core import BNeckProtocol, centralized_bneck, validate_against_oracle
from repro.fairness import RateAllocation, is_max_min_fair, water_filling
from repro.network import (
    MBPS,
    Network,
    Session,
    dumbbell_topology,
    line_topology,
    medium_network,
    parking_lot_topology,
    small_network,
    star_topology,
)
from repro.simulator import Simulator, microseconds, milliseconds

__version__ = "1.0.0"

__all__ = [
    "BNeckProtocol",
    "MBPS",
    "Network",
    "RateAllocation",
    "Session",
    "Simulator",
    "__version__",
    "centralized_bneck",
    "dumbbell_topology",
    "is_max_min_fair",
    "line_topology",
    "medium_network",
    "microseconds",
    "milliseconds",
    "parking_lot_topology",
    "small_network",
    "star_topology",
    "validate_against_oracle",
    "water_filling",
]
