"""Network model substrate.

This package models the system of Section II of the paper: a directed graph of
routers and hosts connected by links with individual bandwidths and propagation
delays, single-path sessions between a source host and a destination host, and
the topology generators used by the evaluation (a gt-itm-style transit-stub
generator plus a collection of small synthetic topologies used by the tests and
examples).
"""

from repro.network.graph import Link, Network, Node
from repro.network.routing import PathComputer, shortest_path
from repro.network.session import Session, SessionRegistry
from repro.network.topology import (
    dumbbell_topology,
    line_topology,
    parking_lot_topology,
    random_mesh_topology,
    single_link_topology,
    star_topology,
    tree_topology,
)
from repro.network.transit_stub import (
    TransitStubParameters,
    big_network,
    generate_transit_stub,
    medium_network,
    small_network,
)
from repro.network.units import GBPS, KBPS, MBPS

__all__ = [
    "GBPS",
    "KBPS",
    "Link",
    "MBPS",
    "Network",
    "Node",
    "PathComputer",
    "Session",
    "SessionRegistry",
    "TransitStubParameters",
    "big_network",
    "dumbbell_topology",
    "generate_transit_stub",
    "line_topology",
    "medium_network",
    "parking_lot_topology",
    "random_mesh_topology",
    "shortest_path",
    "single_link_topology",
    "small_network",
    "star_topology",
    "tree_topology",
]
