"""Small synthetic topologies.

These builders produce the classic textbook configurations used by the unit
tests, the examples and the ablation benchmarks: a single shared link, the
parking-lot / line topology whose max-min allocation is the canonical
water-filling example, stars and dumbbells.

Every builder returns a :class:`~repro.network.graph.Network` containing only
routers; hosts are attached per session by the workload generator (or manually
through :meth:`Network.attach_host`).
"""

from repro.network.graph import Network
from repro.network.units import MBPS
from repro.simulator.clock import microseconds

DEFAULT_CAPACITY = 100 * MBPS
DEFAULT_DELAY = microseconds(1)


def single_link_topology(capacity=DEFAULT_CAPACITY, delay=DEFAULT_DELAY):
    """Two routers joined by one (bidirectional) link."""
    network = Network("single-link")
    network.add_router("r0")
    network.add_router("r1")
    network.add_link("r0", "r1", capacity, delay)
    return network


def line_topology(router_count, capacity=DEFAULT_CAPACITY, delay=DEFAULT_DELAY):
    """A chain of routers ``r0 - r1 - ... - r{n-1}``."""
    if router_count < 2:
        raise ValueError("a line needs at least two routers")
    network = Network("line-%d" % router_count)
    for index in range(router_count):
        network.add_router("r%d" % index)
    for index in range(router_count - 1):
        network.add_link("r%d" % index, "r%d" % (index + 1), capacity, delay)
    return network


def parking_lot_topology(hop_count, capacity=DEFAULT_CAPACITY):
    """The parking-lot topology: ``hop_count`` links in a row.

    With one long session crossing every link and one short session per link,
    the max-min fair allocation is the standard example used to validate
    water-filling implementations.
    """
    return line_topology(hop_count + 1, capacity=capacity)


def star_topology(leaf_count, capacity=DEFAULT_CAPACITY):
    """A hub router connected to ``leaf_count`` leaf routers."""
    if leaf_count < 1:
        raise ValueError("a star needs at least one leaf")
    network = Network("star-%d" % leaf_count)
    network.add_router("hub")
    for index in range(leaf_count):
        leaf = "leaf%d" % index
        network.add_router(leaf)
        network.add_link("hub", leaf, capacity, DEFAULT_DELAY)
    return network


def dumbbell_topology(
    side_count,
    bottleneck_capacity=DEFAULT_CAPACITY,
    edge_capacity=None,
    delay=DEFAULT_DELAY,
):
    """The dumbbell: ``side_count`` edge routers on each side of one bottleneck.

    The two central routers ``left`` and ``right`` are joined by the bottleneck
    link; every edge router connects to its central router with a (faster)
    edge link.
    """
    if side_count < 1:
        raise ValueError("a dumbbell needs at least one edge router per side")
    if edge_capacity is None:
        edge_capacity = 10 * bottleneck_capacity
    network = Network("dumbbell-%d" % side_count)
    network.add_router("left")
    network.add_router("right")
    network.add_link("left", "right", bottleneck_capacity, delay)
    for index in range(side_count):
        west = "west%d" % index
        east = "east%d" % index
        network.add_router(west)
        network.add_router(east)
        network.add_link(west, "left", edge_capacity, delay)
        network.add_link("right", east, edge_capacity, delay)
    return network
