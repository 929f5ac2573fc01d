"""A gt-itm style transit-stub topology generator.

The paper's evaluation runs on three transit-stub topologies generated with
gt-itm ("a typical Internet transit-stub model"): 110 routers (Small), 1,100
routers (Medium) and 11,000 routers (Big), with

* 100 Mbps links between hosts and stub routers,
* 200 Mbps links between stub routers,
* 500 Mbps links between transit routers (and between transit and stub),

and two delay scenarios:

* **LAN** -- every link has a 1 microsecond propagation delay;
* **WAN** -- every router-to-router link gets a delay drawn uniformly from
  1 to 10 milliseconds, host links keep 1 microsecond.

This module reimplements that structure: a configurable number of transit
domains of interconnected transit routers, each transit router sponsoring a
number of stub domains, each stub domain being a small connected mesh of stub
routers.  The default Small/Medium/Big parameter sets are scaled down (about
110 / 330 / 1,100 routers) so that the Python benchmark harness completes in a
reasonable time; the generator accepts arbitrary sizes for users who want the
paper's full scale.
"""

import random

from repro.network.graph import Network
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds
from repro.simulator.random_source import fork_seed

LAN = "lan"
WAN = "wan"

TRANSIT_TIER = "transit"
STUB_TIER = "stub"

HOST_LINK_CAPACITY = 100 * MBPS
STUB_LINK_CAPACITY = 200 * MBPS
TRANSIT_LINK_CAPACITY = 500 * MBPS

HOST_LINK_DELAY = microseconds(1)
LAN_LINK_DELAY = microseconds(1)
WAN_MIN_DELAY = milliseconds(1)
WAN_MAX_DELAY = milliseconds(10)

# Probability of adding a redundant intra-domain edge beyond the connecting
# ring.
EXTRA_EDGE_PROBABILITY = 0.15


class TransitStubParameters(object):
    """Size parameters of a transit-stub topology.

    Attributes:
        transit_domains: number of transit domains.
        transit_routers_per_domain: routers inside each transit domain.
        stub_domains_per_transit_router: stub domains sponsored by each
            transit router.
        stub_routers_per_domain: routers inside each stub domain.
    """

    def __init__(
        self,
        transit_domains,
        transit_routers_per_domain,
        stub_domains_per_transit_router,
        stub_routers_per_domain,
    ):
        if min(
            transit_domains,
            transit_routers_per_domain,
            stub_domains_per_transit_router,
            stub_routers_per_domain,
        ) < 1:
            raise ValueError("all transit-stub size parameters must be >= 1")
        self.transit_domains = transit_domains
        self.transit_routers_per_domain = transit_routers_per_domain
        self.stub_domains_per_transit_router = stub_domains_per_transit_router
        self.stub_routers_per_domain = stub_routers_per_domain

    def total_routers(self):
        """Total number of routers the generator will create."""
        transit = self.transit_domains * self.transit_routers_per_domain
        stub = (
            transit
            * self.stub_domains_per_transit_router
            * self.stub_routers_per_domain
        )
        return transit + stub

    def __repr__(self):
        return (
            "TransitStubParameters(T=%d, Nt=%d, S=%d, Ns=%d, routers=%d)"
            % (
                self.transit_domains,
                self.transit_routers_per_domain,
                self.stub_domains_per_transit_router,
                self.stub_routers_per_domain,
                self.total_routers(),
            )
        )


# Default parameter sets.  The paper's Small network has 110 routers; Medium
# and Big are scaled down from 1,100 and 11,000 routers to keep pure-Python
# simulations tractable.  The paper's own sizes are the PAPER_* sets below.
SMALL_PARAMETERS = TransitStubParameters(1, 10, 2, 5)          # 110 routers
MEDIUM_PARAMETERS = TransitStubParameters(1, 11, 3, 9)         # 308 routers
BIG_PARAMETERS = TransitStubParameters(2, 11, 5, 9)            # 1,012 routers
PAPER_MEDIUM_PARAMETERS = TransitStubParameters(2, 10, 6, 9)   # 1,100 routers
PAPER_BIG_PARAMETERS = TransitStubParameters(4, 25, 12, 9)     # 10,900 routers


def _router_link_delay(scenario, delay_source):
    if scenario == LAN:
        return LAN_LINK_DELAY
    if scenario == WAN:
        return delay_source.uniform(WAN_MIN_DELAY, WAN_MAX_DELAY)
    raise ValueError("unknown scenario %r (expected %r or %r)" % (scenario, LAN, WAN))


def _connect_domain(network, members, capacity, scenario, structure_source, delay_source):
    """Connect ``members`` into a ring plus random chords (a connected mesh).

    Structural choices (which chords exist) and delay choices draw from two
    independent random streams, so the LAN and WAN flavours of a topology share
    the exact same link structure for a given seed -- only the delays differ,
    as in the paper's evaluation setup.
    """
    if len(members) == 1:
        return
    for index in range(len(members)):
        first = members[index]
        second = members[(index + 1) % len(members)]
        if len(members) == 2 and index == 1:
            break
        if not network.has_link(first, second):
            network.add_link(
                first, second, capacity, _router_link_delay(scenario, delay_source)
            )
    for first_index in range(len(members)):
        for second_index in range(first_index + 2, len(members)):
            first, second = members[first_index], members[second_index]
            if network.has_link(first, second):
                continue
            if structure_source.random() < EXTRA_EDGE_PROBABILITY:
                network.add_link(
                    first, second, capacity, _router_link_delay(scenario, delay_source)
                )


def generate_transit_stub(parameters, scenario=LAN, seed=0, name=None):
    """Generate a transit-stub network.

    Args:
        parameters: a :class:`TransitStubParameters` instance.
        scenario: ``"lan"`` or ``"wan"`` (delay model).
        seed: seed for the topology's random choices.
        name: optional network name.

    Returns:
        A connected :class:`~repro.network.graph.Network` whose routers carry a
        ``tier`` of either ``"transit"`` or ``"stub"``.
    """
    structure_source = random.Random(fork_seed(seed, "transit-stub"))
    delay_source = random.Random(fork_seed(seed, "transit-stub-delays"))
    if name is None:
        name = "transit-stub-%d-%s" % (parameters.total_routers(), scenario)
    network = Network(name)

    transit_by_domain = []
    for domain_index in range(parameters.transit_domains):
        members = []
        for router_index in range(parameters.transit_routers_per_domain):
            router_id = "t%d.%d" % (domain_index, router_index)
            network.add_router(router_id, tier=TRANSIT_TIER)
            members.append(router_id)
        _connect_domain(
            network,
            members,
            TRANSIT_LINK_CAPACITY,
            scenario,
            structure_source,
            delay_source,
        )
        transit_by_domain.append(members)

    # Interconnect transit domains: each domain links to the next one through a
    # randomly chosen pair of border routers (ring of domains).
    if parameters.transit_domains > 1:
        for domain_index in range(parameters.transit_domains):
            next_index = (domain_index + 1) % parameters.transit_domains
            if parameters.transit_domains == 2 and domain_index == 1:
                break
            first = structure_source.choice(transit_by_domain[domain_index])
            second = structure_source.choice(transit_by_domain[next_index])
            if not network.has_link(first, second):
                network.add_link(
                    first,
                    second,
                    TRANSIT_LINK_CAPACITY,
                    _router_link_delay(scenario, delay_source),
                )

    # Stub domains.
    for domain_index, members in enumerate(transit_by_domain):
        for router_index, transit_router in enumerate(members):
            for stub_index in range(parameters.stub_domains_per_transit_router):
                stub_members = []
                for node_index in range(parameters.stub_routers_per_domain):
                    router_id = "s%d.%d.%d.%d" % (
                        domain_index,
                        router_index,
                        stub_index,
                        node_index,
                    )
                    network.add_router(router_id, tier=STUB_TIER)
                    stub_members.append(router_id)
                _connect_domain(
                    network,
                    stub_members,
                    STUB_LINK_CAPACITY,
                    scenario,
                    structure_source,
                    delay_source,
                )
                gateway = structure_source.choice(stub_members)
                network.add_link(
                    transit_router,
                    gateway,
                    TRANSIT_LINK_CAPACITY,
                    _router_link_delay(scenario, delay_source),
                )
    return network


def small_network(scenario=LAN, seed=0):
    """The Small topology (about 110 routers), LAN or WAN scenario."""
    return generate_transit_stub(SMALL_PARAMETERS, scenario=scenario, seed=seed, name="small-%s" % scenario)


def medium_network(scenario=LAN, seed=0):
    """The Medium topology (scaled down to about 310 routers)."""
    return generate_transit_stub(MEDIUM_PARAMETERS, scenario=scenario, seed=seed, name="medium-%s" % scenario)


def big_network(scenario=LAN, seed=0):
    """The Big topology (scaled down to about 1,000 routers)."""
    return generate_transit_stub(BIG_PARAMETERS, scenario=scenario, seed=seed, name="big-%s" % scenario)


def stub_routers(network):
    """Return the ids of the stub routers (where hosts attach)."""
    return [node.node_id for node in network.routers() if node.tier == STUB_TIER]


def transit_routers(network):
    """Return the ids of the transit routers."""
    return [node.node_id for node in network.routers() if node.tier == TRANSIT_TIER]
