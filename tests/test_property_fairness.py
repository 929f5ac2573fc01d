"""Property-based tests (hypothesis) for the max-min fairness substrate.

These tests generate random small networks and session populations and check
the library's core invariants:

* the two independent oracles (water-filling and Centralized B-Neck) always
  agree;
* their output always satisfies the bottleneck characterization of max-min
  fairness and never overloads a link;
* classic monotonicity properties of max-min fairness (scaling capacities,
  adding sessions) hold.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.centralized import centralized_bneck
from repro.fairness.verification import is_max_min_fair, verify_allocation
from repro.fairness.waterfilling import water_filling
from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links
from repro.network.session import Session
from repro.network.units import MBPS
from repro.simulator.clock import microseconds

CAPACITY_CHOICES = [10 * MBPS, 50 * MBPS, 100 * MBPS, 200 * MBPS]
DEMAND_CHOICES = [math.inf, 5 * MBPS, 20 * MBPS, 80 * MBPS, 150 * MBPS]


@st.composite
def random_workload(draw, max_routers=6, max_sessions=8):
    """A random connected router chain/mesh plus a random session population."""
    router_count = draw(st.integers(min_value=2, max_value=max_routers))
    capacities = draw(
        st.lists(
            st.sampled_from(CAPACITY_CHOICES),
            min_size=router_count - 1,
            max_size=router_count - 1,
        )
    )
    extra_edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, router_count - 1),
                st.integers(0, router_count - 1),
                st.sampled_from(CAPACITY_CHOICES),
            ),
            max_size=3,
        )
    )

    network = Network("property")
    for index in range(router_count):
        network.add_router("r%d" % index)
    for index, capacity in enumerate(capacities):
        network.add_link("r%d" % index, "r%d" % (index + 1), capacity, microseconds(1))
    for first, second, capacity in extra_edges:
        if first == second:
            continue
        if network.has_link("r%d" % first, "r%d" % second):
            continue
        network.add_link("r%d" % first, "r%d" % second, capacity, microseconds(1))

    session_count = draw(st.integers(min_value=1, max_value=max_sessions))
    endpoints = draw(
        st.lists(
            st.tuples(
                st.integers(0, router_count - 1),
                st.integers(0, router_count - 1),
                st.sampled_from(DEMAND_CHOICES),
            ),
            min_size=session_count,
            max_size=session_count,
        )
    )
    computer = PathComputer(network)
    sessions = []
    for index, (source_index, sink_index, demand) in enumerate(endpoints):
        if source_index == sink_index:
            sink_index = (sink_index + 1) % router_count
        source_host = network.attach_host("r%d" % source_index, 1000 * MBPS, microseconds(1))
        sink_host = network.attach_host("r%d" % sink_index, 1000 * MBPS, microseconds(1))
        router_path = computer.router_route("r%d" % source_index, "r%d" % sink_index)
        node_path = [source_host.node_id] + router_path + [sink_host.node_id]
        links = path_links(network, node_path)
        sessions.append(
            Session("p%d" % index, source_host.node_id, sink_host.node_id, node_path, links, demand)
        )
    return network, sessions


@settings(max_examples=60, deadline=None)
@given(random_workload())
def test_oracles_agree_and_are_max_min_fair(workload):
    _, sessions = workload
    filled = water_filling(sessions)
    centralized = centralized_bneck(sessions)
    assert filled.equals(centralized)
    assert verify_allocation(sessions, filled) == []
    assert verify_allocation(sessions, centralized) == []
    assert filled.is_feasible(sessions)


@settings(max_examples=40, deadline=None)
@given(random_workload())
def test_rates_never_exceed_demand_or_access_capacity(workload):
    _, sessions = workload
    allocation = water_filling(sessions)
    for session in sessions:
        rate = allocation.rate(session.session_id)
        assert rate <= session.effective_demand() * (1 + 1e-9)
        assert rate > 0


@settings(max_examples=40, deadline=None)
@given(random_workload(), st.sampled_from([2.0, 3.0, 0.5]))
def test_scaling_capacities_scales_unbounded_rates(workload, factor):
    network, sessions = workload
    # Restrict to unbounded sessions: demand caps do not scale with capacity.
    unbounded = [session for session in sessions if math.isinf(session.demand)]
    if not unbounded:
        return
    base = water_filling(unbounded)

    scaled_sessions = []
    scaled_links = {}
    for session in unbounded:
        links = []
        for link in session.links:
            key = link.endpoints
            if key not in scaled_links:
                from repro.network.graph import Link

                scaled_links[key] = Link(
                    link.source, link.target, link.capacity * factor, link.propagation_delay
                )
            links.append(scaled_links[key])
        scaled_sessions.append(
            Session(session.session_id, session.source, session.destination,
                    session.node_path, links, session.demand)
        )
    scaled = water_filling(scaled_sessions)
    for session in unbounded:
        assert scaled.rate(session.session_id) == \
            __import__("pytest").approx(base.rate(session.session_id) * factor, rel=1e-6)


# Note: max-min fairness is NOT monotone under adding/removing individual
# sessions (removing one session can let a second grow until it saturates a
# different link and squeezes a third), so no such "monotonicity" property is
# asserted here.  The properties below are actual theorems.


@settings(max_examples=40, deadline=None)
@given(random_workload(max_sessions=6), st.randoms(use_true_random=False))
def test_allocation_is_independent_of_session_order(workload, rng):
    # The max-min fair allocation is unique, so the order in which sessions are
    # fed to the algorithms must not matter.
    _, sessions = workload
    shuffled = list(sessions)
    rng.shuffle(shuffled)
    assert water_filling(sessions).equals(water_filling(shuffled))
    assert centralized_bneck(sessions).equals(centralized_bneck(shuffled))


@settings(max_examples=40, deadline=None)
@given(random_workload(max_sessions=6))
def test_max_min_maximizes_the_minimum_rate(workload):
    # The max-min fair allocation maximizes the smallest rate over all feasible
    # allocations; in particular its minimum is at least the minimum of the
    # always-feasible "equal share of every crossed link" allocation.
    _, sessions = workload
    allocation = water_filling(sessions)
    crossing_counts = {}
    for session in sessions:
        for link in session.links:
            crossing_counts[link.endpoints] = crossing_counts.get(link.endpoints, 0) + 1
    equal_share_minimum = min(
        min(
            min(link.capacity / crossing_counts[link.endpoints] for link in session.links),
            session.effective_demand(),
        )
        for session in sessions
    )
    max_min_minimum = min(allocation.rate(session.session_id) for session in sessions)
    assert max_min_minimum >= equal_share_minimum * (1 - 1e-9)
    assert is_max_min_fair(sessions, allocation)
