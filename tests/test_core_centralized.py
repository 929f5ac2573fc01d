"""Unit tests for Centralized B-Neck (Figure 1)."""

import fractions
import math

import pytest

from repro.core.centralized import centralized_bneck
from repro.fairness.allocation import OracleError
from repro.fairness.verification import is_max_min_fair
from repro.fairness.waterfilling import water_filling
from repro.network.transit_stub import small_network, stub_routers
from repro.network.units import MBPS
from repro.simulator.random_source import RandomSource
from tests.conftest import exact_single_link_sessions, make_session


def test_empty_input():
    assert len(centralized_bneck([])) == 0


class _Unbounded(object):
    """A session that crosses no link and has no demand: no oracle can bound
    its rate."""

    session_id = "loose"
    links = []

    def effective_demand(self):
        return math.inf


@pytest.mark.parametrize("oracle, name", [
    (centralized_bneck, "centralized B-Neck"),
    (water_filling, "water-filling"),
])
def test_an_unbounded_session_is_named_with_its_oracle(single_link_network, oracle, name):
    bounded = make_session(single_link_network, "s0", "r0", "r1")
    with pytest.raises(OracleError) as failure:
        oracle([bounded, _Unbounded()])
    assert failure.value.oracle == name
    assert failure.value.session_ids == ["loose"]


def test_single_bottleneck_even_split(single_link_network):
    sessions = [make_session(single_link_network, "s%d" % i, "r0", "r1") for i in range(4)]
    allocation = centralized_bneck(sessions)
    for session in sessions:
        assert allocation.rate(session.session_id) == pytest.approx(25 * MBPS)


def test_demands_create_virtual_bottlenecks(single_link_network):
    sessions = [
        make_session(single_link_network, "greedy", "r0", "r1"),
        make_session(single_link_network, "capped", "r0", "r1", demand=10 * MBPS),
    ]
    allocation = centralized_bneck(sessions)
    assert allocation.rate("capped") == pytest.approx(10 * MBPS)
    assert allocation.rate("greedy") == pytest.approx(90 * MBPS)


def test_parking_lot_case(parking_lot_network):
    sessions = [
        make_session(parking_lot_network, "long", "r0", "r3"),
        make_session(parking_lot_network, "shortA", "r0", "r1"),
        make_session(parking_lot_network, "shortB", "r0", "r1"),
        make_session(parking_lot_network, "shortC", "r1", "r2"),
    ]
    allocation = centralized_bneck(sessions)
    third = 100 * MBPS / 3.0
    assert allocation.rate("long") == pytest.approx(third)
    assert allocation.rate("shortC") == pytest.approx(100 * MBPS - third)


def test_bottlenecks_discovered_in_increasing_rate_order(dumbbell_network):
    # The bottleneck link (100 Mbps shared by 3 sessions) must be discovered
    # before the edge links, giving the cross sessions a lower rate than the
    # local one.
    sessions = [
        make_session(dumbbell_network, "cross%d" % index, "west%d" % index, "east%d" % index)
        for index in range(3)
    ]
    sessions.append(make_session(dumbbell_network, "local", "west0", "west1"))
    allocation = centralized_bneck(sessions)
    for index in range(3):
        assert allocation.rate("cross%d" % index) == pytest.approx(100 * MBPS / 3.0)
    assert allocation.rate("local") > allocation.rate("cross0")


def test_agrees_with_water_filling_on_structured_topologies(star_network):
    random_source = RandomSource(5)
    leaves = ["leaf%d" % index for index in range(4)]
    sessions = []
    for index in range(12):
        source, sink = random_source.pair(leaves)
        demand = math.inf if random_source.random() < 0.5 else random_source.uniform(1 * MBPS, 60 * MBPS)
        sessions.append(make_session(star_network, "s%d" % index, source, sink, demand=demand))
    centralized = centralized_bneck(sessions)
    filled = water_filling(sessions)
    assert centralized.equals(filled)
    assert is_max_min_fair(sessions, centralized)


def test_agrees_with_water_filling_on_transit_stub():
    network = small_network("lan", seed=13)
    stubs = stub_routers(network)
    random_source = RandomSource(17)
    sessions = []
    for index in range(60):
        source, sink = random_source.pair(stubs)
        demand = math.inf if index % 2 else random_source.uniform(1 * MBPS, 80 * MBPS)
        sessions.append(
            make_session(network, "s%d" % index, source, sink, demand=demand, capacity=100 * MBPS)
        )
    centralized = centralized_bneck(sessions)
    filled = water_filling(sessions)
    assert centralized.equals(filled)
    assert is_max_min_fair(sessions, centralized)


def test_fraction_inputs_give_exact_thirds():
    sessions = exact_single_link_sessions([math.inf] * 3)
    allocation = centralized_bneck(sessions)
    for index in range(3):
        rate = allocation.rate("s%d" % index)
        assert isinstance(rate, fractions.Fraction)
        assert rate == fractions.Fraction(100 * 10**6, 3)
    assert is_max_min_fair(sessions, allocation)


def test_fraction_inputs_stay_exact_through_a_demand_link():
    seventh = fractions.Fraction(100 * 10**6, 7)
    sessions = exact_single_link_sessions([seventh] + [math.inf] * 3)
    allocation = centralized_bneck(sessions)
    assert allocation.rate("s0") == seventh
    for index in range(1, 4):
        assert allocation.rate("s%d" % index) == 2 * seventh
    assert allocation.equals(water_filling(sessions))


def test_every_session_gets_a_rate(dumbbell_network):
    sessions = [
        make_session(dumbbell_network, "a", "west0", "east1"),
        make_session(dumbbell_network, "b", "west1", "east2", demand=5 * MBPS),
        make_session(dumbbell_network, "c", "west2", "east0"),
    ]
    allocation = centralized_bneck(sessions)
    assert set(allocation.session_ids()) == {"a", "b", "c"}
    assert allocation.is_feasible(sessions)
