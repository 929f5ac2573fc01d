"""Unit tests for the classic water-filling oracle."""

import fractions
import math

import pytest

from repro.fairness.verification import is_max_min_fair
from repro.fairness.waterfilling import water_filling
from repro.network.units import MBPS
from tests.conftest import exact_single_link_sessions, make_session


def test_empty_input_gives_empty_allocation():
    allocation = water_filling([])
    assert len(allocation) == 0


def test_single_session_gets_the_access_capacity(single_link_network):
    session = make_session(single_link_network, "solo", "r0", "r1")
    allocation = water_filling([session])
    # The backbone link (100 Mbps) is tighter than the 1000 Mbps access links.
    assert allocation.rate("solo") == pytest.approx(100 * MBPS)


def test_two_sessions_share_a_single_bottleneck(single_link_network):
    sessions = [
        make_session(single_link_network, "a", "r0", "r1"),
        make_session(single_link_network, "b", "r0", "r1"),
    ]
    allocation = water_filling(sessions)
    assert allocation.rate("a") == pytest.approx(50 * MBPS)
    assert allocation.rate("b") == pytest.approx(50 * MBPS)


def test_demand_limited_session_releases_bandwidth(single_link_network):
    sessions = [
        make_session(single_link_network, "greedy", "r0", "r1"),
        make_session(single_link_network, "capped", "r0", "r1", demand=20 * MBPS),
    ]
    allocation = water_filling(sessions)
    assert allocation.rate("capped") == pytest.approx(20 * MBPS)
    assert allocation.rate("greedy") == pytest.approx(80 * MBPS)


def test_parking_lot_canonical_allocation(parking_lot_network):
    sessions = [make_session(parking_lot_network, "long", "r0", "r3")]
    for hop in range(3):
        sessions.append(
            make_session(parking_lot_network, "short%d" % hop, "r%d" % hop, "r%d" % (hop + 1))
        )
    allocation = water_filling(sessions)
    for session in sessions:
        assert allocation.rate(session.session_id) == pytest.approx(50 * MBPS)


def test_parking_lot_with_unbalanced_shorts(parking_lot_network):
    # Two shorts on the first hop, one on the second, none on the third: the
    # long session is limited by the first hop (100/3), the second-hop short
    # gets the rest of its link.
    sessions = [
        make_session(parking_lot_network, "long", "r0", "r3"),
        make_session(parking_lot_network, "shortA", "r0", "r1"),
        make_session(parking_lot_network, "shortB", "r0", "r1"),
        make_session(parking_lot_network, "shortC", "r1", "r2"),
    ]
    allocation = water_filling(sessions)
    third = 100 * MBPS / 3.0
    assert allocation.rate("long") == pytest.approx(third)
    assert allocation.rate("shortA") == pytest.approx(third)
    assert allocation.rate("shortB") == pytest.approx(third)
    assert allocation.rate("shortC") == pytest.approx(100 * MBPS - third)


def test_dumbbell_bottleneck_split(dumbbell_network):
    sessions = [
        make_session(dumbbell_network, "x", "west0", "east0"),
        make_session(dumbbell_network, "y", "west1", "east1"),
        make_session(dumbbell_network, "z", "west2", "east2", demand=10 * MBPS),
    ]
    allocation = water_filling(sessions)
    assert allocation.rate("z") == pytest.approx(10 * MBPS)
    assert allocation.rate("x") == pytest.approx(45 * MBPS)
    assert allocation.rate("y") == pytest.approx(45 * MBPS)


def test_star_cross_traffic(star_network):
    # Sessions leaf0 -> leaf1 and leaf0 -> leaf2 share the leaf0 -> hub link;
    # a third session leaf3 -> leaf1 shares the hub -> leaf1 link with the
    # first one.
    sessions = [
        make_session(star_network, "a", "leaf0", "leaf1"),
        make_session(star_network, "b", "leaf0", "leaf2"),
        make_session(star_network, "c", "leaf3", "leaf1"),
    ]
    allocation = water_filling(sessions)
    assert allocation.rate("a") == pytest.approx(50 * MBPS)
    assert allocation.rate("b") == pytest.approx(50 * MBPS)
    assert allocation.rate("c") == pytest.approx(50 * MBPS)
    assert is_max_min_fair(sessions, allocation)


def test_infinite_demand_bounded_by_access_link(single_link_network):
    session = make_session(
        single_link_network, "solo", "r0", "r1", demand=math.inf, capacity=30 * MBPS
    )
    allocation = water_filling([session])
    assert allocation.rate("solo") == pytest.approx(30 * MBPS)


def test_result_is_always_max_min_fair(dumbbell_network):
    sessions = [
        make_session(dumbbell_network, "s%d" % index, "west%d" % (index % 3), "east%d" % ((index + 1) % 3))
        for index in range(6)
    ]
    allocation = water_filling(sessions)
    assert is_max_min_fair(sessions, allocation)
    assert allocation.is_feasible(sessions)


def test_fraction_inputs_give_exact_thirds():
    sessions = exact_single_link_sessions([math.inf] * 3)
    allocation = water_filling(sessions)
    expected = fractions.Fraction(100 * 10**6, 3)
    for index in range(3):
        rate = allocation.rate("s%d" % index)
        assert isinstance(rate, fractions.Fraction)
        assert rate == expected
    assert is_max_min_fair(sessions, allocation)


def test_fraction_inputs_stay_exact_past_a_demand():
    seventh = fractions.Fraction(100 * 10**6, 7)
    sessions = exact_single_link_sessions([seventh] + [math.inf] * 3)
    allocation = water_filling(sessions)
    assert allocation.rate("s0") == seventh
    for index in range(1, 4):
        assert allocation.rate("s%d" % index) == 2 * seventh
