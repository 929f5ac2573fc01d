"""Unit tests for the RateAllocation container."""

import pytest

from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import link_load
from repro.network.units import MBPS
from tests.conftest import make_session


class TestMappingBehaviour(object):
    def test_set_get_contains(self):
        allocation = RateAllocation()
        allocation.set_rate("s1", 10.0)
        assert "s1" in allocation
        assert allocation.rate("s1") == 10.0
        assert allocation.get("missing") is None
        assert allocation.get("missing", 0.0) == 0.0
        assert len(allocation) == 1
        assert list(allocation) == ["s1"]
        assert allocation.session_ids() == ["s1"]

    def test_constructor_accepts_mapping(self):
        allocation = RateAllocation({"a": 1.0, "b": 2.0})
        assert allocation.total_rate() == pytest.approx(3.0)
        assert allocation.as_dict() == {"a": 1.0, "b": 2.0}

    def test_items(self):
        allocation = RateAllocation({"a": 1.0})
        assert dict(allocation.items()) == {"a": 1.0}


class TestComparison(object):
    def test_equals_same_rates(self):
        first = RateAllocation({"a": 50 * MBPS, "b": 25 * MBPS})
        second = RateAllocation({"a": 50 * MBPS, "b": 25 * MBPS})
        assert first.equals(second)

    def test_equals_tolerates_rounding(self):
        base = 100 * MBPS / 3.0
        first = RateAllocation({"a": base})
        second = RateAllocation({"a": base * (1.0 + 1e-12)})
        assert first.equals(second)

    def test_equals_rejects_different_sessions(self):
        assert not RateAllocation({"a": 1.0}).equals(RateAllocation({"b": 1.0}))
        assert not RateAllocation({"a": 1.0}).equals(RateAllocation({"a": 1.0, "b": 1.0}))

    def test_equals_rejects_different_rates(self):
        assert not RateAllocation({"a": 1.0}).equals(RateAllocation({"a": 2.0}))

    def test_max_relative_difference(self):
        first = RateAllocation({"a": 110.0, "b": 50.0})
        second = RateAllocation({"a": 100.0, "b": 50.0})
        assert first.max_relative_difference(second) == pytest.approx(0.1)

    def test_max_relative_difference_ignores_missing(self):
        first = RateAllocation({"a": 1.0, "extra": 99.0})
        second = RateAllocation({"a": 1.0})
        assert first.max_relative_difference(second) == 0.0


class TestFeasibility(object):
    def test_link_load(self, parking_lot_network):
        long_session = make_session(parking_lot_network, "long", "r0", "r3")
        short_session = make_session(parking_lot_network, "short", "r0", "r1")
        allocation = RateAllocation({"long": 40 * MBPS, "short": 50 * MBPS})
        shared = parking_lot_network.link("r0", "r1")
        lonely = parking_lot_network.link("r2", "r3")
        sessions = [long_session, short_session]
        assert link_load(sessions, allocation, shared) == pytest.approx(90 * MBPS)
        assert link_load(sessions, allocation, lonely) == pytest.approx(40 * MBPS)

    def test_feasible_allocation(self, parking_lot_network):
        sessions = [
            make_session(parking_lot_network, "long", "r0", "r3"),
            make_session(parking_lot_network, "short", "r0", "r1"),
        ]
        allocation = RateAllocation({"long": 50 * MBPS, "short": 50 * MBPS})
        assert allocation.is_feasible(sessions)

    def test_overloaded_link_is_infeasible(self, parking_lot_network):
        sessions = [
            make_session(parking_lot_network, "long", "r0", "r3"),
            make_session(parking_lot_network, "short", "r0", "r1"),
        ]
        allocation = RateAllocation({"long": 80 * MBPS, "short": 50 * MBPS})
        assert not allocation.is_feasible(sessions)

    def test_exceeding_demand_is_infeasible(self, parking_lot_network):
        session = make_session(parking_lot_network, "capped", "r0", "r1", demand=10 * MBPS)
        allocation = RateAllocation({"capped": 20 * MBPS})
        assert not allocation.is_feasible([session])

    def test_missing_rates_count_as_zero(self, parking_lot_network):
        session = make_session(parking_lot_network, "s", "r0", "r1")
        allocation = RateAllocation({})
        assert allocation.is_feasible([session])
        assert link_load([session], allocation, parking_lot_network.link("r0", "r1")) == 0.0
