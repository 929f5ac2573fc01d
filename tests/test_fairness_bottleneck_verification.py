"""Unit tests for bottleneck analysis and max-min verification."""

import pytest

from repro.core.centralized import centralized_bneck, centralized_bneck_on
from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import (
    LinkTable,
    analyze_bottlenecks,
    link_load,
)
from repro.fairness.verification import is_max_min_fair, verify_allocation, verify_allocation_on
from repro.fairness.waterfilling import water_filling
from repro.network.units import MBPS
from tests.conftest import make_session


@pytest.fixture
def parking_lot_case(parking_lot_network):
    sessions = [
        make_session(parking_lot_network, "long", "r0", "r3"),
        make_session(parking_lot_network, "shortA", "r0", "r1"),
        make_session(parking_lot_network, "shortB", "r0", "r1"),
        make_session(parking_lot_network, "shortC", "r1", "r2"),
    ]
    allocation = water_filling(sessions)
    return parking_lot_network, sessions, allocation


class TestLinkTable(object):
    def test_links_are_indexed_in_order_of_first_appearance(self, parking_lot_case):
        _, sessions, _ = parking_lot_case
        table = LinkTable(sessions)
        expected = []
        for session in sessions:
            for link in session.links:
                if link.endpoints not in expected:
                    expected.append(link.endpoints)
        assert [link.endpoints for link in table.links] == expected
        assert table.index == {endpoints: index for index, endpoints in enumerate(expected)}
        assert table.capacities == [link.capacity for link in table.links]

    def test_members_paths_and_demands_follow_session_order(self, parking_lot_network):
        sessions = [
            make_session(parking_lot_network, "long", "r0", "r3"),
            make_session(parking_lot_network, "capped", "r1", "r3", demand=10 * MBPS),
            make_session(parking_lot_network, "short", "r0", "r1"),
        ]
        table = LinkTable(iter(sessions))
        assert table.sessions == sessions
        for position, session in enumerate(sessions):
            assert [table.links[index] for index in table.paths[position]] == list(session.links)
        for link, members in zip(table.links, table.members):
            crossing = [p for p, session in enumerate(sessions) if session.crosses(link)]
            assert members == crossing
        middle = table.index[parking_lot_network.link("r1", "r2").endpoints]
        assert table.members[middle] == [0, 1]
        assert table.demands == [session.effective_demand() for session in sessions]

    def test_loads_and_maxima_per_link(self, parking_lot_case):
        network, sessions, allocation = parking_lot_case
        table = LinkTable(sessions)
        rates = table.rates(allocation)
        assert rates == [float(allocation.rate(session.session_id)) for session in sessions]
        loads, maxima = table.loads_and_maxima(rates)
        for link, load, largest in zip(table.links, loads, maxima):
            assert load == pytest.approx(link_load(sessions, allocation, link))
            assert largest == max(
                rate for rate, session in zip(rates, sessions) if session.crosses(link)
            )
        first_hop = table.index[network.link("r0", "r1").endpoints]
        assert loads[first_hop] == pytest.approx(100 * MBPS)
        assert maxima[first_hop] == pytest.approx(100 * MBPS / 3.0)

    def test_missing_rates_read_as_zero(self, parking_lot_case):
        _, sessions, _ = parking_lot_case
        table = LinkTable(sessions)
        assert table.rates(RateAllocation({"long": 5 * MBPS})) == [5.0 * MBPS, 0.0, 0.0, 0.0]

    def test_one_table_serves_every_oracle_and_the_certificate(self, parking_lot_case):
        _, sessions, allocation = parking_lot_case
        table = LinkTable(sessions)
        assert centralized_bneck_on(table).as_dict() == centralized_bneck(sessions).as_dict()
        starved = RateAllocation(
            {session_id: rate * 0.5 for session_id, rate in allocation.as_dict().items()}
        )
        for checked in (allocation, starved):
            shared = [(v.kind, v.subject, v.detail) for v in verify_allocation_on(table, checked)]
            fresh = [(v.kind, v.subject, v.detail) for v in verify_allocation(sessions, checked)]
            assert shared == fresh
        assert verify_allocation_on(table, allocation) == []


class TestBottleneckAnalysis(object):
    def test_link_load(self, parking_lot_case):
        network, sessions, allocation = parking_lot_case
        first_hop = network.link("r0", "r1")
        assert link_load(sessions, allocation, first_hop) == pytest.approx(100 * MBPS)

    def test_restricted_and_unrestricted_sets(self, parking_lot_case):
        network, sessions, allocation = parking_lot_case
        analysis = analyze_bottlenecks(sessions, allocation)
        first_hop = network.link("r0", "r1").endpoints
        second_hop = network.link("r1", "r2").endpoints
        assert analysis.restricted[first_hop] == {"long", "shortA", "shortB"}
        assert analysis.unrestricted[first_hop] == set()
        # On the second hop the long session is restricted elsewhere; shortC
        # is the one restricted here.
        assert analysis.restricted[second_hop] == {"shortC"}
        assert analysis.unrestricted[second_hop] == {"long"}

    def test_bottleneck_rates(self, parking_lot_case):
        network, sessions, allocation = parking_lot_case
        analysis = analyze_bottlenecks(sessions, allocation)
        first_hop = network.link("r0", "r1").endpoints
        assert analysis.bottleneck_rate[first_hop] == pytest.approx(100 * MBPS / 3.0)

    def test_saturated_links(self, parking_lot_case):
        network, sessions, allocation = parking_lot_case
        analysis = analyze_bottlenecks(sessions, allocation)
        saturated = {link.endpoints for link in analysis.saturated_links()}
        assert network.link("r0", "r1").endpoints in saturated
        assert network.link("r1", "r2").endpoints in saturated
        # The third hop only carries the long session (33 Mbps): not saturated.
        assert network.link("r2", "r3").endpoints not in saturated

    def test_unsaturated_network_has_no_bottlenecks(self, parking_lot_network):
        sessions = [make_session(parking_lot_network, "tiny", "r0", "r3", demand=MBPS)]
        allocation = RateAllocation({"tiny": float(MBPS)})
        analysis = analyze_bottlenecks(sessions, allocation)
        assert analysis.saturated_links() == []
        assert analysis.bottleneck_links_of["tiny"] == []


class TestVerification(object):
    def test_water_filling_output_passes(self, parking_lot_case):
        _, sessions, allocation = parking_lot_case
        assert verify_allocation(sessions, allocation) == []
        assert is_max_min_fair(sessions, allocation)

    def test_underallocation_is_detected(self, parking_lot_case):
        _, sessions, allocation = parking_lot_case
        starved = RateAllocation(
            {session_id: rate * 0.5 for session_id, rate in allocation.as_dict().items()}
        )
        violations = verify_allocation(sessions, starved)
        assert any(violation.kind == "no-bottleneck" for violation in violations)
        assert not is_max_min_fair(sessions, starved)

    def test_overloaded_link_is_detected(self, parking_lot_case):
        _, sessions, allocation = parking_lot_case
        greedy = RateAllocation(
            {session_id: rate * 1.5 for session_id, rate in allocation.as_dict().items()}
        )
        violations = verify_allocation(sessions, greedy)
        assert any(violation.kind == "overloaded-link" for violation in violations)

    def test_exceeded_demand_is_detected(self, single_link_network):
        session = make_session(single_link_network, "capped", "r0", "r1", demand=10 * MBPS)
        allocation = RateAllocation({"capped": 20 * MBPS})
        violations = verify_allocation([session], allocation)
        assert any(violation.kind == "demand-exceeded" for violation in violations)

    def test_missing_rate_is_detected(self, single_link_network):
        session = make_session(single_link_network, "s", "r0", "r1")
        violations = verify_allocation([session], RateAllocation({}))
        assert [violation.kind for violation in violations] == ["missing-rate"]

    def test_demand_limited_sessions_need_no_bottleneck(self, single_link_network):
        session = make_session(single_link_network, "capped", "r0", "r1", demand=10 * MBPS)
        allocation = RateAllocation({"capped": 10 * MBPS})
        assert is_max_min_fair([session], allocation)

    def test_unfair_but_feasible_allocation_fails(self, single_link_network):
        sessions = [
            make_session(single_link_network, "a", "r0", "r1"),
            make_session(single_link_network, "b", "r0", "r1"),
        ]
        # Feasible (sums to 100) but not max-min fair (b could not increase
        # without decreasing a larger session -- but a is above b, so b has no
        # bottleneck of its own).
        lopsided = RateAllocation({"a": 70 * MBPS, "b": 30 * MBPS})
        assert lopsided.is_feasible(sessions)
        assert not is_max_min_fair(sessions, lopsided)
