"""Property-based tests (hypothesis) for the distributed B-Neck protocol.

The headline theorem of the paper (Theorem 1): for any steady-state session
configuration, B-Neck eventually becomes permanently stable and every session
is assigned its max-min fair rate.  These tests generate random topologies,
session populations, arrival patterns and churn, run the full distributed
protocol on the discrete-event simulator, and assert exactly that:

* the event queue drains (quiescence);
* the network is stable in the sense of Definition 2;
* the assigned rates equal the centralized oracle's max-min rates;
* after churn (departures and rate changes) the same holds again.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import check_stability
from repro.core.actions import CapacityChangeAction, ChangeAction, JoinAction, LeaveAction
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.fairness.waterfilling import water_filling
from repro.network.graph import Network
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds
from tests.conftest import run_bounded

CAPACITY_CHOICES = [10 * MBPS, 50 * MBPS, 100 * MBPS]
DEMAND_CHOICES = [math.inf, 5 * MBPS, 20 * MBPS, 60 * MBPS]


@st.composite
def protocol_scenario(draw):
    """A random chain topology, session set, arrival times and churn plan."""
    router_count = draw(st.integers(min_value=2, max_value=5))
    capacities = draw(
        st.lists(st.sampled_from(CAPACITY_CHOICES),
                 min_size=router_count - 1, max_size=router_count - 1)
    )
    session_count = draw(st.integers(min_value=1, max_value=6))
    sessions = draw(
        st.lists(
            st.tuples(
                st.integers(0, router_count - 1),     # source router
                st.integers(0, router_count - 1),     # destination router
                st.sampled_from(DEMAND_CHOICES),      # demand
                st.floats(0.0, 1.0),                  # join time within 1 ms
            ),
            min_size=session_count,
            max_size=session_count,
        )
    )
    churn = draw(
        st.lists(
            st.tuples(
                st.integers(0, session_count - 1),
                st.sampled_from(["leave", "change"]),
                st.sampled_from(DEMAND_CHOICES[1:]),
            ),
            max_size=3,
            unique_by=lambda action: action[0],
        )
    )
    return router_count, capacities, sessions, churn


def build_protocol(router_count, capacities):
    network = Network("property-protocol")
    for index in range(router_count):
        network.add_router("r%d" % index)
    for index, capacity in enumerate(capacities):
        network.add_link("r%d" % index, "r%d" % (index + 1), capacity, microseconds(1))
    return BNeckProtocol(network)


def install_sessions(protocol, session_specs, router_count):
    """Join every session in one batch; returns ``{id: application}``."""
    joins = []
    for index, (source_index, sink_index, demand, join_fraction) in enumerate(session_specs):
        if source_index == sink_index:
            sink_index = (sink_index + 1) % router_count
        joins.append(JoinAction("p%d" % index, "r%d" % source_index, "r%d" % sink_index,
                                demand, join_fraction * milliseconds(1),
                                1000 * MBPS, microseconds(1)))
    return {session_id: protocol.application(session_id)
            for session_id in protocol.apply_actions(joins)}


@settings(max_examples=40, deadline=None)
@given(protocol_scenario())
def test_theorem1_quiescence_and_max_min_rates(scenario):
    router_count, capacities, session_specs, _ = scenario
    protocol = build_protocol(router_count, capacities)
    install_sessions(protocol, session_specs, router_count)
    protocol.run_until_quiescent()

    assert protocol.quiescent
    assert check_stability(protocol).stable
    result = validate_against_oracle(protocol)
    assert result.valid, "distributed rates diverge from the oracle: %r" % result


@settings(max_examples=30, deadline=None)
@given(protocol_scenario())
def test_theorem1_still_holds_after_churn(scenario):
    router_count, capacities, session_specs, churn = scenario
    protocol = build_protocol(router_count, capacities)
    install_sessions(protocol, session_specs, router_count)
    protocol.run_until_quiescent()

    active = {"p%d" % index for index in range(len(session_specs))}
    base_time = protocol.simulator.now
    actions = []
    for offset, (session_index, action, new_demand) in enumerate(churn):
        session_id = "p%d" % session_index
        if session_id not in active:
            continue
        when = base_time + (offset + 1) * microseconds(50)
        if action == "leave":
            actions.append(LeaveAction(session_id, when))
            active.discard(session_id)
        else:
            actions.append(ChangeAction(session_id, new_demand, when))
    protocol.apply_actions(actions)
    protocol.run_until_quiescent()

    assert protocol.quiescent
    assert check_stability(protocol).stable
    assert validate_against_oracle(protocol).valid
    assert {session.session_id for session in protocol.active_sessions()} == active


@settings(max_examples=30, deadline=None)
@given(protocol_scenario())
def test_every_active_session_is_notified_a_rate(scenario):
    # The API contract: API.Rate is eventually invoked on every active session.
    router_count, capacities, session_specs, _ = scenario
    protocol = build_protocol(router_count, capacities)
    applications = install_sessions(protocol, session_specs, router_count)
    protocol.run_until_quiescent()
    for application in applications.values():
        assert application.notification_count >= 1
        assert application.current_rate > 0


@settings(max_examples=25, deadline=None)
@given(protocol_scenario())
def test_notified_rates_match_final_assignment(scenario):
    router_count, capacities, session_specs, _ = scenario
    protocol = build_protocol(router_count, capacities)
    install_sessions(protocol, session_specs, router_count)
    protocol.run_until_quiescent()
    current = protocol.current_allocation()
    notified = protocol.notified_allocation()
    assert current.equals(notified)


@st.composite
def capacity_plan(draw):
    """A protocol scenario plus a sequence of random link-capacity changes."""
    router_count, capacities, sessions, _churn = draw(protocol_scenario())
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, router_count - 2),        # chain link index
                st.sampled_from([0.1, 0.3, 0.7, 1.5]),   # factor of original Ce
            ),
            min_size=1,
            max_size=3,
        )
    )
    return router_count, capacities, sessions, events


@settings(max_examples=25, deadline=None)
@given(capacity_plan())
def test_capacity_changes_reconverge_to_waterfilling(plan):
    """After every capacity-change quiescence point the distributed rates
    match the water-filling oracle on the *updated* capacities (the extension
    of Theorem 1 the capacity-dynamics workload relies on)."""
    router_count, capacities, session_specs, events = plan
    protocol = build_protocol(router_count, capacities)
    install_sessions(protocol, session_specs, router_count)
    # A livelock after a capacity change should fail loudly, not hang CI.
    run_bounded(protocol, 2_000_000)

    for link_index, factor in events:
        source, target = "r%d" % link_index, "r%d" % (link_index + 1)
        new_capacity = capacities[link_index] * factor
        now = protocol.simulator.now
        protocol.apply_actions([CapacityChangeAction(source, target, new_capacity, now),
                                CapacityChangeAction(target, source, new_capacity, now)])
        run_bounded(protocol, 2_000_000)

        assert protocol.quiescent
        assert protocol.network.link(source, target).capacity == new_capacity
        result = validate_against_oracle(protocol)
        filled = water_filling(protocol.active_sessions())
        assert result.valid and result.distributed.equals(filled), (
            "rates diverge from water-filling after %s->%s x%s: %r"
            % (source, target, factor, result)
        )
