"""The linear max-min certificate equals the quadratic one it replaced.

``verify_allocation`` decides whether a session has a bottleneck from each
saturated path link's largest member rate.  The quadratic references below
are the earlier implementations, kept here: they compare the session's rate
with every member of every saturated path link, through the reference
``FloatAlgebra`` of ``tests/test_fairness_algebra.py``.  On random sessions
and allocations -- max-min fair ones with planted overloads, excess rates,
missing bottlenecks, missing rates and rates a tolerance width apart -- the
linear certificate must return exactly the reference's violation list, and
``analyze_bottlenecks`` exactly the reference analysis.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.fairness.allocation import RateAllocation
from repro.fairness.bottleneck import analyze_bottlenecks
from repro.fairness.verification import MaxMinViolation, verify_allocation
from repro.fairness.waterfilling import water_filling
from repro.network.graph import Network
from repro.network.routing import PathComputer, path_links
from repro.network.session import Session
from tests.test_fairness_algebra import FLOAT, straddle

# Small capacities put the compares where the absolute tolerance dominates.
CAPACITIES = [1.0, 700.0, 1e6, 3e7, 1e8]


def reference_verify_allocation(sessions, allocation):
    """The quadratic certificate, as the library had it."""
    sessions = list(sessions)
    violations = []
    for session in sessions:
        if session.session_id not in allocation:
            violations.append(
                MaxMinViolation("missing-rate", session.session_id, "no rate assigned")
            )
    if violations:
        return violations
    links = {}
    for session in sessions:
        for link in session.links:
            links.setdefault(link.endpoints, (link, []))[1].append(session)
    saturated = {}
    for endpoints, (link, members) in links.items():
        load = sum(float(allocation.rate(s.session_id)) for s in members)
        saturated[endpoints] = FLOAT.equal(load, link.capacity)
        if FLOAT.greater(load, link.capacity):
            violations.append(
                MaxMinViolation(
                    "overloaded-link",
                    link.endpoints,
                    "load %.6g exceeds capacity %.6g" % (load, link.capacity),
                )
            )
    for session in sessions:
        rate = float(allocation.rate(session.session_id))
        demand = float(session.effective_demand())
        if FLOAT.greater(rate, demand):
            violations.append(
                MaxMinViolation(
                    "demand-exceeded",
                    session.session_id,
                    "rate %.6g exceeds demand %.6g" % (rate, demand),
                )
            )
            continue
        if FLOAT.equal(rate, demand):
            continue
        has_bottleneck = False
        for link in session.links:
            endpoints = link.endpoints
            if not saturated[endpoints]:
                continue
            if all(
                FLOAT.less_equal(float(allocation.rate(other.session_id)), rate)
                for other in links[endpoints][1]
            ):
                has_bottleneck = True
                break
        if not has_bottleneck:
            violations.append(
                MaxMinViolation(
                    "no-bottleneck",
                    session.session_id,
                    "rate %.6g is below demand %.6g and no path link is a bottleneck"
                    % (rate, demand),
                )
            )
    return violations


def crossing(sessions, link):
    return [session for session in sessions if session.crosses(link)]


def rate_of(allocation, session):
    return float(allocation.get(session.session_id, 0.0))


def reference_analysis(sessions, allocation):
    """``(restricted, unrestricted, bottleneck_rate, bottleneck_links_of)``
    as the quadratic analysis computed them."""
    links = {}
    for session in sessions:
        for link in session.links:
            links.setdefault(link.endpoints, link)
    restricted, unrestricted, bottleneck_rate = {}, {}, {}
    bottleneck_links_of = {session.session_id: [] for session in sessions}
    for endpoints, link in links.items():
        members = crossing(sessions, link)
        load = sum(rate_of(allocation, s) for s in members)
        if not FLOAT.equal(load, link.capacity):
            restricted[endpoints] = set()
            unrestricted[endpoints] = {s.session_id for s in members}
            continue
        largest = max(rate_of(allocation, s) for s in members)
        here = {s.session_id for s in members if FLOAT.equal(rate_of(allocation, s), largest)}
        restricted[endpoints] = here
        unrestricted[endpoints] = {s.session_id for s in members} - here
        bottleneck_rate[endpoints] = largest
        for s in members:
            if s.session_id in here:
                bottleneck_links_of[s.session_id].append(link)
    return restricted, unrestricted, bottleneck_rate, bottleneck_links_of


@st.composite
def populations(draw):
    """Sessions over a random small mesh, each with a finite or infinite demand."""
    router_count = draw(st.integers(2, 5))
    network = Network("certificate")
    for index in range(router_count):
        network.add_router("r%d" % index)
    for index in range(router_count - 1):
        network.add_link("r%d" % index, "r%d" % (index + 1),
                         draw(st.sampled_from(CAPACITIES)), 1e-6)
    for first, second in draw(st.lists(st.tuples(st.integers(0, router_count - 1),
                                                 st.integers(0, router_count - 1)),
                                       max_size=2)):
        if first != second and not network.has_link("r%d" % first, "r%d" % second):
            network.add_link("r%d" % first, "r%d" % second,
                             draw(st.sampled_from(CAPACITIES)), 1e-6)
    computer = PathComputer(network)
    sessions = []
    for index in range(draw(st.integers(1, 7))):
        source = draw(st.integers(0, router_count - 1))
        sink = (source + draw(st.integers(1, router_count - 1))) % router_count
        access = draw(st.sampled_from(CAPACITIES + [1e9]))
        source_host = network.attach_host("r%d" % source, access, 1e-6)
        sink_host = network.attach_host("r%d" % sink, 1e9, 1e-6)
        router_path = computer.router_route("r%d" % source, "r%d" % sink)
        node_path = [source_host.node_id] + router_path + [sink_host.node_id]
        demand = draw(st.one_of(st.just(math.inf), st.sampled_from(CAPACITIES),
                                st.floats(0.5, 2e8)))
        sessions.append(Session("s%d" % index, source_host.node_id, sink_host.node_id,
                                node_path, path_links(network, node_path), demand))
    return sessions


@st.composite
def checked_allocations(draw):
    """A population and a perturbation of its max-min fair allocation."""
    sessions = draw(populations())
    fair = water_filling(sessions)
    rates = {}
    for session in sessions:
        rate = float(fair.rate(session.session_id))
        plant = draw(st.sampled_from(
            ["fair", "fair", "straddle", "tie", "lower", "raise", "demand"]
        ))
        if plant == "straddle":
            # A tolerance width or so from the fair rate, so compares with
            # the link's other members land on both sides of equality.
            offset = draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0]) | st.floats(-3.0, 3.0))
            rate = straddle(rate, offset, draw(st.integers(-2, 2)))
        elif plant == "tie":
            # Near another session's fair rate: ties across a shared link.
            other = draw(st.sampled_from(sessions))
            rate = straddle(float(fair.rate(other.session_id)),
                            draw(st.sampled_from([0.0, -1.0, 1.0])), draw(st.integers(-1, 1)))
        elif plant == "lower":
            rate *= draw(st.sampled_from([0.0, 0.5, 0.9]))          # a missing bottleneck
        elif plant == "raise":
            rate *= draw(st.sampled_from([1.1, 2.0]))               # an overload
        elif plant == "demand":
            rate = float(session.effective_demand()) * draw(st.sampled_from([1.0, 1.5]))
        rates[session.session_id] = max(rate, 0.0)
    if not draw(st.integers(0, 5)):
        del rates[draw(st.sampled_from(sorted(rates)))]                # a missing rate
    return sessions, RateAllocation(rates)


def as_tuples(violations):
    return [(v.kind, v.subject, v.detail) for v in violations]


@settings(max_examples=300, deadline=None)
@given(checked_allocations())
def test_linear_certificate_returns_the_quadratic_violation_list(case):
    sessions, allocation = case
    assert as_tuples(verify_allocation(sessions, allocation)) == as_tuples(
        reference_verify_allocation(sessions, allocation)
    )


@settings(max_examples=150, deadline=None)
@given(checked_allocations())
def test_bottleneck_analyses_match_the_quadratic_references(case):
    sessions, allocation = case
    analysis = analyze_bottlenecks(sessions, allocation)
    restricted, unrestricted, bottleneck_rate, bottleneck_links_of = reference_analysis(
        sessions, allocation
    )
    assert analysis.restricted == restricted
    assert analysis.unrestricted == unrestricted
    assert analysis.bottleneck_rate == bottleneck_rate
    assert analysis.bottleneck_links_of == bottleneck_links_of


def test_the_planted_cases_reach_every_violation_kind():
    """The strategy is not vacuous: across a fixed sample it plants every kind."""
    kinds = set()

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(checked_allocations())
    def collect(case):
        kinds.update(v.kind for v in verify_allocation(*case))

    collect()
    assert kinds == {"missing-rate", "overloaded-link", "demand-exceeded", "no-bottleneck"}
