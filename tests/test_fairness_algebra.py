"""Unit tests for the library's rate compares: ``rates_equal``, the oracles'
``at_most`` and the protocol's inlined float compares."""

import copy
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import router_link, source_node
from repro.core.state import (
    ABS_TOL,
    IDLE,
    REL_TOL,
    SESSION_STATES,
    WAITING_PROBE,
    WAITING_RESPONSE,
    LinkState,
)
from repro.fairness.algebra import ABSOLUTE_TOLERANCE, RELATIVE_TOLERANCE, rates_equal
from repro.fairness.bottleneck import at_most


class FloatAlgebra(object):
    """The float rate algebra the library once plugged into every oracle,
    kept here as the reference every compare must decide exactly as."""

    def equal(self, first, second):
        if first == second:
            return True
        if math.isinf(first) or math.isinf(second):
            return False
        return math.isclose(
            first, second, rel_tol=RELATIVE_TOLERANCE, abs_tol=ABSOLUTE_TOLERANCE
        )

    def less(self, first, second):
        return first < second and not self.equal(first, second)

    def less_equal(self, first, second):
        return self.less(first, second) or self.equal(first, second)

    def greater(self, first, second):
        return self.less(second, first)

    def greater_equal(self, first, second):
        return self.less_equal(second, first)


FLOAT = FloatAlgebra()


class TestRatesEqual(object):
    def test_exact_equality(self):
        assert rates_equal(5.0, 5.0)
        assert not rates_equal(5.0, 6.0)

    def test_tolerant_equality(self):
        base = 100e6 / 3.0
        perturbed = base * (1.0 + 1e-12)
        assert rates_equal(base, perturbed)
        assert not rates_equal(base, base * (1.0 + 1e-6))

    def test_at_most_is_tolerant(self):
        base = 100e6 / 7.0
        assert at_most(base * (1.0 + 1e-13), base)
        assert at_most(base, base * 1.01)
        assert not at_most(base * 1.01, base)

    def test_infinity_handling(self):
        assert rates_equal(math.inf, math.inf)
        assert not rates_equal(math.inf, 1e9)
        assert at_most(1e9, math.inf)
        assert not at_most(math.inf, 1e9)


# --------------------------------------------------------------------------
# Every compare -- rates_equal, the oracles' at_most and the protocol's
# inlined float compares (repro.core.state, repro.core.router_link) -- must
# decide exactly as the reference FloatAlgebra above does, on every pair of
# rates.

SPECIAL_RATES = st.sampled_from([0.0, -0.0, math.inf, -math.inf])
PLAIN_RATES = st.floats(0.0, 1e9, allow_nan=False)


def straddle(first, offset, nudge):
    """A rate at ``offset`` tolerance widths from ``first``, moved by ``nudge``
    ulps, so pairs land on both sides of the tolerance boundary."""
    second = first + offset * max(RELATIVE_TOLERANCE * abs(first), ABSOLUTE_TOLERANCE)
    for _ in range(abs(nudge)):
        second = math.nextafter(second, math.copysign(math.inf, nudge))
    return second


@st.composite
def rate_pairs(draw):
    kind = draw(st.sampled_from(["independent", "straddle", "equal", "special"]))
    first = draw(PLAIN_RATES)
    if kind == "independent":
        return first, draw(st.one_of(PLAIN_RATES, SPECIAL_RATES))
    if kind == "equal":
        return first, first
    if kind == "special":
        return draw(SPECIAL_RATES), draw(st.one_of(PLAIN_RATES, SPECIAL_RATES))
    offset = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0))
    return first, straddle(first, offset, draw(st.integers(-2, 2)))


def inline_greater(first, second):
    return first > second and not math.isclose(first, second, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def inline_greater_equal(first, second):
    return first >= second or math.isclose(first, second, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def test_protocol_tolerances_are_the_library_tolerances():
    assert (REL_TOL, ABS_TOL) == (RELATIVE_TOLERANCE, ABSOLUTE_TOLERANCE)
    assert (router_link.REL_TOL, router_link.ABS_TOL) == (RELATIVE_TOLERANCE, ABSOLUTE_TOLERANCE)
    assert source_node.rates_equal is rates_equal


@settings(max_examples=1500, deadline=None)
@given(rate_pairs())
def test_inline_compares_match_float_algebra(pair):
    for first, second in (pair, pair[::-1]):
        assert rates_equal(first, second) == FLOAT.equal(first, second)
        assert inline_greater(first, second) == FLOAT.greater(first, second)
        assert inline_greater(second, first) == FLOAT.less(first, second)
        assert inline_greater_equal(first, second) == FLOAT.greater_equal(first, second)
        assert inline_greater_equal(second, first) == FLOAT.less_equal(first, second)
        # The source node's form of "greater", given equality at hand.
        assert (not rates_equal(first, second) and first > second) == FLOAT.greater(
            first, second
        )
        assert at_most(first, second) == FLOAT.less_equal(first, second)


@st.composite
def link_states(draw):
    """A LinkState whose recorded R_e rates sit on and around its B_e."""
    # Small capacities put B_e where the absolute tolerance dominates.
    state = LinkState(("a", "b"), draw(st.sampled_from([1.0, 700.0, 1e6, 3e7, 1e9])))
    for index in range(draw(st.integers(0, 3))):
        session_id = "f%d" % index
        state.add_unrestricted(session_id)
        state.set_state(session_id, draw(st.sampled_from([IDLE, WAITING_PROBE])))
        state.set_rate(session_id, state.capacity * draw(st.floats(0.0, 0.33)))
    members = ["r%d" % index for index in range(draw(st.integers(0, 6)))]
    for session_id in members:
        state.add_restricted(session_id)
    if members and state.unrestricted and draw(st.booleans()):
        # Move f0 to where B_e meets its rate, so the F_e offender pass
        # decides within the tolerance.
        offset = draw(st.sampled_from([0.0, -0.5, 0.5, -1.0, 1.0]) | st.floats(-3.0, 3.0))
        place_at_tie(state, "f0", offset, draw(st.integers(-2, 2)))
    rate = state.bottleneck_rate
    for session_id in members:
        state.set_state(session_id, draw(st.sampled_from([IDLE, IDLE, WAITING_PROBE])))
        if draw(st.integers(0, 5)):
            offset = draw(st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-3.0, 3.0))
            state.set_rate(session_id, straddle(rate, offset, draw(st.integers(-2, 2))))
    return state


def place_at_tie(state, session_id, offset, nudge):
    """Set the F_e member's rate ``offset`` tolerance widths (and ``nudge``
    ulps) from the B_e it leaves, ``(C_e - other F_e load) / (|R_e| + 1)``."""
    other_load = state.unrestricted_load() - (state.rate_of(session_id) or 0.0)
    tie = (state.capacity - other_load) / (len(state.restricted) + 1)
    state.set_rate(session_id, straddle(tie, offset, nudge))


def pinned_state(restricted_offsets):
    """A 1 Gbps link with one F_e member half a tolerance width below B_e and
    IDLE R_e members recorded at the given tolerance widths from B_e."""
    state = LinkState(("a", "b"), 1e9)
    state.add_unrestricted("f0")
    members = ["r%d" % index for index in range(len(restricted_offsets))]
    for session_id in members:
        state.add_restricted(session_id)
    place_at_tie(state, "f0", -0.5, 0)
    rate = state.bottleneck_rate
    for session_id, offset in zip(members, restricted_offsets):
        state.set_state(session_id, IDLE)
        state.set_rate(session_id, straddle(rate, offset, 0))
    return state


@settings(max_examples=400, deadline=None)
@given(link_states())
# The R_e maximum within tolerance above B_e: a plain compare with B_e does
# not exit the wake-up scan of process_new_restricted, yet the scan finds
# nobody strictly above.
@example(pinned_state([0.5, 0.0, -3.0]))
# The R_e maximum within tolerance below B_e: the wake sets of a
# SetBottleneck and a Leave must not miss it.
@example(pinned_state([-0.5, -3.0]))
def test_link_state_queries_match_float_algebra(state):
    assert_queries_match_full_scan(state)
    for transition in REFERENCES:
        for session_id in sorted(state.sessions()) + ["unknown"]:
            assert_matches_reference(copy.deepcopy(state), transition, session_id)
    assert_process_new_restricted_matches_full_scan(state)


def scan_settled_at(state, rate):
    """Sorted ids of the IDLE R_e members recorded at ``rate``, by a scan of
    every member with FloatAlgebra."""
    return sorted(
        session_id
        for session_id in state.restricted
        if state.state_of(session_id) == IDLE
        and state.rate_of(session_id) is not None
        and FLOAT.equal(state.rate_of(session_id), rate)
    )


def scan_restricted_settled(state):
    """Figure 2, lines 25 and 46, by a scan of every member: R_e is not
    empty and every member is IDLE and recorded at B_e."""
    return bool(state.restricted) and len(scan_settled_at(state, state.bottleneck_rate)) == len(
        state.restricted
    )


def assert_queries_match_full_scan(state):
    """Each R_e query equals a scan of every member with FloatAlgebra."""
    assert state.bottleneck_rate == state._recomputed_bottleneck_rate()
    rate = state.bottleneck_rate
    settled = len(scan_settled_at(state, rate)) == len(state.restricted)
    stable = (
        all(state.state_of(session_id) == IDLE for session_id in state.sessions())
        and settled
        and (
            not state.restricted
            or all(
                state.rate_of(session_id) is not None
                and FLOAT.less(state.rate_of(session_id), rate)
                for session_id in state.unrestricted
            )
        )
    )
    assert state.is_stable() == stable
    for session_id in sorted(state.sessions()) + ["unknown"]:
        idle = state.state_of(session_id) == IDLE
        assert state.idle_restricted(session_id) == (idle and session_id in state.restricted)


# The fused transitions of a SetBottleneck, a Leave and a refused Response,
# each against the step-by-step sequence it replaced: full-scan queries,
# then wake, add_unrestricted, forget or set_state one at a time.

def reference_set_bottleneck(state, session_id):
    """Figure 2, lines 45-55, step by step on ``state`` (changed in place):
    what ``set_bottleneck`` returns."""
    if scan_restricted_settled(state):
        return True
    recorded = state.rate_of(session_id)
    if state.state_of(session_id) != IDLE or recorded is None:
        return None
    rate = state.bottleneck_rate
    if FLOAT.less(recorded, rate):
        woken = scan_settled_at(state, rate)
        for other_id in woken:
            assert state.wake(other_id)
        state.add_unrestricted(session_id)
        return woken
    return [] if FLOAT.equal(recorded, rate) else None


def reference_leave(state, session_id):
    """Figure 2, lines 57-62, step by step on ``state``: the sorted ids
    ``leave`` wakes."""
    woken = [
        other_id
        for other_id in scan_settled_at(state, state.bottleneck_rate)
        if other_id != session_id
    ]
    state.forget(session_id)
    for other_id in woken:
        assert state.wake(other_id)
    return woken


def reference_refuse(state, session_id):
    """A refused Response, step by step on ``state``: what ``refuse``
    returns, Figure 2, line 25's test."""
    state.set_state(session_id, WAITING_PROBE)
    return scan_restricted_settled(state)


REFERENCES = {
    "set_bottleneck": reference_set_bottleneck,
    "leave": reference_leave,
    "refuse": reference_refuse,
}


def assert_matches_reference(state, transition, session_id):
    """``state.<transition>(session_id)`` returns what its reference returns
    on a copy of the state, and leaves the state as the reference leaves the
    copy, with every maintained summary equal to its recount."""
    expected_state = copy.deepcopy(state)
    expected = REFERENCES[transition](expected_state, session_id)
    answer = getattr(state, transition)(session_id)
    assert (type(answer), answer) == (type(expected), expected)
    assert state.snapshot() == expected_state.snapshot()
    assert state.unrestricted_load() == expected_state.unrestricted_load()
    assert_summaries_match_recount(state)


def link_tables(state):
    """Copies of a link state's ``R_e``, ``F_e``, rates, ``mu`` and F_e load,
    the inputs of :func:`reference_process_new_restricted`."""
    rates = {
        session_id: state.rate_of(session_id)
        for session_id in state.sessions()
        if state.rate_of(session_id) is not None
    }
    mu = {session_id: state.state_of(session_id) for session_id in state.sessions()}
    return (
        set(state.restricted), set(state.unrestricted), rates, mu, state.unrestricted_load()
    )


def reference_process_new_restricted(capacity, restricted, unrestricted, rates, mu, load):
    """Figure 2, lines 4-10 by full scans with FloatAlgebra, over the tables
    of :func:`link_tables` (updated in place): ``(R_e, F_e, mu, B_e, woken
    ids)`` after it.

    ``B_e`` is the state's expression over the same load, which a move out of
    ``F_e`` lowers by the member's rate (re-anchored to 0 when ``F_e``
    empties), so ties within the tolerance are decided on the same bits."""

    def bottleneck_rate():
        return (capacity - load) / len(restricted) if restricted else math.inf

    rate = bottleneck_rate()
    while unrestricted:
        offenders = [
            rates[session_id]
            for session_id in unrestricted
            if session_id in rates and FLOAT.greater_equal(rates[session_id], rate)
        ]
        if not offenders:
            break
        largest = max(offenders)
        for session_id in sorted(
            session_id
            for session_id in unrestricted
            if session_id in rates and FLOAT.equal(rates[session_id], largest)
        ):
            unrestricted.remove(session_id)
            restricted.add(session_id)
            load = load - rates[session_id] if unrestricted else 0
        rate = bottleneck_rate()
    woken = sorted(
        session_id
        for session_id in restricted
        if mu[session_id] == IDLE
        and session_id in rates
        and FLOAT.greater(rates[session_id], rate)
    )
    for session_id in woken:
        mu[session_id] = WAITING_PROBE
    return restricted, unrestricted, mu, rate, woken


def assert_transition_matches(state, transition, expected):
    """``transition()`` returns the woken ids of ``expected`` (a result of
    :func:`reference_process_new_restricted`) and leaves the state with its
    sets, ``mu`` and ``B_e``, and every maintained summary equal to its
    recount."""
    restricted, unrestricted, mu, rate, woken = expected
    assert transition() == woken
    assert state.restricted == restricted
    assert state.unrestricted == unrestricted
    assert {session_id: state.state_of(session_id) for session_id in state.sessions()} == mu
    assert state.bottleneck_rate == rate
    assert_summaries_match_recount(state)


def assert_process_new_restricted_matches_full_scan(state):
    """process_new_restricted moves, wakes and returns what the full scans
    do."""
    expected = reference_process_new_restricted(state.capacity, *link_tables(state))
    assert_transition_matches(state, state.process_new_restricted, expected)


def join_tie(state, session_id):
    """The rate at which an added F_e member ties with the B_e that
    ``await_response(session_id)`` computes: ``(C_e - other F_e load) /
    (|R_e| after the join + 1)``, the same B_e whether the member stays in
    F_e or moves to R_e."""
    load = state.unrestricted_load()
    restricted = len(state.restricted | {session_id})
    if session_id in state.unrestricted:
        load -= state.rate_of(session_id) or 0.0
    return (state.capacity - load) / (restricted + 1)


def add_at_join_tie(state, session_id, offset, nudge):
    """Add a new F_e member recorded ``offset`` tolerance widths (and
    ``nudge`` ulps) from the B_e of ``await_response(session_id)``."""
    known = state.snapshot()
    member = next(
        name
        for name in ("tie%d" % index for index in itertools.count())
        if name not in known["mu"] and name not in known["rate"] and not state.knows(name)
    )
    state.set_rate(member, straddle(join_tie(state, session_id), offset, nudge))
    state.add_unrestricted(member)
    return member


# Widths from a tie: within the tolerance on either side, on its edges and
# beyond them.
TIE_OFFSETS = st.sampled_from([0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0]) | st.floats(-3.0, 3.0)


def assert_await_response_matches_full_scan(state, session_id, data):
    """await_response puts the session in R_e as WAITING_RESPONSE (taking
    its rate off the F_e load, re-anchored to 0 when F_e empties), then
    moves, wakes and returns what the full scans do.

    First it may add an F_e member recorded on either side of the B_e that
    the join computes, or within the tolerance of it, so ProcessNewRestricted
    is (or is not) called on every side of its precondition."""
    if data.draw(st.booleans()):
        add_at_join_tie(state, session_id, data.draw(TIE_OFFSETS), data.draw(st.integers(-2, 2)))
    assert_await_response_moves_and_wakes(state, session_id)


def assert_await_response_moves_and_wakes(state, session_id):
    """The check of :func:`assert_await_response_matches_full_scan`, on the
    state as it is."""
    restricted, unrestricted, rates, mu, load = link_tables(state)
    if session_id in unrestricted:
        unrestricted.remove(session_id)
        load = load - rates.get(session_id, 0) if unrestricted else 0
    restricted.add(session_id)
    mu[session_id] = WAITING_RESPONSE
    expected = reference_process_new_restricted(
        state.capacity, restricted, unrestricted, rates, mu, load
    )
    assert_transition_matches(state, lambda: state.await_response(session_id), expected)
    assert state.state_of(session_id) == WAITING_RESPONSE


@pytest.mark.parametrize("offset, moves", [
    (-2.0, False), (-0.5, True), (0.0, True), (0.5, True), (2.0, True),
])
def test_an_f_e_rate_within_tolerance_of_a_joins_b_e_offends(offset, moves):
    """An F_e member recorded within the tolerance of the B_e a join
    computes offends it even when below it by a plain compare, so the join
    runs ProcessNewRestricted on a known, fresh F_e maximum and moves the
    member to R_e."""
    state = LinkState(("a", "b"), 1e9)
    for session_id in ("r0", "r1"):
        state.add_restricted(session_id)
    member = add_at_join_tie(state, "new", offset, 0)
    assert state._unrestricted_max == state.rate_of(member)
    assert_await_response_moves_and_wakes(state, "new")
    assert (member in state.restricted) == moves


# The index of the IDLE R_e members by recorded rate, the F_e rate maximum that lets the offender pass exit early,
# and the B_e attribute must follow every mutation and transition, in any
# order.

MUTATIONS = [
    "add_restricted", "add_unrestricted", "set_state", "set_rate", "settle", "wake",
    "set_capacity", "process_new_restricted", "await_response", "forget",
    "set_bottleneck", "leave", "refuse",
]


def assert_summaries_match_recount(state):
    """The rate index and B_e equal their recounts, and the F_e rate maximum
    equals its recount or is stale (None) and so recounted at its next read."""
    assert state.bottleneck_rate == state._recomputed_bottleneck_rate()
    assert state._idle_by_rate == state._recomputed_idle_by_rate()
    assert all(state._idle_by_rate.values()), "an empty bucket is kept"
    for recorded, members in state._idle_by_rate.items():
        assert all(state.rate_of(session_id) == recorded for session_id in members)
    assert state._unrestricted_max in (None, state._recomputed_unrestricted_max())


def straddled_rate(data, state):
    """A rate on or around B_e (anywhere up to C_e while B_e is infinite)."""
    rate = state.bottleneck_rate
    if math.isinf(rate):
        return state.capacity * data.draw(st.floats(0.0, 1.0))
    offset = data.draw(st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-3.0, 3.0))
    return straddle(rate, offset, data.draw(st.integers(-2, 2)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_summaries_follow_every_mutation(data):
    state = LinkState(("a", "b"), data.draw(st.sampled_from([1.0, 700.0, 3e7])))
    sessions = ["s%d" % index for index in range(data.draw(st.integers(1, 5)))]
    for _ in range(data.draw(st.integers(1, 40))):
        mutation = data.draw(st.sampled_from(MUTATIONS))
        session_id = data.draw(st.sampled_from(sessions))
        if mutation == "set_state":
            state.set_state(session_id, data.draw(st.sampled_from(SESSION_STATES)))
        elif mutation in ("set_rate", "settle"):
            before = state.state_of(session_id)
            rate = straddled_rate(data, state)
            answer = getattr(state, mutation)(session_id, rate)
            assert state.rate_of(session_id) == rate
            assert state.state_of(session_id) == (IDLE if mutation == "settle" else before)
            if mutation == "settle":
                # Figure 2, line 25, answered by the settle itself.
                assert answer == scan_restricted_settled(state)
        elif mutation == "wake":
            before = state.state_of(session_id)
            assert state.wake(session_id) == (before == IDLE)
            assert state.state_of(session_id) == (WAITING_PROBE if before == IDLE else before)
        elif mutation == "set_capacity":
            state.set_capacity(state.capacity * data.draw(st.sampled_from([0.5, 2.0])))
        elif mutation == "process_new_restricted":
            assert_process_new_restricted_matches_full_scan(state)
        elif mutation == "await_response":
            assert_await_response_matches_full_scan(state, session_id, data)
        elif mutation in REFERENCES:
            assert_matches_reference(state, mutation, session_id)
        else:
            getattr(state, mutation)(session_id)
        assert_summaries_match_recount(state)
        assert_queries_match_full_scan(state)
        assert_summaries_match_recount(state)
