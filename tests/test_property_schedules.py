"""Schedule exploration: B-Neck's guarantees on many legal interleavings.

The other protocol property tests give every link the same 1 us delay, so a
scenario has essentially one schedule.  Here hypothesis draws a separate
propagation delay for every directed link and every host access link, which
reorders packet deliveries, joins, leaves, demand changes and capacity
changes against each other -- the schedule *is* the set of link delays.
Capacities and demands are chosen to produce ties: capacities that split into
equal shares, and demands equal to those shares, which is where the float
tolerance in the protocol's rate compares decides.

After quiescence every run must satisfy:

* the run passes :func:`~repro.core.validation.validate_against_oracle`:
  every RouterLink and every active source is stable (Definition 2), no
  packet is in flight, the rates equal Centralized B-Neck's and the max-min
  certificate finds no violation;
* every link's incrementally maintained ``F_e`` load, ``B_e``, index of IDLE
  ``R_e`` members by recorded rate and ``F_e`` rate maximum equal a
  recomputation (the index alone decides the bottleneck-detection
  condition, so it is checked whole).

And after every delivery of every run, no packet object is held by two
pending deliveries: each hop forwards the packet it was given.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.actions import CapacityChangeAction, ChangeAction, JoinAction, LeaveAction
from repro.core.packets import PACKET_CLASSES
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.network.graph import Network
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from tests.conftest import script_access_links

# Equal shares everywhere: 30 Mbps splits into 10/15/30, 60 into 15/20/30,
# and 100 Mbps into thirds that floats can only round -- the case where the
# protocol's tolerance, not exact equality, has to recognise a tie.
CAPACITIES = [30 * MBPS, 60 * MBPS, 90 * MBPS, 100 * MBPS]
DEMANDS = [math.inf, 10 * MBPS, 15 * MBPS, 20 * MBPS, 30 * MBPS, 100 * MBPS / 3]
ACCESS_CAPACITIES = [30 * MBPS, 1000 * MBPS]
DELAYS_US = st.integers(1, 50)
# Join, churn and capacity-change times, inside the first convergence.
TIMES_US = st.integers(0, 150)
# The most events one schedule may run.
MAX_EVENTS = 2_000_000


@st.composite
def schedules(draw):
    """A small topology with random per-link delays, sessions and churn."""
    router_count = draw(st.integers(2, 5))
    edges = [(index, index + 1) for index in range(router_count - 1)]
    chords = [
        (first, second)
        for first in range(router_count)
        for second in range(first + 2, router_count)
    ]
    if chords:
        edges += draw(st.lists(st.sampled_from(chords), max_size=2, unique=True))
    links = [
        (first, second, draw(st.sampled_from(CAPACITIES)), draw(DELAYS_US), draw(DELAYS_US))
        for first, second in edges
    ]
    session_count = draw(st.integers(2, 6))
    sessions = [
        (
            draw(st.integers(0, router_count - 1)),  # source router
            draw(st.integers(0, router_count - 2)),  # destination router (shifted)
            draw(st.sampled_from(DEMANDS)),
            draw(st.sampled_from(ACCESS_CAPACITIES)),
            draw(DELAYS_US),
            draw(DELAYS_US),
            draw(TIMES_US),                          # join time
        )
        for _ in range(session_count)
    ]
    # Session 0 leaves, session 1 changes its demand; others may do either.
    churn = [("leave", 0), ("change", 1)]
    for index in range(2, session_count):
        action = draw(st.sampled_from([None, "leave", "change"]))
        if action is not None:
            churn.append((action, index))
    churn = [
        (action, index, draw(st.sampled_from(DEMANDS[1:])), draw(TIMES_US))
        for action, index in churn
    ]
    capacity_changes = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(links) - 1),
                st.sampled_from(CAPACITIES),
                TIMES_US,
            ),
            min_size=1,
            max_size=2,
        )
    )
    return links, sessions, churn, capacity_changes


def build(links, sessions):
    """Wire the topology and schedule every session's join."""
    network = Network("schedule-exploration")
    for index in range(1 + max(max(first, second) for first, second, *_ in links)):
        network.add_router("r%d" % index)
    for first, second, capacity, forward_us, backward_us in links:
        source, target = "r%d" % first, "r%d" % second
        network.add_link(source, target, capacity, microseconds(forward_us), bidirectional=False)
        network.add_link(target, source, capacity, microseconds(backward_us), bidirectional=False)
    protocol = BNeckProtocol(network)
    hosts = []  # each host's access links: its own delay, up and down
    joins = []
    joined_at = []
    for index, spec in enumerate(sessions):
        source_index, sink_index, demand, access, up_us, down_us, join_us = spec
        if sink_index >= source_index:
            sink_index += 1
        hosts += [(access, microseconds(up_us), microseconds(up_us)),
                  (access, microseconds(down_us), microseconds(down_us))]
        joins.append(JoinAction("s%d" % index, "r%d" % source_index, "r%d" % sink_index, demand,
                                microseconds(join_us), access, microseconds(up_us)))
        joined_at.append(join_us)
    script_access_links(network, hosts)
    protocol.apply_actions(joins)
    return protocol, joined_at


def churn_and_capacity(protocol, links, churn, capacity_changes, base_us, joined_at=None):
    """Schedule leaves, demand changes and capacity changes after ``base_us``
    (and, for churn, after the session's own join), as one batch; a capacity
    change sets both directions of its link."""
    actions = []
    for action, index, demand, offset_us in churn:
        start_us = base_us if joined_at is None else max(base_us, joined_at[index])
        when = microseconds(start_us + 1 + offset_us)
        if action == "leave":
            actions.append(LeaveAction("s%d" % index, when))
        else:
            actions.append(ChangeAction("s%d" % index, demand, when))
    for link_index, capacity, offset_us in capacity_changes:
        first, second = "r%d" % links[link_index][0], "r%d" % links[link_index][1]
        when = microseconds(base_us + offset_us)
        actions += [CapacityChangeAction(first, second, capacity, when),
                    CapacityChangeAction(second, first, capacity, when)]
    protocol.apply_actions(actions)


def run_checking_packet_ownership(protocol):
    """Run to quiescence one event at a time; after each event, no packet
    object is held by two pending heap entries.  A delivery's entry is
    ``(time, sequence, handler, target, packet)``.  Every run this is given
    has a join or a leave to send, so a run that never sees a pending packet
    has missed the deliveries and would pass vacuously.  More than
    ``MAX_EVENTS`` events fail the run: a livelock must not hang CI."""
    simulator = protocol.simulator
    seen = 0
    while simulator.step():
        assert simulator.events_processed <= MAX_EVENTS
        packets = [
            entry[4] for entry in simulator.heap if isinstance(entry[4], PACKET_CLASSES)
        ]
        assert len({id(packet) for packet in packets}) == len(packets), packets
        seen += len(packets)
    assert seen > 0


def assert_converged(protocol):
    assert protocol.quiescent
    result = validate_against_oracle(protocol)
    assert result.valid, "the checkpoint verdict fails: %r" % result
    for state in protocol.all_link_states():
        assert state.is_stable(), "unstable after quiescence: %r" % (state,)
        assert math.isclose(
            state.unrestricted_load(),
            state._recomputed_unrestricted_load(),
            rel_tol=1e-12,
            abs_tol=1e-6,
        ), state
        assert state.bottleneck_rate == state._recomputed_bottleneck_rate(), state
        assert state._idle_by_rate == state._recomputed_idle_by_rate(), state
        assert state._unrestricted_max in (None, state._recomputed_unrestricted_max()), state


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_churn_during_convergence(schedule):
    """Every action lands while the joins are still converging."""
    links, sessions, churn, capacity_changes = schedule
    protocol, joined_at = build(links, sessions)
    churn_and_capacity(protocol, links, churn, capacity_changes, 0, joined_at)
    run_checking_packet_ownership(protocol)
    assert_converged(protocol)
    active = {"s%d" % index for index in range(len(sessions))}
    active -= {"s%d" % index for action, index, _, _ in churn if action == "leave"}
    assert {session.session_id for session in protocol.active_sessions()} == active


# A tie only the tolerance sees: on a 100 Mbps link, B_e = 100/3 Mbps is
# computed by division, and a session demanding exactly 100 Mbps / 3 must be
# recognised as restricted at it.  A raw float compare in the F_e offender
# pass leaves the link unstable here.
TOLERANCE_TIE = (
    [(0, 1, 100 * MBPS, 1, 1)],
    [
        (1, 0, math.inf, 1000 * MBPS, 1, 1, 0),
        (1, 0, math.inf, 1000 * MBPS, 1, 1, 19),
        (0, 0, math.inf, 30 * MBPS, 1, 1, 0),
        (1, 0, 100 * MBPS / 3, 1000 * MBPS, 1, 1, 0),
    ],
    [("leave", 0, 10 * MBPS, 0), ("change", 1, 10 * MBPS, 0)],
    [(0, 30 * MBPS, 0)],
)


@settings(max_examples=100, deadline=None)
@given(schedules())
@example(TOLERANCE_TIE)
def test_churn_after_quiescence(schedule):
    """The same actions, but against a converged network: it must reconverge."""
    links, sessions, churn, capacity_changes = schedule
    protocol, _ = build(links, sessions)
    run_checking_packet_ownership(protocol)
    assert_converged(protocol)
    base_us = int(math.ceil(protocol.simulator.now / microseconds(1)))
    churn_and_capacity(protocol, links, churn, capacity_changes, base_us)
    run_checking_packet_ownership(protocol)
    assert_converged(protocol)
