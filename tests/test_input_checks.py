"""Bad demands, bad times and bad session references are refused before
anything is applied.

A batch of actions is the one way into a protocol, and the batch check is
the one place that refuses a call.  A session's demand must be positive
(infinity is legal, NaN is not), for a join and for a change.  A batch is
checked whole against the protocol before any of it is replayed: an action
dated at NaN, at plus or minus infinity or before the simulator's clock, a
leave or change of a session that has not joined, is dated before its join
(in the batch, or in an earlier batch), a leave dated before a change of its
session (likewise), or whose leave was applied before (in an earlier batch
or earlier in the same one), a join id that is taken, a join router that is
not a router, a router pair with no route, a route over a one-way router
link and a bad access-link capacity or delay each raise a ``ValueError``
naming the action, with no host attached, no session registered and no
event scheduled.  Each case runs on B-Neck and on the three baselines (a
capacity change on B-Neck alone, the one protocol that accepts it), and every
run is bounded (``run_bounded``): a bad value that slipped through would fail
a test rather than livelock it.  The lifecycle of an accepted batch, on all four protocols, is
in ``test_session_lifecycle.py``.
"""

import math
import re

import pytest

from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol
from repro.core.actions import CapacityChangeAction, ChangeAction, JoinAction, LeaveAction
from repro.core.protocol import BNeckProtocol
from repro.network.topology import line_topology, single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from tests.conftest import HOST_CAPACITY, join_action, run_bounded

PROTOCOLS = {
    "bneck": BNeckProtocol,
    "bfyz": BFYZProtocol,
    "cg": CGProtocol,
    "rcp": RCPProtocol,
}
BAD_DEMANDS = [math.nan, 0.0, -1.0]
# The most events any test here may run.
MAX_EVENTS = 100000


def _settle(protocol):
    """Run a while: B-Neck to quiescence, a baseline (which never quiesces)
    for a few probe intervals."""
    if isinstance(protocol, BNeckProtocol):
        run_bounded(protocol, MAX_EVENTS)
    else:
        run_bounded(protocol, MAX_EVENTS, until=protocol.simulator.now + 5e-3)


def _protocol_with_one_session(name):
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = PROTOCOLS[name](network)
    protocol.apply_actions([join_action("s0", 0.0, 10 * MBPS)])
    _settle(protocol)
    return protocol


def _footprint(protocol):
    return (
        protocol.simulator.pending_events,
        len(protocol.network.hosts()),
        {session.session_id: session.demand for session in protocol.active_sessions()},
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("kind", ["join", "change"])
@pytest.mark.parametrize("demand", BAD_DEMANDS, ids=repr)
def test_a_bad_last_demand_leaves_the_batch_unapplied(name, kind, demand):
    protocol = _protocol_with_one_session(name)
    at = protocol.simulator.now + 1e-3
    bad = join_action("bad", at, demand) if kind == "join" else ChangeAction("s0", demand, at)
    batch = [join_action("a", at, 20 * MBPS), ChangeAction("s0", 5 * MBPS, at), bad]
    before = _footprint(protocol)
    with pytest.raises(ValueError, match="demand must be positive"):
        protocol.apply_actions(batch)
    assert _footprint(protocol) == before
    _settle(protocol)
    assert sorted(session.session_id for session in protocol.active_sessions()) == ["s0"]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("demand", BAD_DEMANDS, ids=repr)
def test_a_lone_change_to_a_bad_demand_raises(name, demand):
    protocol = _protocol_with_one_session(name)
    pending = protocol.simulator.pending_events
    now = protocol.simulator.now
    for at in (now, now + 1e-3):
        with pytest.raises(ValueError, match="demand must be positive"):
            protocol.apply_actions([ChangeAction("s0", demand, at)])
    assert protocol.simulator.pending_events == pending
    _settle(protocol)
    assert protocol.current_allocation().as_dict()["s0"] == pytest.approx(10 * MBPS)


def _islands_protocol(name):
    """``s0`` joined and settled on ``r0 - r1``, next to an unconnected pair
    of routers ``x0 - x1``; ``gone`` joined and left in earlier batches."""
    protocol = _protocol_with_one_session(name)
    protocol.apply_actions([join_action("gone", protocol.simulator.now + 1e-3, 10 * MBPS)])
    _settle(protocol)
    protocol.apply_actions([LeaveAction("gone", protocol.simulator.now + 1e-3)])
    _settle(protocol)
    network = protocol.network
    network.add_router("x0")
    network.add_router("x1")
    network.add_link("x0", "x1", 100 * MBPS, microseconds(1))
    return protocol


# Each case: the batch, given a time, and the index of the action it names.
BAD_BATCHES = {
    "leave-of-unknown-session": (
        lambda at: [join_action("a", at, 10 * MBPS), LeaveAction("ghost", at)], 1),
    "change-of-unknown-session": (
        lambda at: [join_action("a", at, 10 * MBPS), ChangeAction("ghost", 5 * MBPS, at)], 1),
    "leave-before-its-join": (
        lambda at: [LeaveAction("a", at), join_action("a", at, 10 * MBPS)], 0),
    "change-before-its-join": (
        lambda at: [ChangeAction("a", 5 * MBPS, at), join_action("a", at, 10 * MBPS)], 0),
    "leave-of-a-departed-session": (
        lambda at: [join_action("a", at, 10 * MBPS), LeaveAction("gone", at)], 1),
    "change-of-a-departed-session": (
        lambda at: [join_action("a", at, 10 * MBPS), ChangeAction("gone", 5 * MBPS, at)], 1),
    "leave-repeated-in-the-batch": (
        lambda at: [join_action("a", at, 10 * MBPS), LeaveAction("a", at),
                    LeaveAction("a", at)], 2),
    "leave-dated-before-its-join": (
        lambda at: [join_action("a", at + 1e-3, 10 * MBPS), LeaveAction("a", at)], 1),
    "change-dated-before-its-join": (
        lambda at: [join_action("a", at + 1e-3, 10 * MBPS), ChangeAction("a", 5 * MBPS, at)], 1),
    "change-after-its-leave-in-the-batch": (
        lambda at: [join_action("a", at, 10 * MBPS), LeaveAction("a", at),
                    ChangeAction("a", 5 * MBPS, at)], 2),
    "join-repeated-in-the-batch": (
        lambda at: [join_action("a", at, 10 * MBPS), join_action("a", at, 20 * MBPS)], 1),
    "join-of-a-joined-session": (
        lambda at: [join_action("a", at, 10 * MBPS), join_action("s0", at, 10 * MBPS)], 1),
    "join-to-an-unknown-router": (
        lambda at: [join_action("a", at, 10 * MBPS),
                    join_action("b", at, 10 * MBPS, "r0", "nowhere")], 1),
    "join-from-a-host": (
        lambda at: [join_action("a", at, 10 * MBPS),
                    join_action("b", at, 10 * MBPS, "host-1", "r1")], 1),
    "join-between-unconnected-routers": (
        lambda at: [join_action("a", at, 10 * MBPS),
                    join_action("b", at, 10 * MBPS, "r0", "x1")], 1),
    "join-with-a-zero-host-capacity": (
        lambda at: [join_action("a", at, 10 * MBPS),
                    join_action("b", at, 10 * MBPS, capacity=0.0)], 1),
    "join-with-a-nan-host-delay": (
        lambda at: [join_action("a", at, 10 * MBPS),
                    JoinAction("b", "r0", "r1", 10 * MBPS, at, HOST_CAPACITY, math.nan)], 1),
}


def _dated(kind, date):
    """A batch maker: a good join, then a ``kind`` action dated
    ``date(at)``."""
    def make_batch(at):
        when = date(at)
        if kind == "join":
            bad = join_action("b", when, 10 * MBPS)
        elif kind == "leave":
            bad = LeaveAction("s0", when)
        elif kind == "change":
            bad = ChangeAction("s0", 5 * MBPS, when)
        else:
            bad = CapacityChangeAction("r0", "r1", 50 * MBPS, when)
        return [join_action("a", at, 10 * MBPS), bad]
    return make_batch, 1


# An event at a non-finite time would move the clock there, or never run.
BAD_BATCHES.update(
    ("%s-at-%s" % (kind, label), _dated(kind, lambda at, when=when: when))
    for kind in ("join", "leave", "change")
    for label, when in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf))
)

# Every API call takes its (time, sequence) slot on the event heap, so no
# action may be dated before the clock: here 1 ms before it (the batch's
# good join is 1 ms after it), and after the join of ``s0``.
BEFORE_NOW = ("join", "leave", "change", "capacity")
BAD_BATCHES.update(
    ("%s-before-now" % kind, _dated(kind, lambda at: at - 2e-3)) for kind in BEFORE_NOW
)

# The cause a refusal must also name, where more than one could apply: the
# islands ``x0 - x1`` are added after the first route, so a join to them is
# refused because no path reaches them, not because they are unknown.
REASONS = {"join-between-unconnected-routers": "no path from 'r0' to 'x1'"}
REASONS.update(("%s-before-now" % kind, "is dated before the simulator's clock")
               for kind in BEFORE_NOW)

# The protocols a case runs on, where not all four: only B-Neck accepts
# capacity changes.
ACCEPTED_BY = {"capacity-before-now": ["bneck"]}


def _state(protocol):
    return (
        protocol.simulator.pending_events,
        protocol.network.number_of_nodes(),
        sorted(protocol.registry),
    )


@pytest.mark.parametrize("case, name", [
    (case, name) for case in sorted(BAD_BATCHES)
    for name in ACCEPTED_BY.get(case, sorted(PROTOCOLS))])
def test_a_batch_with_a_bad_session_reference_changes_nothing(case, name):
    protocol = _islands_protocol(name)
    make_batch, bad_index = BAD_BATCHES[case]
    batch = make_batch(protocol.simulator.now + 1e-3)
    before = _state(protocol)
    with pytest.raises(ValueError, match=re.escape(repr(batch[bad_index]))) as refusal:
        protocol.apply_actions(batch)
    assert REASONS.get(case, "") in str(refusal.value)
    assert _state(protocol) == before
    for action in batch:
        if action.kind == "join" and action.session_id != "s0":
            with pytest.raises(KeyError):
                protocol.session(action.session_id)
    # Without the bad action the same batch applies and settles.
    del batch[bad_index]
    protocol.apply_actions(batch)
    _settle(protocol)
    assert "s0" in protocol.registry


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("kind", ["leave", "change"])
def test_an_action_dated_before_a_join_of_an_earlier_batch_changes_nothing(name, kind):
    """Batch 1 joins ``a`` at 5 ms; batch 2 names it at 1 ms, before the
    join has run.  Accepted, a leave would run first and leave ``a`` active
    for good, and a change would reach links that do not know ``a`` yet."""
    network = line_topology(3, capacity=100 * MBPS, delay=microseconds(1))
    protocol = PROTOCOLS[name](network)
    protocol.apply_actions([join_action("a", 5e-3, 10 * MBPS, "r0", "r2")])
    bad = LeaveAction("a", 1e-3) if kind == "leave" else ChangeAction("a", 5 * MBPS, 1e-3)
    before = _state(protocol)
    with pytest.raises(ValueError, match=re.escape(
            "%r is dated before the join of session 'a' at 0.005" % (bad,))):
        protocol.apply_actions([bad])
    assert _state(protocol) == before
    assert not protocol.session("a").left
    assert protocol.session("a").joined_at == 5e-3
    # Dated at the join, the same action applies and settles.
    protocol.apply_actions([bad._replace(at=5e-3)])
    run_bounded(protocol, MAX_EVENTS, until=12e-3)
    rates = protocol.current_allocation().as_dict()
    assert rates == ({} if kind == "leave" else {"a": pytest.approx(5 * MBPS)})


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("split", [False, True], ids=["one-batch", "two-batches"])
def test_a_leave_dated_before_a_pending_change_changes_nothing(name, split):
    """``a`` joined at 0 and the run is at 2 ms; a change of ``a`` at 5 ms
    comes before a leave of it at 3 ms, in the same batch or in an earlier
    one.  Accepted, the leave would run first and the change would reach a
    departed session: B-Neck's Probe meets links that no longer know ``a``,
    and BFYZ keeps a demand for it."""
    network = line_topology(3, capacity=100 * MBPS, delay=microseconds(1))
    protocol = PROTOCOLS[name](network)
    protocol.apply_actions([join_action("a", 0.0, 10 * MBPS)])
    run_bounded(protocol, MAX_EVENTS, until=2e-3)
    change = ChangeAction("a", 5 * MBPS, 5e-3)
    leave = LeaveAction("a", 3e-3)
    batch = [change, leave]
    if split:
        protocol.apply_actions([batch.pop(0)])
    before = _state(protocol)
    with pytest.raises(ValueError, match=re.escape(
            "%r is dated before a change of session 'a' at 0.005" % (leave,))):
        protocol.apply_actions(batch)
    assert _state(protocol) == before
    assert not protocol.session("a").left
    # Dated at the change, the same leave applies after it and settles.
    batch[-1] = leave._replace(at=5e-3)
    protocol.apply_actions(batch)
    run_bounded(protocol, MAX_EVENTS, until=12e-3)
    assert protocol.active_sessions() == []
    assert protocol.current_allocation().as_dict() == {}


def test_a_baseline_refuses_a_capacity_change_before_applying_the_batch():
    protocol = _protocol_with_one_session("bfyz")
    at = protocol.simulator.now + 1e-3
    before = _state(protocol)
    with pytest.raises(ValueError, match="capacity-change"):
        protocol.apply_actions(
            [join_action("a", at, 10 * MBPS), CapacityChangeAction("r0", "r1", 50 * MBPS, at)]
        )
    assert _state(protocol) == before


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_join_over_a_one_way_router_link_changes_nothing(name):
    """Upstream packets cross the reverse of every path link, so a route over
    a one-way router link is refused before any host is attached."""
    network = line_topology(3, capacity=100 * MBPS, delay=microseconds(1))
    network.add_link("r2", "r0", 100 * MBPS, microseconds(1), bidirectional=False)
    protocol = PROTOCOLS[name](network)
    protocol.apply_actions([join_action("s0", 0.0, 10 * MBPS, "r0", "r2")])
    _settle(protocol)
    at = protocol.simulator.now + 1e-3
    batch = [join_action("a", at, 10 * MBPS, "r0", "r2"),
             join_action("b", at, 10 * MBPS, "r2", "r0")]
    before = _state(protocol)
    with pytest.raises(ValueError, match=re.escape("%r routes over the one-way link 'r2' -> 'r0'"
                                                   % (batch[1],))):
        protocol.apply_actions(batch)
    assert _state(protocol) == before
    with pytest.raises(KeyError):
        protocol.session("a")
    # Without the one-way join the same batch applies and settles.
    protocol.apply_actions(batch[:1])
    _settle(protocol)
    assert sorted(session.session_id for session in protocol.active_sessions()) == ["a", "s0"]
