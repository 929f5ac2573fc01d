"""One session lifecycle for every protocol: B-Neck and the three baselines
take the same action batches, refuse the same ones and schedule them the
same way.

Every protocol extends :class:`~repro.core.actions.SessionProtocol`, whose
``apply_actions`` is the one way in, so each test here runs on all four:

* a second join of a session id is refused, in a later batch or in the same
  one;
* the registry maps the id of each active session to its session, in
  activation order, and ``active_sessions`` lists them in that order;
* a join at a NaN or infinite time is refused before the session is
  registered, so a corrected retry succeeds;
* :meth:`session` raises ``KeyError`` for an id that never joined, and a
  leave or change of it is refused;
* an action dated exactly ``now`` is enqueued with its ``API.*`` tag, not
  run synchronously;
* a leave or change dated before the session's join, or naming a session
  that has left, is refused and schedules nothing;
* a leave dated before a change already scheduled for the session is
  refused; a change may be dated before another.

The refusals of every bad batch are checked case by case in
``test_input_checks.py``.
"""

import math
from collections import Counter

import pytest

from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol
from repro.core.actions import ChangeAction, LeaveAction
from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from tests.conftest import join_action, run_bounded

PROTOCOLS = {
    "bneck": BNeckProtocol,
    "bfyz": BFYZProtocol,
    "cg": CGProtocol,
    "rcp": RCPProtocol,
}
# The most events any test here may run: a livelock fails instead of hanging.
MAX_EVENTS = 100000


def _protocol(name):
    """A protocol on one 100 Mb/s link."""
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    return PROTOCOLS[name](network)


def _settle(protocol):
    """Run a while: B-Neck to quiescence, a baseline (which never quiesces)
    for a few probe intervals."""
    if isinstance(protocol, BNeckProtocol):
        run_bounded(protocol, MAX_EVENTS)
    else:
        run_bounded(protocol, MAX_EVENTS, until=protocol.simulator.now + 5e-3)


def _tags(protocol):
    return [entry[4] for entry in protocol.simulator.heap]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_second_join_of_a_session_id_is_refused(name):
    protocol = _protocol(name)
    session = protocol.apply_actions([join_action("dup", 0.0)])["dup"]
    pending = protocol.simulator.pending_events
    for batch in ([join_action("dup", 0.0)], [join_action("other", 1e-3), join_action("other", 1e-3)]):
        with pytest.raises(ValueError, match="already joined"):
            protocol.apply_actions(batch)
    assert protocol.simulator.pending_events == pending
    _settle(protocol)
    assert protocol.active_sessions() == [session]
    with pytest.raises(ValueError, match="already joined"):
        protocol.apply_actions([join_action("dup", protocol.simulator.now)])


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("at", [math.nan, math.inf], ids=repr)
def test_a_join_at_a_non_finite_time_registers_nothing(name, at):
    protocol = _protocol(name)
    with pytest.raises(ValueError, match=repr(at)):
        protocol.apply_actions([join_action("a", at)])
    assert protocol.simulator.pending_events == 0
    assert protocol.network.hosts() == []
    with pytest.raises(KeyError):
        protocol.session("a")
    # The corrected retry is not refused as "already joined".
    protocol.apply_actions([join_action("a", 1e-3)])
    _settle(protocol)
    assert [s.session_id for s in protocol.active_sessions()] == ["a"]
    assert protocol.current_allocation().as_dict()["a"] == pytest.approx(100 * MBPS)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_the_registry_holds_the_active_sessions_in_activation_order(name):
    protocol = _protocol(name)
    now = protocol.simulator.now
    sessions = protocol.apply_actions(
        [join_action("c", now + 2e-6), join_action("a", now), join_action("b", now + 1e-6)]
    )
    _settle(protocol)
    assert list(protocol.registry) == ["a", "b", "c"]
    assert protocol.active_sessions() == [sessions[s] for s in ("a", "b", "c")]
    protocol.apply_actions([LeaveAction("b", protocol.simulator.now)])
    _settle(protocol)
    assert protocol.registry == {"a": sessions["a"], "c": sessions["c"]}
    assert protocol.active_sessions() == [sessions["a"], sessions["c"]]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_session_raises_key_error_for_an_id_that_never_joined(name):
    protocol = _protocol(name)
    protocol.apply_actions([join_action("joined", 0.0)])
    with pytest.raises(KeyError):
        protocol.session("ghost")
    pending = protocol.simulator.pending_events
    for action in (LeaveAction("ghost", 0.0), ChangeAction("ghost", 5 * MBPS, 0.0)):
        with pytest.raises(ValueError, match="names session 'ghost', which has not joined"):
            protocol.apply_actions([action])
    assert protocol.simulator.pending_events == pending


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_call_at_now_is_enqueued_with_its_api_tag(name):
    protocol = _protocol(name)
    simulator = protocol.simulator
    session = protocol.apply_actions([join_action("a", simulator.now)])["a"]
    # The activation waits for its (time, sequence) slot.
    assert "a" not in protocol.registry
    assert _tags(protocol) == ["API.Join"]
    _settle(protocol)
    assert "a" in protocol.registry
    assert protocol.current_allocation().as_dict()["a"] == pytest.approx(100 * MBPS)

    before = Counter(_tags(protocol))
    now = simulator.now
    protocol.apply_actions([ChangeAction("a", 50 * MBPS, now), LeaveAction("a", now)])
    assert session.demand == math.inf
    assert "a" in protocol.registry
    assert Counter(_tags(protocol)) - before == {"API.Change": 1, "API.Leave": 1}
    _settle(protocol)
    assert session.demand == 50 * MBPS
    assert protocol.active_sessions() == []


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_leave_or_change_before_the_join_or_after_the_leave_is_refused(name):
    protocol = _protocol(name)
    protocol.apply_actions([join_action("a", 5e-3)])
    pending = protocol.simulator.pending_events
    for at in (protocol.simulator.now, 1e-3):
        for action in (LeaveAction("a", at), ChangeAction("a", 5 * MBPS, at)):
            with pytest.raises(ValueError, match="before the join of session 'a' at 0.005"):
                protocol.apply_actions([action])
    assert protocol.simulator.pending_events == pending
    assert not protocol.session("a").left
    protocol.apply_actions([LeaveAction("a", 6e-3)])
    for action in (LeaveAction("a", 7e-3), ChangeAction("a", 5 * MBPS, 7e-3)):
        with pytest.raises(ValueError, match="already left"):
            protocol.apply_actions([action])
    run_bounded(protocol, MAX_EVENTS, until=8e-3)
    assert protocol.active_sessions() == []


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_leave_before_a_scheduled_change_is_refused(name):
    protocol = _protocol(name)
    protocol.apply_actions([join_action("a", 0.0)])
    protocol.apply_actions([ChangeAction("a", 5 * MBPS, 5e-3)])
    protocol.apply_actions([ChangeAction("a", 8 * MBPS, 4e-3)])
    pending = protocol.simulator.pending_events
    for at in (protocol.simulator.now, 3e-3, 4.5e-3):
        with pytest.raises(ValueError, match="before a change of session 'a' at 0.005"):
            protocol.apply_actions([LeaveAction("a", at)])
    assert protocol.simulator.pending_events == pending
    assert not protocol.session("a").left
    protocol.apply_actions([LeaveAction("a", 5e-3)])
    run_bounded(protocol, MAX_EVENTS, until=8e-3)
    assert protocol.active_sessions() == []
