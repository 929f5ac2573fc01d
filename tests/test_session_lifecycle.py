"""One session lifecycle for every protocol: B-Neck and the three baselines
refuse the same calls and schedule them the same way.

Every protocol extends :class:`~repro.core.actions.SessionProtocol`, so each
test here runs on all four:

* a second join of a session id is refused;
* the registry maps the id of each active session to its session, in
  activation order, and ``active_sessions`` lists them in that order;
* a join at a NaN or infinite time is refused before the session is
  registered, so a corrected retry succeeds;
* :meth:`session` raises ``KeyError`` for an id that never joined;
* a call requested at exactly ``now`` is enqueued with its ``API.*`` tag,
  not run synchronously;
* a direct leave or change dated before the session's join, or naming a
  session that has left, is refused and schedules nothing;
* a direct leave dated before a change already scheduled for the session is
  refused; a change may be dated before another.
"""

import math
from collections import Counter

import pytest

from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.cg import CGProtocol
from repro.baselines.rcp import RCPProtocol
from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.simulation import Simulator

PROTOCOLS = {
    "bneck": BNeckProtocol,
    "bfyz": BFYZProtocol,
    "cg": CGProtocol,
    "rcp": RCPProtocol,
}
HOST_CAPACITY = 1000 * MBPS
HOST_DELAY = microseconds(1)


def _protocol(name):
    """A protocol on one 100 Mb/s link, with two hosts attached to it; the
    simulator's event cap turns a livelock into a failure."""
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = PROTOCOLS[name](network, simulator=Simulator(max_events=100000))
    source = network.attach_host("r0", HOST_CAPACITY, HOST_DELAY).node_id
    sink = network.attach_host("r1", HOST_CAPACITY, HOST_DELAY).node_id
    return protocol, source, sink


def _settle(protocol):
    """Run a while: B-Neck to quiescence, a baseline (which never quiesces)
    for a few probe intervals."""
    if isinstance(protocol, BNeckProtocol):
        protocol.run_until_quiescent()
    else:
        protocol.run(until=protocol.simulator.now + 5e-3)


def _tags(protocol):
    return [entry[4] for entry in protocol.simulator.heap]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_second_join_of_a_session_id_is_refused(name):
    protocol, source, sink = _protocol(name)
    session, _ = protocol.open_session(source, sink, session_id="dup")
    pending = protocol.simulator.pending_events
    with pytest.raises(ValueError, match="already joined"):
        protocol.join(session)
    again = protocol.create_session(source, sink, session_id="dup")
    with pytest.raises(ValueError, match="already joined"):
        protocol.join(again, at=1e-3)
    assert protocol.simulator.pending_events == pending
    _settle(protocol)
    assert [s.session_id for s in protocol.active_sessions()] == ["dup"]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("at", [math.nan, math.inf], ids=repr)
def test_a_join_at_a_non_finite_time_registers_nothing(name, at):
    protocol, source, sink = _protocol(name)
    session = protocol.create_session(source, sink, session_id="a")
    with pytest.raises(ValueError, match=repr(at)):
        protocol.join(session, at=at)
    assert protocol.simulator.pending_events == 0
    with pytest.raises(KeyError):
        protocol.session("a")
    with pytest.raises(ValueError):
        protocol.open_session(source, sink, session_id="b", at=at)
    # The corrected retry is not refused as "already joined".
    protocol.join(session, at=1e-3)
    _settle(protocol)
    assert [s.session_id for s in protocol.active_sessions()] == ["a"]
    assert protocol.current_allocation().as_dict()["a"] == pytest.approx(100 * MBPS)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_the_registry_holds_the_active_sessions_in_activation_order(name):
    protocol, source, sink = _protocol(name)
    now = protocol.simulator.now
    sessions = {}
    for session_id, at in (("c", now + 2e-6), ("a", None), ("b", now + 1e-6)):
        sessions[session_id] = protocol.create_session(source, sink, session_id=session_id)
        protocol.join(sessions[session_id], at=at)
    _settle(protocol)
    assert list(protocol.registry) == ["a", "b", "c"]
    assert protocol.active_sessions() == [sessions[s] for s in ("a", "b", "c")]
    protocol.leave("b")
    assert protocol.registry == {"a": sessions["a"], "c": sessions["c"]}
    assert protocol.active_sessions() == [sessions["a"], sessions["c"]]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_session_raises_key_error_for_an_id_that_never_joined(name):
    protocol, source, sink = _protocol(name)
    protocol.create_session(source, sink, session_id="created")
    for session_id in ("ghost", "created"):
        with pytest.raises(KeyError):
            protocol.session(session_id)
        with pytest.raises(KeyError):
            protocol.leave(session_id)
        with pytest.raises(KeyError):
            protocol.change(session_id, 5 * MBPS)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_call_at_now_is_enqueued_with_its_api_tag(name):
    protocol, source, sink = _protocol(name)
    simulator = protocol.simulator
    session = protocol.create_session(source, sink, session_id="a")
    protocol.join(session, at=simulator.now)
    # The activation waits for its (time, sequence) slot.
    assert "a" not in protocol.registry
    assert _tags(protocol) == ["API.Join"]
    _settle(protocol)
    assert "a" in protocol.registry
    assert protocol.current_allocation().as_dict()["a"] == pytest.approx(100 * MBPS)

    before = Counter(_tags(protocol))
    protocol.change("a", 50 * MBPS, at=simulator.now)
    protocol.leave("a", at=simulator.now)
    assert session.demand == math.inf
    assert "a" in protocol.registry
    assert Counter(_tags(protocol)) - before == {"API.Change": 1, "API.Leave": 1}
    _settle(protocol)
    assert session.demand == 50 * MBPS
    assert protocol.active_sessions() == []


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_direct_leave_or_change_before_the_join_or_after_the_leave_is_refused(name):
    protocol, source, sink = _protocol(name)
    protocol.open_session(source, sink, session_id="a", at=5e-3)
    pending = protocol.simulator.pending_events
    for at in (None, 1e-3):
        with pytest.raises(ValueError, match="before its join at 0.005"):
            protocol.leave("a", at=at)
        with pytest.raises(ValueError, match="before its join at 0.005"):
            protocol.change("a", 5 * MBPS, at=at)
    assert protocol.simulator.pending_events == pending
    assert not protocol.session("a").left
    protocol.leave("a", at=6e-3)
    with pytest.raises(ValueError, match="already left"):
        protocol.leave("a", at=7e-3)
    with pytest.raises(ValueError, match="already left"):
        protocol.change("a", 5 * MBPS, at=7e-3)
    protocol.run(until=8e-3)
    assert protocol.active_sessions() == []


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_direct_leave_before_a_scheduled_change_is_refused(name):
    protocol, source, sink = _protocol(name)
    protocol.open_session(source, sink, session_id="a")
    protocol.change("a", 5 * MBPS, at=5e-3)
    protocol.change("a", 8 * MBPS, at=4e-3)
    pending = protocol.simulator.pending_events
    for at in (None, 3e-3, 4.5e-3):
        with pytest.raises(ValueError, match="cannot leave at .*, before its change at 0.005"):
            protocol.leave("a", at=at)
    assert protocol.simulator.pending_events == pending
    assert not protocol.session("a").left
    protocol.leave("a", at=5e-3)
    protocol.run(until=8e-3)
    assert protocol.active_sessions() == []
