"""Bad demands and bad times are refused before anything is applied.

A session's demand must be positive (infinity is legal, NaN is not) at every
entry point: a batch of actions, a direct ``change`` and a new session.  A
join at a non-finite time is refused before the session is registered, so a
corrected retry succeeds.  Each case runs on B-Neck and on the BFYZ baseline,
whose simulators carry an event cap: a bad value that slipped through would
fail a test rather than livelock it.
"""

import math

import pytest

from repro.baselines.bfyz import BFYZProtocol
from repro.core.actions import ChangeAction, JoinAction
from repro.core.protocol import BNeckProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.simulation import Simulator

PROTOCOLS = {"bneck": BNeckProtocol, "bfyz": BFYZProtocol}
BAD_DEMANDS = [math.nan, 0.0, -1.0]
HOST_CAPACITY = 1000 * MBPS
HOST_DELAY = microseconds(1)


def _join(session_id, demand, at):
    return JoinAction(session_id, "r0", "r1", demand, at, HOST_CAPACITY, HOST_DELAY)


def _settle(protocol):
    """Run a while: B-Neck to quiescence, a baseline (which never quiesces)
    for a few probe intervals."""
    if isinstance(protocol, BNeckProtocol):
        protocol.run_until_quiescent()
    else:
        protocol.run(until=protocol.simulator.now + 5e-3)


def _protocol_with_one_session(name):
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = PROTOCOLS[name](network, simulator=Simulator(max_events=100000))
    protocol.apply_actions([_join("s0", 10 * MBPS, 0.0)])
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
    bad = _join("bad", demand, at) if kind == "join" else ChangeAction("s0", demand, at)
    batch = [_join("a", 20 * MBPS, at), ChangeAction("s0", 5 * MBPS, at), bad]
    before = _footprint(protocol)
    with pytest.raises(ValueError, match="demand must be positive"):
        protocol.apply_actions(batch)
    assert _footprint(protocol) == before
    _settle(protocol)
    assert sorted(session.session_id for session in protocol.active_sessions()) == ["s0"]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("demand", BAD_DEMANDS, ids=repr)
def test_a_direct_change_to_a_bad_demand_raises(name, demand):
    protocol = _protocol_with_one_session(name)
    pending = protocol.simulator.pending_events
    with pytest.raises(ValueError, match="demand must be positive"):
        protocol.change("s0", demand)
    with pytest.raises(ValueError, match="demand must be positive"):
        protocol.change("s0", demand, at=protocol.simulator.now + 1e-3)
    assert protocol.simulator.pending_events == pending
    _settle(protocol)
    assert protocol.current_allocation().as_dict()["s0"] == pytest.approx(10 * MBPS)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("at", [math.nan, math.inf], ids=repr)
def test_a_join_at_a_non_finite_time_registers_nothing(name, at):
    network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
    protocol = PROTOCOLS[name](network, simulator=Simulator(max_events=100000))
    source = network.attach_host("r0", HOST_CAPACITY, HOST_DELAY).node_id
    sink = network.attach_host("r1", HOST_CAPACITY, HOST_DELAY).node_id
    session = protocol.create_session(source, sink, session_id="a")
    with pytest.raises(ValueError, match=repr(at)):
        protocol.join(session, at=at)
    assert protocol.simulator.pending_events == 0
    with pytest.raises(ValueError):
        protocol.open_session(source, sink, session_id="b", at=at)
    # The corrected retry is not refused as "already joined".
    protocol.join(session, at=1e-3)
    _settle(protocol)
    assert [s.session_id for s in protocol.active_sessions()] == ["a"]
    assert protocol.current_allocation().as_dict()["a"] == pytest.approx(100 * MBPS)
