"""Unit tests for sessions and the session registry."""

import math

import pytest

from repro.network.session import Session, SessionRegistry
from repro.network.topology import line_topology
from repro.network.units import MBPS
from tests.conftest import make_session


class TestSession(object):
    def test_basic_properties(self, parking_lot_network):
        session = make_session(parking_lot_network, "s1", "r0", "r3")
        assert session.path_length == 5  # host + 3 backbone hops + host
        assert session.access_link.source == session.source
        assert session.links[-1].target == session.destination
        assert len(session.transit_links) == session.path_length - 1

    def test_effective_demand_clamped_by_access_link(self, parking_lot_network):
        unlimited = make_session(parking_lot_network, "s1", "r0", "r3")
        assert unlimited.effective_demand() == unlimited.access_link.capacity
        limited = make_session(parking_lot_network, "s2", "r0", "r3", demand=10 * MBPS)
        assert limited.effective_demand() == 10 * MBPS

    def test_crosses(self, parking_lot_network):
        session = make_session(parking_lot_network, "s1", "r0", "r2")
        first_backbone = parking_lot_network.link("r0", "r1")
        last_backbone = parking_lot_network.link("r2", "r3")
        assert session.crosses(first_backbone)
        assert not session.crosses(last_backbone)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            Session("s", "a", "a", ["a"], [], demand=1.0)
        network = line_topology(2)
        session = make_session(network, "ok", "r0", "r1")
        with pytest.raises(ValueError):
            Session("bad", session.source, session.destination,
                    session.node_path, session.links[:-1], demand=1.0)
        for demand in (0.0, math.nan):
            with pytest.raises(ValueError):
                Session("bad2", session.source, session.destination,
                        session.node_path, session.links, demand=demand)

    def test_equality_and_hash_by_id(self, parking_lot_network):
        first = make_session(parking_lot_network, "same", "r0", "r1")
        second = make_session(parking_lot_network, "same", "r1", "r2")
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


class TestSessionRegistry(object):
    def test_add_remove_and_lookup(self, parking_lot_network):
        registry = SessionRegistry()
        session = make_session(parking_lot_network, "s1", "r0", "r3")
        registry.add(session)
        assert "s1" in registry
        assert registry.get("s1") is session
        assert len(registry) == 1
        removed = registry.remove("s1")
        assert removed is session
        assert "s1" not in registry
        assert len(registry) == 0

    def test_duplicate_add_rejected(self, parking_lot_network):
        registry = SessionRegistry()
        session = make_session(parking_lot_network, "s1", "r0", "r1")
        registry.add(session)
        with pytest.raises(ValueError):
            registry.add(make_session(parking_lot_network, "s1", "r1", "r2"))

    def test_iteration_and_active_sessions(self, parking_lot_network):
        registry = SessionRegistry()
        ids = ["a", "b", "c"]
        for session_id in ids:
            registry.add(make_session(parking_lot_network, session_id, "r0", "r1"))
        assert [session.session_id for session in registry] == ids
        assert [session.session_id for session in registry.active_sessions()] == ids
