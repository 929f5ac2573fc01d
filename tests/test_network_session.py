"""Unit tests for sessions: paths, effective demands, construction checks and
identity by id.  A protocol's registry of active sessions is a plain dict,
tested with the session lifecycle."""

import math

import pytest

from repro.network.session import Session
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

