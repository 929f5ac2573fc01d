"""Unit tests for the B-Neck packet types and the per-link protocol state."""

import math

import pytest

import pickle

from repro.core.packets import (
    BOTTLENECK,
    Bottleneck,
    Join,
    Leave,
    PACKET_TYPES,
    Probe,
    RESPONSE,
    Response,
    SetBottleneck,
    UPDATE,
    Update,
)
from repro.core.state import IDLE, LinkState, WAITING_PROBE, WAITING_RESPONSE
from repro.network.units import MBPS


class TestPackets(object):
    def test_join_and_probe_carry_rate_and_restricting_link(self):
        join = Join("s1", 10 * MBPS, ("a", "b"))
        probe = Probe("s1", 20 * MBPS, ("b", "c"))
        assert join.session_id == "s1"
        assert join.rate == 10 * MBPS
        assert join.restricting_link == ("a", "b")
        assert probe.rate == 20 * MBPS

    def test_response_validates_tau(self):
        for tau in (RESPONSE, UPDATE, BOTTLENECK):
            assert Response("s", tau, 1.0, ("a", "b")).tau == tau
        with pytest.raises(ValueError):
            Response("s", "NONSENSE", 1.0, ("a", "b"))

    def test_set_bottleneck_normalizes_beta(self):
        assert SetBottleneck("s", 1).found_bottleneck is True
        assert SetBottleneck("s", 0).found_bottleneck is False

    def test_simple_packets_only_carry_the_session(self):
        for packet_class in (Update, Bottleneck, Leave):
            packet = packet_class("s9")
            assert packet.session_id == "s9"

    def test_packet_type_names_are_unique_and_complete(self):
        assert len(set(PACKET_TYPES)) == 7
        assert {Join.type_name, Probe.type_name, Response.type_name, Update.type_name,
                Bottleneck.type_name, SetBottleneck.type_name, Leave.type_name} == set(PACKET_TYPES)

    def test_repr_contains_fields(self):
        assert "rate" in repr(Join("s", 1.0, None))
        assert "found_bottleneck" in repr(SetBottleneck("s", True))


def _one_of_each_packet():
    return [
        Join("s1", 10 * MBPS, ("a", "b")),
        Probe("s2", 20 * MBPS, ("b", "c")),
        Response("s3", UPDATE, 30 * MBPS, ("c", "d")),
        Update("s4"),
        Bottleneck("s5"),
        SetBottleneck("s6", True),
        Leave("s7"),
    ]


class TestPacketPickling(object):
    def test_pickle_round_trip(self):
        for packet in _one_of_each_packet():
            clone = pickle.loads(pickle.dumps(packet))
            assert type(clone) is type(packet)
            for field in packet._fields():
                assert getattr(clone, field) == getattr(packet, field)


class TestLinkState(object):
    def make_state(self, capacity=100 * MBPS):
        return LinkState(("a", "b"), capacity)

    def test_initially_empty_and_unrestricting(self):
        state = self.make_state()
        assert state.sessions() == set()
        assert not state.knows("s1")
        assert state.bottleneck_rate() == math.inf
        assert state.state_of("s1") == IDLE
        assert state.rate_of("s1") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LinkState(("a", "b"), 0.0)

    def test_membership_moves_between_sets(self):
        state = self.make_state()
        state.add_restricted("s1")
        assert "s1" in state.restricted
        state.add_unrestricted("s1")
        assert "s1" in state.unrestricted
        assert "s1" not in state.restricted
        state.add_restricted("s1")
        assert "s1" in state.restricted
        assert "s1" not in state.unrestricted

    def test_bottleneck_rate_formula(self):
        state = self.make_state(90 * MBPS)
        state.add_restricted("a")
        state.add_restricted("b")
        state.add_unrestricted("c")
        state.set_rate("c", 30 * MBPS)
        # (90 - 30) / 2
        assert state.bottleneck_rate() == pytest.approx(30 * MBPS)

    def test_set_state_validates(self):
        state = self.make_state()
        for value in (IDLE, WAITING_PROBE, WAITING_RESPONSE):
            state.set_state("s", value)
            assert state.state_of("s") == value
        with pytest.raises(ValueError):
            state.set_state("s", "SLEEPING")

    def test_forget_removes_everything(self):
        state = self.make_state()
        state.add_restricted("s1")
        state.set_state("s1", WAITING_PROBE)
        state.set_rate("s1", 5.0)
        state.forget("s1")
        assert not state.knows("s1")
        assert state.rate_of("s1") is None
        assert state.state_of("s1") == IDLE

    def test_all_restricted_settled(self):
        state = self.make_state(100 * MBPS)
        assert not state.all_restricted_settled()  # empty R_e
        state.add_restricted("s1")
        state.add_restricted("s2")
        state.set_state("s1", IDLE)
        state.set_state("s2", IDLE)
        state.set_rate("s1", 50 * MBPS)
        state.set_rate("s2", 50 * MBPS)
        assert state.all_restricted_settled()
        state.set_state("s2", WAITING_RESPONSE)
        assert not state.all_restricted_settled()
        state.set_state("s2", IDLE)
        state.set_rate("s2", 40 * MBPS)
        assert not state.all_restricted_settled()

    def test_is_stable_definition2(self):
        state = self.make_state(100 * MBPS)
        # Empty link state is trivially stable.
        assert state.is_stable()
        state.add_restricted("s1")
        state.set_state("s1", IDLE)
        state.set_rate("s1", 60 * MBPS)
        state.add_unrestricted("s2")
        state.set_state("s2", IDLE)
        state.set_rate("s2", 40 * MBPS)
        # B_e = (100 - 40) / 1 = 60: restricted at 60, unrestricted below -> stable.
        assert state.is_stable()
        # An unrestricted session at (or above) B_e breaks stability.
        state.set_rate("s2", 60 * MBPS)
        assert not state.is_stable()

    def test_is_stable_requires_idle_sessions(self):
        state = self.make_state()
        state.add_restricted("s1")
        state.set_state("s1", WAITING_PROBE)
        state.set_rate("s1", 100 * MBPS)
        assert not state.is_stable()

    def test_is_stable_requires_rates_at_bottleneck(self):
        state = self.make_state(100 * MBPS)
        state.add_restricted("s1")
        state.add_restricted("s2")
        for session_id in ("s1", "s2"):
            state.set_state(session_id, IDLE)
        state.set_rate("s1", 50 * MBPS)
        state.set_rate("s2", 30 * MBPS)
        assert not state.is_stable()

    def test_snapshot_is_a_plain_copy(self):
        state = self.make_state()
        state.add_restricted("s1")
        state.set_rate("s1", 10 * MBPS)
        snapshot = state.snapshot()
        snapshot["restricted"].add("tampered")
        assert "tampered" not in state.restricted
        assert snapshot["capacity"] == 100 * MBPS
