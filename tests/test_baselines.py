"""Tests for the non-quiescent baseline protocols (BFYZ, CG, RCP)."""

import math

import pytest

from repro.baselines.bfyz import BFYZProtocol, ConsistentMarkingController
from repro.baselines.cg import CGProtocol, ConstantStateController
from repro.baselines.rcp import RCPLinkController, RCPProtocol
from repro.core.actions import ChangeAction, LeaveAction
from repro.core.centralized import centralized_bneck
from repro.experiments.experiment3 import Experiment3Config, run_experiment3
from repro.network.graph import Link
from repro.network.topology import line_topology, single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds, milliseconds
from tests.conftest import join_action, open_session


def make_protocol(protocol_class, network, **kwargs):
    kwargs.setdefault("probe_interval", milliseconds(1))
    return protocol_class(network, **kwargs)


class TestConsistentMarkingController(object):
    def make(self, capacity=100 * MBPS):
        return ConsistentMarkingController(Link("a", "b", capacity, 1e-6))

    def test_empty_link_advertises_full_capacity(self):
        assert self.make().advertised_rate() == pytest.approx(100 * MBPS)

    def test_even_split_between_greedy_sessions(self):
        controller = self.make()
        controller.on_probe("a", float("inf"), 0.0)
        controller.on_probe("b", float("inf"), 0.0)
        assert controller.advertised_rate() == pytest.approx(50 * MBPS)

    def test_restricted_elsewhere_sessions_release_surplus(self):
        controller = self.make()
        controller.on_probe("small", float("inf"), 10 * MBPS)
        controller.on_probe("big", float("inf"), 0.0)
        # small reports it only uses 10: the rest goes to big.
        assert controller.advertised_rate() == pytest.approx(90 * MBPS)

    def test_on_leave_forgets_state(self):
        controller = self.make()
        controller.on_probe("a", float("inf"), 0.0)
        controller.on_probe("b", float("inf"), 0.0)
        controller.on_leave("a")
        assert controller.advertised_rate() == pytest.approx(100 * MBPS)

    def test_uses_per_session_state(self):
        controller = self.make()
        for index in range(5):
            controller.on_probe("s%d" % index, float("inf"), 0.0)
        assert len(controller.recorded) == 5


class TestConstantStateController(object):
    def test_state_size_is_constant(self):
        controller = ConstantStateController(Link("a", "b", 100 * MBPS, 1e-6))
        for index in range(100):
            controller.on_probe("s%d" % index, float("inf"), 0.0)
        # No per-session container: only counters and sums.
        assert not hasattr(controller, "recorded")
        assert isinstance(controller._probe_count, int)

    def test_damped_update_moves_towards_fair_share(self):
        controller = ConstantStateController(
            Link("a", "b", 100 * MBPS, 1e-6), gain=0.5
        )
        for index in range(4):
            controller.on_probe("s%d" % index, float("inf"), 0.0)
        before = controller.advertised
        controller.periodic_update([0.0] * 4, milliseconds(1))
        after = controller.advertised
        # Fair share is 25; the damped update moves halfway from 100 to 25.
        assert after < before
        assert after == pytest.approx(62.5 * MBPS)

    def test_idle_link_relaxes_towards_capacity(self):
        controller = ConstantStateController(
            Link("a", "b", 100 * MBPS, 1e-6), gain=1.0
        )
        controller.advertised = 10 * MBPS
        controller.periodic_update([], milliseconds(1))
        assert controller.advertised == pytest.approx(100 * MBPS)


class TestRCPLinkController(object):
    def test_underloaded_link_raises_its_rate(self):
        controller = RCPLinkController(Link("a", "b", 100 * MBPS, 1e-6))
        controller.advertised = 10 * MBPS
        controller.periodic_update([10 * MBPS], milliseconds(1))
        assert controller.advertised > 10 * MBPS

    def test_overloaded_link_lowers_its_rate(self):
        controller = RCPLinkController(Link("a", "b", 100 * MBPS, 1e-6))
        controller.advertised = 100 * MBPS
        controller.periodic_update([90 * MBPS, 90 * MBPS], milliseconds(1))
        assert controller.advertised < 100 * MBPS

    def test_rate_is_bounded(self):
        controller = RCPLinkController(Link("a", "b", 100 * MBPS, 1e-6))
        for _ in range(50):
            controller.periodic_update([], milliseconds(1))
        assert controller.advertised <= 100 * MBPS
        for _ in range(200):
            controller.periodic_update([500 * MBPS], milliseconds(1))
        assert controller.advertised >= controller.minimum_rate


@pytest.mark.parametrize("protocol_class", [BFYZProtocol, CGProtocol, RCPProtocol])
class TestBaselineProtocols(object):
    def test_single_session_approaches_capacity(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        open_session(protocol, "r0", "r1", "solo")
        protocol.run(until=milliseconds(80))
        rate = protocol.current_allocation().rate("solo")
        assert rate == pytest.approx(100 * MBPS, rel=0.05)

    def test_two_sessions_approach_even_split(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        open_session(protocol, "r0", "r1", "a")
        open_session(protocol, "r0", "r1", "b")
        protocol.run(until=milliseconds(120))
        allocation = protocol.current_allocation()
        oracle = centralized_bneck(protocol.active_sessions())
        assert allocation.max_relative_difference(oracle) < 0.05

    def test_never_quiescent(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        open_session(protocol, "r0", "r1", "solo")
        protocol.run(until=milliseconds(50))
        packets_so_far = protocol.tracer.total
        assert protocol.simulator.pending_events > 0
        protocol.run(until=milliseconds(100))
        # Control traffic keeps flowing at a steady pace.
        assert protocol.tracer.total > packets_so_far

    def test_leave_stops_probing_for_that_session(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        open_session(protocol, "r0", "r1", "temp")
        open_session(protocol, "r0", "r1", "perm")
        protocol.run(until=milliseconds(20))
        protocol.apply_actions([LeaveAction("temp", protocol.simulator.now)])
        protocol.run(until=milliseconds(40))
        assert "temp" not in protocol.current_allocation()
        by_session = protocol.tracer.by_session
        packets_temp = by_session["temp"]
        protocol.run(until=milliseconds(80))
        assert protocol.tracer.by_session["temp"] == packets_temp
        assert protocol.tracer.by_session["perm"] > packets_temp

    def test_demand_is_respected(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        open_session(protocol, "r0", "r1", "capped", demand=10 * MBPS)
        protocol.run(until=milliseconds(60))
        assert protocol.current_allocation().rate("capped") <= 10 * MBPS * 1.001

    def test_a_nan_time_batch_is_rejected_whole(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        batch = [
            join_action("j", 1e-3, 10 * MBPS),
            LeaveAction("j", math.nan),
        ]
        with pytest.raises(ValueError, match="finite absolute time"):
            protocol.apply_actions(batch)
        assert protocol.simulator.pending_events == 0
        assert network.hosts() == []
        assert len(protocol.registry) == 0

    def test_change_updates_demand(self, protocol_class):
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(protocol_class, network)
        open_session(protocol, "r0", "r1", "s")
        protocol.run(until=milliseconds(40))
        protocol.apply_actions([ChangeAction("s", 5 * MBPS, protocol.simulator.now)])
        protocol.run(until=milliseconds(80))
        assert protocol.current_allocation().rate("s") <= 5 * MBPS * 1.001


@pytest.mark.parametrize("protocol_class", [BFYZProtocol, RCPProtocol])
def test_departed_sessions_release_their_hosts_and_access_controllers(protocol_class):
    """Five rounds of 40 joins that all leave again: every departed session
    is released as its leave takes effect, with the heap never empty, so no
    host and no controller of an access or egress link stays behind."""
    network = line_topology(3, capacity=100 * MBPS, delay=microseconds(1))
    protocol = make_protocol(protocol_class, network)
    routers = ["r0", "r1", "r2"]
    for round_index in range(5):
        start = protocol.simulator.now + 1e-4
        joins = [
            join_action("s%d-%d" % (round_index, index), start + index * 1e-5, math.inf,
                        routers[index % 3], routers[(index + 1) % 3])
            for index in range(40)
        ]
        protocol.apply_actions(joins)
        protocol.run(until=start + milliseconds(3))
        assert len(protocol.active_sessions()) == 40
        protocol.apply_actions([
            LeaveAction(join.session_id, protocol.simulator.now + index * 1e-5)
            for index, join in enumerate(joins)
        ])
        protocol.run(until=protocol.simulator.now + milliseconds(1))
    assert protocol.active_sessions() == []
    assert network.hosts() == []
    assert sorted(protocol._per_link) == [
        ("r0", "r1"), ("r1", "r0"), ("r1", "r2"), ("r2", "r1")]
    # A released session keeps its record and its id.
    assert protocol.session("s0-0").left
    with pytest.raises(ValueError, match="already joined"):
        protocol.apply_actions([join_action("s0-0", protocol.simulator.now)])


class TestBFYZTransientOverestimation(object):
    def test_existing_session_overshoots_when_competition_arrives(self):
        # One session settles at full capacity; a second one joins.  Until the
        # first session's next probe cycle its rate still exceeds the new fair
        # share -- the over-estimation the paper contrasts with B-Neck.
        network = single_link_topology(capacity=100 * MBPS)
        protocol = make_protocol(BFYZProtocol, network, probe_interval=milliseconds(5))
        open_session(protocol, "r0", "r1", "old")
        protocol.run(until=milliseconds(20))
        assert protocol.current_allocation().rate("old") == pytest.approx(100 * MBPS, rel=0.05)
        open_session(protocol, "r0", "r1", "new")
        protocol.run(until=protocol.simulator.now + milliseconds(1))
        oracle = centralized_bneck(protocol.active_sessions())
        transient = protocol.current_allocation().rate("old")
        assert transient > oracle.rate("old") * 1.5


# Experiment 3 on Small (seed 5, 40 joins, 4 leaves, 15 ms) pins each
# baseline's schedule: the control packets per 3 ms interval and, at each
# sample, the float.hex of the source errors' mean, median, p10 and p90.  The
# three baselines probe on the same 1 ms cycle, so their packet counts agree;
# their link controllers, and so their errors, differ.
PINNED_PACKETS = [(0.0, 684), (0.003, 1530), (0.006, 1566), (0.009000000000000001, 1566),
                  (0.012, 1566), (0.015, 4)]
PINNED_SOURCE_ERRORS = {
    "bfyz": [
        ("-0x1.c1d097b425eccp+4", "0x0.0p+0", "-0x1.9000000000000p+6", "0x1.0aaaaaaaaaaa7p+4"),
        ("-0x1.638e38e38e331p-3", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.392cb90d43fd4p-49", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.392cb90d43fd4p-49", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.392cb90d43fd4p-49", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ],
    "cg": [
        ("-0x1.9855555555554p+4", "0x0.0p+0", "-0x1.9000000000000p+6", "0x1.3ffffffffffffp+5"),
        ("0x1.9a00000000002p+3", "0x0.0p+0", "0x0.0p+0", "0x1.3ffffffffffffp+5"),
        ("0x1.9a00000000002p+3", "0x0.0p+0", "0x0.0p+0", "0x1.3ffffffffffffp+5"),
        ("0x1.e12d4d9ded09bp+2", "0x0.0p+0", "0x0.0p+0", "0x1.95898ceaaaaaap+4"),
        ("0x1.71ace5b8b4f0ap+1", "0x0.0p+0", "0x0.0p+0", "0x1.534bcd91ffffbp+3"),
    ],
    "rcp": [
        ("-0x1.9855555555554p+4", "0x0.0p+0", "-0x1.9000000000000p+6", "0x1.3ffffffffffffp+5"),
        ("0x1.9a00000000002p+3", "0x0.0p+0", "0x0.0p+0", "0x1.3ffffffffffffp+5"),
        ("0x1.69c962fc962fep+3", "0x0.0p+0", "0x0.0p+0", "0x1.3ffffffffffffp+5"),
        ("0x1.1700f01effd1cp+3", "0x0.0p+0", "0x0.0p+0", "0x1.3ffffffffffffp+5"),
        ("0x1.fbae4479139abp+1", "0x0.0p+0", "0x0.0p+0", "0x1.eb4bf8a087787p+3"),
    ],
}


def test_experiment3_pins_every_baseline_schedule():
    config = Experiment3Config(size="small", initial_sessions=40, leave_count=4,
                               horizon=milliseconds(15), protocols=("bfyz", "cg", "rcp"),
                               seed=5)
    result = run_experiment3(config)
    for name, expected_errors in PINNED_SOURCE_ERRORS.items():
        series = result.series(name)
        assert series.total_packets == 6916, name
        assert series.packets_series == PINNED_PACKETS, name
        assert [time for time, _ in series.source_error_series] == config.sample_times()
        errors = [
            tuple(float.hex(value) for value in (summary.mean, summary.median,
                                                 summary.p10, summary.p90))
            for _, summary in series.source_error_series
        ]
        assert errors == expected_errors, name
