"""Unit tests for the shared baseline scaffolding (probe loop, API, accounting)."""

import pytest

from repro.baselines.base import BaselineProtocol, LinkController
from repro.baselines.bfyz import BFYZProtocol
from repro.baselines.rcp import RCPProtocol
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import milliseconds
from tests.conftest import leave_session, open_session


class TestAbstractPieces(object):
    def test_link_controller_on_probe_is_abstract(self):
        controller = LinkController(link=None)
        with pytest.raises(NotImplementedError):
            controller.on_probe("s", 1.0, 0.0)

    def test_base_protocol_requires_a_controller_factory(self):
        network = single_link_topology()
        protocol = BaselineProtocol(network)
        # The join's activation triggers the first probe cycle, which needs
        # the subclass-provided link controller.
        open_session(protocol, "r0", "r1", "s")
        with pytest.raises(NotImplementedError):
            protocol.run()


class TestProbeLoop(object):
    def test_probe_cycle_accounts_two_packets_per_link(self):
        network = single_link_topology()
        protocol = BFYZProtocol(network, probe_interval=milliseconds(1))
        session = open_session(protocol, "r0", "r1", "solo")
        # Run just past the first probe cycle (well under the probe interval).
        protocol.run(until=milliseconds(0.5))
        assert protocol.tracer.total == 2 * session.path_length
        assert protocol.probe_cycles == 1

    def test_probe_interval_paces_the_traffic(self):
        network = single_link_topology()
        protocol = BFYZProtocol(network, probe_interval=milliseconds(2))
        session = open_session(protocol, "r0", "r1", "solo")
        protocol.run(until=milliseconds(10.5))
        # Cycles at t=0, 2, 4, 6, 8, 10 -> 6 cycles.
        assert protocol.probe_cycles == 6
        assert protocol.tracer.total == 6 * 2 * session.path_length

    def test_scheduled_join_defers_the_first_probe(self):
        network = single_link_topology()
        protocol = BFYZProtocol(network, probe_interval=milliseconds(1))
        open_session(protocol, "r0", "r1", "later", at=milliseconds(5))
        protocol.run(until=milliseconds(4))
        assert protocol.probe_cycles == 0
        assert len(protocol.registry) == 0
        protocol.run(until=milliseconds(6))
        assert protocol.probe_cycles >= 1
        assert len(protocol.registry) == 1

    def test_current_allocation_tracks_only_active_sessions(self):
        network = single_link_topology()
        protocol = BFYZProtocol(network, probe_interval=milliseconds(1))
        open_session(protocol, "r0", "r1", "a")
        open_session(protocol, "r0", "r1", "b")
        protocol.run(until=milliseconds(10))
        assert set(protocol.current_allocation().session_ids()) == {"a", "b"}
        leave_session(protocol, "a")
        protocol.run(until=milliseconds(12))
        assert set(protocol.current_allocation().session_ids()) == {"b"}

    def test_rates_never_exceed_effective_demand(self):
        network = single_link_topology()
        protocol = BFYZProtocol(network, probe_interval=milliseconds(1))
        open_session(protocol, "r0", "r1", "capped", demand=30 * MBPS)
        protocol.run(until=milliseconds(20))
        assert protocol.current_allocation().rate("capped") <= 30 * MBPS + 1e-6


class TestPeriodicUpdates(object):
    def test_rcp_tick_stops_when_all_sessions_leave_and_restarts_on_join(self):
        network = single_link_topology()
        protocol = RCPProtocol(network, probe_interval=milliseconds(1))
        open_session(protocol, "r0", "r1", "first")
        protocol.run(until=milliseconds(5))
        assert protocol._ticking
        leave_session(protocol, "first")
        # Let the pending tick notice the empty session set and stop.
        protocol.run(until=milliseconds(10))
        assert not protocol._ticking
        open_session(protocol, "r0", "r1", "second")
        protocol.run(until=milliseconds(15))
        assert protocol._ticking
        assert protocol.current_allocation().rate("second") > 0
