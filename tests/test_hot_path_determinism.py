"""Regression tests for the hot-path refactor and event-queue accounting fixes.

Three families of guarantees are pinned down here:

* **Cross-process determinism**: a fixed-seed scenario reproduces exact packet
  counts, event counts, quiescence times and final allocations, independent of
  ``PYTHONHASHSEED``.  The golden values in ``tests/data/hot_path_goldens.json``
  were captured once and must never drift as the hot path evolves.
* **Event-queue accounting**: cancelling an already-fired event must not
  corrupt ``Simulator.pending_events`` (and with it ``BNeckProtocol.quiescent``).
* **API-call scheduling**: an API call requested at exactly ``simulator.now``
  is enqueued with a fresh ``(time, sequence)`` slot, so it interleaves
  deterministically with packet deliveries pending at the same instant instead
  of jumping the queue.
* **Multi-phase churn determinism**: five-phase churn reproduces the per-phase
  and final counts pinned in ``tests/data/cross_engine_goldens.json``.
"""

import json
import math
import os

import pytest

from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.network.topology import single_link_topology
from repro.network.units import MBPS
from repro.simulator.clock import microseconds
from repro.simulator.simulation import Simulator
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import NetworkScenario

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "hot_path_goldens.json")
CROSS_ENGINE_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "cross_engine_goldens.json"
)

with open(GOLDEN_PATH) as handle:
    GOLDENS = json.load(handle)

with open(CROSS_ENGINE_GOLDEN_PATH) as handle:
    CROSS_ENGINE_GOLDENS = json.load(handle)


def _run_scenario(key, trace_packets=True):
    size, delay, seed, count = key.split("-")
    seed = int(seed[1:])
    count = int(count[1:])
    network = NetworkScenario(size, delay, seed=seed).build()
    protocol = BNeckProtocol(network, trace_packets=trace_packets)
    generator = WorkloadGenerator(network, seed=seed + count)
    generator.populate(protocol, count, join_window=(0.0, 1e-3))
    quiescence = protocol.run_until_quiescent()
    return protocol, quiescence


class TestSeedDeterminism(object):
    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_reproduces_golden_counts_and_allocation(self, key):
        golden = GOLDENS[key]
        protocol, quiescence = _run_scenario(key)
        assert protocol.tracer.total == golden["packets"]
        assert protocol.simulator.events_processed == golden["events"]
        assert repr(quiescence) == golden["quiescence"]
        assert dict(protocol.tracer.by_type) == golden["by_type"]
        allocation = protocol.current_allocation().as_dict()
        assert {sid: repr(rate) for sid, rate in allocation.items()} == golden["allocation"]
        assert validate_against_oracle(protocol).valid

    def test_incremental_unrestricted_load_stays_in_sync(self):
        protocol, _ = _run_scenario(sorted(GOLDENS)[0])
        states = protocol.all_link_states()
        assert states
        for state in states:
            assert state.unrestricted_load() == pytest.approx(
                state._recomputed_unrestricted_load(), rel=1e-12, abs=1e-6
            )


class TestMultiPhaseChurnDeterminism(object):
    """Five-phase Experiment-2-style churn, bit-identical to its golden.

    Phase N+1 is scheduled only after phase N's *observed* quiescence time.
    The run must reproduce the committed per-phase quiescence times,
    per-phase packet deltas, packet and event totals, ``API.Rate`` callback
    count and final allocation bit-exactly.
    """

    CHURN_KEY = "churn-medium-lan-s5-n60"

    def _run_churn(self):
        from repro.experiments.runner import ExperimentRunner, ScenarioSpec
        from repro.workloads.dynamics import DynamicPhase
        from repro.workloads.generator import uniform_demand

        _name, size, delay, seed, count = self.CHURN_KEY.split("-")
        seed = int(seed[1:])
        count = int(count[1:])
        spec = ScenarioSpec(size=size, delay_model=delay, seed=seed)
        runner = ExperimentRunner(spec, generator_seed=seed)
        churn = count // 5
        phases = [
            DynamicPhase("join", joins=count),
            DynamicPhase("leave", leaves=churn),
            DynamicPhase("change", changes=churn),
            DynamicPhase("join2", joins=churn),
            DynamicPhase("mixed", joins=churn, leaves=churn, changes=churn),
        ]
        outcomes = runner.run_phases(
            phases,
            demand_sampler=uniform_demand(1e6, 80e6),
            inter_phase_gap=1e-3,
        )
        final = runner.checkpoint("after churn")
        return runner, outcomes, final

    def test_churn_reproduces_the_golden(self):
        golden = CROSS_ENGINE_GOLDENS[self.CHURN_KEY]["sequential"]
        runner, outcomes, final = self._run_churn()
        protocol = runner.protocol
        assert final.validated
        assert [repr(o.quiescence_time) for o in outcomes] == golden["phase_quiescence"]
        assert [o.packets for o in outcomes] == golden["phase_packets"]
        assert protocol.tracer.total == golden["packets"]
        assert protocol.simulator.events_processed == golden["events"]
        assert dict(protocol.tracer.by_type) == golden["by_type"]
        assert protocol.rate_callbacks == golden["rate_callbacks"]
        allocation = protocol.current_allocation().as_dict()
        assert {
            sid: repr(rate) for sid, rate in sorted(allocation.items())
        } == golden["allocation"]


class TestCancelAccounting(object):
    def test_cancel_after_fire_keeps_pending_events_exact(self):
        simulator = Simulator()
        fired = simulator.schedule(1.0, lambda: None, tag="fired")
        simulator.schedule(2.0, lambda: None, tag="later")
        assert simulator.pending_events == 2
        assert simulator.step()
        assert simulator.pending_events == 1
        simulator.cancel(fired)          # already fired: must be a no-op
        assert simulator.pending_events == 1
        simulator.cancel(fired)
        assert simulator.pending_events == 1
        assert simulator.step()
        assert simulator.pending_events == 0

    def test_protocol_quiescence_not_fooled_by_stale_cancel(self):
        # With the old accounting a stale cancel() made pending_events
        # undercount, so `quiescent` could report True with a control packet
        # still in flight.
        network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
        protocol = BNeckProtocol(network)
        source = network.attach_host("r0", 1000 * MBPS, microseconds(1))
        sink = network.attach_host("r1", 1000 * MBPS, microseconds(1))
        protocol.open_session(source.node_id, sink.node_id, session_id="a")
        simulator = protocol.simulator
        # Fire one event, then cancel it twice after the fact.
        assert simulator.step()
        fired_count = simulator.events_processed
        assert fired_count == 1
        # The popped event is not exposed here; emulate a stale handle by
        # scheduling + firing + cancelling our own marker event.
        marker = simulator.schedule(0.0, lambda: None, tag="marker")
        while not marker.consumed:
            assert simulator.step()
        pending_before = simulator.pending_events
        simulator.cancel(marker)
        simulator.cancel(marker)
        assert simulator.pending_events == pending_before
        assert not protocol.quiescent
        protocol.run_until_quiescent()
        assert protocol.quiescent
        assert protocol.in_flight_packets == 0


class TestSameInstantApiCalls(object):
    def _single_session_protocol(self):
        network = single_link_topology(capacity=100 * MBPS, delay=microseconds(1))
        protocol = BNeckProtocol(network)
        source = network.attach_host("r0", 1000 * MBPS, microseconds(1))
        sink = network.attach_host("r1", 1000 * MBPS, microseconds(1))
        return protocol, source.node_id, sink.node_id

    def test_join_at_now_is_enqueued_not_synchronous(self):
        protocol, source, sink = self._single_session_protocol()
        session = protocol.create_session(source, sink, session_id="a")
        assert protocol.simulator.now == 0.0
        protocol.join(session, at=0.0)
        # The activation must wait for its (time, sequence) slot.
        assert "a" not in protocol.registry
        assert protocol.simulator.pending_events == 1
        protocol.run_until_quiescent()
        assert "a" in protocol.registry
        assert protocol.current_allocation().as_dict()["a"] == pytest.approx(100 * MBPS)

    def test_api_call_at_now_runs_after_events_already_queued_at_that_time(self):
        protocol, source, sink = self._single_session_protocol()
        session, _ = protocol.open_session(source, sink, session_id="a")
        quiescence = protocol.run_until_quiescent()
        simulator = protocol.simulator
        trigger_time = quiescence + 1e-3
        observed = {}

        def trigger():
            # Requested at exactly `now`: must enqueue, not run synchronously.
            protocol.change("a", 50 * MBPS, at=simulator.now)

        def probe_marker():
            # Queued after `trigger` but before the change's own slot: the
            # change must not have emitted its Probe packet yet.
            observed["packets_at_marker"] = protocol.tracer.total
            observed["demand_at_marker"] = protocol.session("a").demand

        packets_at_quiescence = protocol.tracer.total
        simulator.schedule_at(trigger_time, trigger)
        simulator.schedule_at(trigger_time, probe_marker)
        protocol.run_until_quiescent()

        assert observed["packets_at_marker"] == packets_at_quiescence
        # The change callback had not run yet at the marker's slot: the
        # session still carried its original (infinite) demand.
        assert math.isinf(observed["demand_at_marker"])
        # After the run the change has taken effect and B-Neck re-converged.
        assert protocol.current_allocation().as_dict()["a"] == pytest.approx(50 * MBPS)
        assert protocol.tracer.total > packets_at_quiescence
