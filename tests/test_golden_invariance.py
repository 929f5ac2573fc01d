"""Knobs that must be invisible to the schedule, checked on every golden.

The goldens (``tests/data/hot_path_goldens.json`` and the ``sequential``
entries of ``tests/data/cross_engine_goldens.json``) pin one schedule per
scenario.  The protocol has knobs that only change how results are recorded
or delivered:

* the ``API.Rate`` notification log (``full``, ``ring`` or ``null``);
* the packet tracer (``trace_packets=False`` installs a null tracer, and
  ``tracer_interval`` one that also keeps per-interval histograms);
* per-instant coalescing of ``API.Rate`` deliveries (``batch_notifications``).

Each scenario is run under each knob, and every golden field the knob cannot
affect must come out bit-identical: event counts, quiescence times, packet
counts per type and per round, callbacks and the final allocation.  The same
fingerprints are also computed in a fresh interpreter under a fixed
``PYTHONHASHSEED``, so no result depends on string hashing.

Run this file as a script to print every scenario's fingerprint as JSON.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.protocol import BNeckProtocol
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.simulator.tracing import PacketTracer
from repro.workloads.dynamics import DynamicPhase
from repro.workloads.generator import WorkloadGenerator, uniform_demand
from repro.workloads.scenarios import NetworkScenario

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

with open(os.path.join(DATA, "hot_path_goldens.json")) as handle:
    HOT_PATH_GOLDENS = json.load(handle)
with open(os.path.join(DATA, "cross_engine_goldens.json")) as handle:
    GOLDENS = {key: entry["sequential"] for key, entry in json.load(handle).items()}
GOLDENS.update(HOT_PATH_GOLDENS)
KEYS = sorted(GOLDENS)

# Golden fields that count packets: a null tracer records none of them.
PACKET_FIELDS = ("packets", "by_type", "phase_packets", "round_packets")


def _allocation(protocol):
    allocation = protocol.current_allocation().as_dict()
    return {sid: repr(rate) for sid, rate in sorted(allocation.items())}


def _mass_join(key, knobs):
    """A hot-path golden: ``count`` sessions join within 1 ms, run to quiescence."""
    size, delay, seed, count = key.split("-")
    seed, count = int(seed[1:]), int(count[1:])
    network = NetworkScenario(size, delay, seed=seed).build()
    knobs = dict(knobs)
    interval = knobs.pop("tracer_interval", None)
    if interval is not None:
        knobs["tracer"] = PacketTracer(interval=interval)
    protocol = BNeckProtocol(network, **knobs)
    WorkloadGenerator(network, seed=seed + count).populate(
        protocol, count, join_window=(0.0, 1e-3)
    )
    quiescence = protocol.run_until_quiescent()
    return {
        "packets": protocol.tracer.total,
        "by_type": dict(protocol.tracer.by_type),
        "events": protocol.simulator.events_processed,
        "quiescence": repr(quiescence),
        "allocation": _allocation(protocol),
    }


def _five_phase_churn(key, knobs):
    """The churn golden: join, leave, change, join, mixed."""
    _name, size, delay, seed, count = key.split("-")
    seed, count = int(seed[1:]), int(count[1:])
    spec = ScenarioSpec(size=size, delay_model=delay, seed=seed, **knobs)
    churn = count // 5
    phases = [
        DynamicPhase("join", joins=count),
        DynamicPhase("leave", leaves=churn),
        DynamicPhase("change", changes=churn),
        DynamicPhase("join2", joins=churn),
        DynamicPhase("mixed", joins=churn, leaves=churn, changes=churn),
    ]
    with ExperimentRunner(spec, generator_seed=seed) as runner:
        outcomes = runner.run_phases(
            phases, demand_sampler=uniform_demand(1e6, 80e6), inter_phase_gap=1e-3
        )
        assert runner.checkpoint("after churn").validated
        protocol = runner.protocol
        return {
            "phase_quiescence": [repr(o.quiescence_time) for o in outcomes],
            "phase_packets": [o.packets for o in outcomes],
            "packets": protocol.tracer.total,
            "by_type": dict(protocol.tracer.by_type),
            "events": protocol.simulator.events_processed,
            "rate_callbacks": protocol.rate_callbacks,
            "allocation": _allocation(protocol),
        }


def _stochastic(key, knobs):
    """A stochastic golden: the registered workload's rounds, each validated."""
    _prefix, _workload, size, delay, seed = key.rsplit("-", 4)
    spec = ScenarioSpec(
        size=size,
        delay_model=delay,
        seed=int(seed[1:]),
        workload=GOLDENS[key]["workload"],
        **knobs
    )
    with ExperimentRunner(spec) as runner:
        measurements = runner.run_scenario()
        assert all(m.validated for m in measurements)
        protocol = runner.protocol
        return {
            "workload": GOLDENS[key]["workload"],
            "round_labels": [m.description for m in measurements],
            "round_quiescence": [repr(m.quiescence_time) for m in measurements],
            "round_packets": [m.packets for m in measurements],
            "packets": protocol.tracer.total,
            "by_type": dict(protocol.tracer.by_type),
            "events": protocol.simulator.events_processed,
            "rate_callbacks": protocol.rate_callbacks,
            "active_sessions": len(runner.active_ids),
            "allocation": _allocation(protocol),
        }


def fingerprint(key, **knobs):
    """Run golden scenario ``key`` with protocol ``knobs``; return its golden fields."""
    if key.startswith("stochastic-"):
        return _stochastic(key, knobs)
    if key.startswith("churn-"):
        return _five_phase_churn(key, knobs)
    return _mass_join(key, knobs)


def _golden_without(key, *fields):
    return {name: value for name, value in GOLDENS[key].items() if name not in fields}


def _no_packets(value):
    """What a packet-count field reads when no packet was counted."""
    if isinstance(value, dict):
        return {}
    if isinstance(value, list):
        return [0] * len(value)
    return 0


@pytest.mark.parametrize("key", KEYS)
class TestKnobsKeepTheGolden(object):
    @pytest.mark.parametrize("log", ["ring", "null"])
    def test_notification_log(self, key, log):
        assert fingerprint(key, notification_log=log) == GOLDENS[key]

    def test_interval_packet_tracer(self, key):
        assert fingerprint(key, tracer_interval=1e-4) == GOLDENS[key]

    def test_null_packet_tracer(self, key):
        result = fingerprint(key, trace_packets=False)
        assert _golden_without(key, *PACKET_FIELDS) == {
            name: value for name, value in result.items() if name not in PACKET_FIELDS
        }
        for name in PACKET_FIELDS:
            if name in GOLDENS[key]:
                assert result[name] == _no_packets(GOLDENS[key][name]), name

    def test_synchronous_rate_delivery(self, key):
        # Delivering every API.Rate at once only adds callbacks: packets,
        # events, quiescence and the allocation stay those of the golden.
        result = fingerprint(key, batch_notifications=False)
        callbacks = result.pop("rate_callbacks", None)
        assert result == _golden_without(key, "rate_callbacks")
        if "rate_callbacks" in GOLDENS[key]:
            assert callbacks >= GOLDENS[key]["rate_callbacks"]


@pytest.fixture(scope="module")
def fresh_interpreter_fingerprints():
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = "12345"
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=environment,
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    ).stdout
    return json.loads(output)


@pytest.mark.parametrize("key", KEYS)
def test_fresh_interpreter_with_another_hash_seed(key, fresh_interpreter_fingerprints):
    assert fresh_interpreter_fingerprints[key] == GOLDENS[key]


if __name__ == "__main__":
    print(json.dumps({key: fingerprint(key) for key in KEYS}, sort_keys=True))
