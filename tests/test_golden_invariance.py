"""Tracers that must be invisible to the schedule, checked on every golden.

The goldens (``tests/data/hot_path_goldens.json`` and the ``sequential``
entries of ``tests/data/cross_engine_goldens.json``) pin one schedule per
scenario.  The packet tracer changes how packets are counted but not what is
sent: the default tracer is counted into by the protocol without a call per
packet, while a timed one -- with an interval -- is called for each packet.

Each scenario is run under each tracer, and every golden field must come out
bit-identical: event counts, quiescence times, packet counts per type and per
round, callbacks and the final allocation.  The timed tracer must also count
exactly what the default one counts, per type and per session, and its
interval series must add up to its totals.

One default run of every scenario also checks the applications, the single
record of ``API.Rate``: each active session's agrees with
``last_notified_rate`` and never got two deliveries at one timestamp; all of
them together hold exactly ``rate_callbacks`` deliveries, in time order and
within the run, already when each protocol run returns; and
``notified_allocation`` is the final allocation.  The
same fingerprints are also computed in a fresh interpreter under a fixed
``PYTHONHASHSEED``, so no result depends on string hashing.

Run this file as a script to print every scenario's fingerprint as JSON.
"""

import collections
import json
import os
import subprocess
import sys

import pytest

from repro.core.protocol import BNeckProtocol
from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.simulator.tracing import PacketTracer
from repro.workloads.generator import WorkloadGenerator, uniform_demand
from repro.workloads.scenarios import build_network
from repro.workloads.stochastic import WORKLOADS, DynamicPhase, PhaseChurnWorkload

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

with open(os.path.join(DATA, "hot_path_goldens.json")) as handle:
    HOT_PATH_GOLDENS = json.load(handle)
with open(os.path.join(DATA, "cross_engine_goldens.json")) as handle:
    GOLDENS = {key: entry["sequential"] for key, entry in json.load(handle).items()}
GOLDENS.update(HOT_PATH_GOLDENS)
KEYS = sorted(GOLDENS)


def _allocation(protocol):
    allocation = protocol.current_allocation().as_dict()
    return {sid: repr(rate) for sid, rate in sorted(allocation.items())}


class _TracedSpec(ScenarioSpec):
    """A scenario spec whose run counts into a given tracer."""

    def __init__(self, tracer, **kwargs):
        super(_TracedSpec, self).__init__(**kwargs)
        self.tracer = tracer

    def build_tracer(self):
        return self.tracer


def _mass_join(key, tracer):
    """A hot-path golden: ``count`` sessions join within 1 ms, run to quiescence."""
    size, delay, seed, count = key.split("-")
    seed, count = int(seed[1:]), int(count[1:])
    network = build_network(size, delay, seed)
    protocol = BNeckProtocol(network, tracer=tracer)
    protocol.apply_actions(
        WorkloadGenerator(network, seed=seed + count).generate(count, join_window=(0.0, 1e-3))
    )
    quiescence = protocol.run_until_quiescent()
    return protocol, {
        "packets": protocol.tracer.total,
        "by_type": dict(protocol.tracer.by_type),
        "events": protocol.simulator.events_processed,
        "quiescence": repr(quiescence),
        "allocation": _allocation(protocol),
    }


def _five_phase_churn(key, tracer):
    """The churn golden: join, leave, change, join, mixed."""
    _name, size, delay, seed, count = key.split("-")
    seed, count = int(seed[1:]), int(count[1:])
    spec = _TracedSpec(tracer, size=size, delay_model=delay, seed=seed)
    churn = count // 5
    phases = [
        DynamicPhase("join", joins=count),
        DynamicPhase("leave", leaves=churn),
        DynamicPhase("change", changes=churn),
        DynamicPhase("join2", joins=churn),
        DynamicPhase("mixed", joins=churn, leaves=churn, changes=churn),
    ]
    workload = PhaseChurnWorkload(phases, uniform_demand(1e6, 80e6), gap=1e-3)
    with ExperimentRunner(spec, generator_seed=seed) as runner:
        measurements = runner.run_scenario(workload)
        assert all(m.validated for m in measurements)
        protocol = runner.protocol
        return protocol, {
            "phase_quiescence": [repr(m.quiescence_time) for m in measurements],
            "phase_packets": [m.packets for m in measurements],
            "packets": protocol.tracer.total,
            "by_type": dict(protocol.tracer.by_type),
            "events": protocol.simulator.events_processed,
            "rate_callbacks": protocol.rate_callbacks,
            "allocation": _allocation(protocol),
        }


def _stochastic(key, tracer):
    """A stochastic golden: the registered workload's rounds, each validated."""
    _prefix, _workload, size, delay, seed = key.rsplit("-", 4)
    spec = _TracedSpec(
        tracer,
        size=size,
        delay_model=delay,
        seed=int(seed[1:]),
    )
    with ExperimentRunner(spec) as runner:
        measurements = runner.run_scenario(WORKLOADS[GOLDENS[key]["workload"]]())
        assert all(m.validated for m in measurements)
        protocol = runner.protocol
        return protocol, {
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


def run_golden(key, tracer=None):
    """Run golden scenario ``key`` counting into ``tracer`` (a default
    :class:`PacketTracer` if omitted); return the protocol and the
    scenario's golden fields."""
    tracer = tracer or PacketTracer()
    if key.startswith("stochastic-"):
        return _stochastic(key, tracer)
    if key.startswith("churn-"):
        return _five_phase_churn(key, tracer)
    return _mass_join(key, tracer)


def fingerprint(key, tracer=None):
    """The golden fields of scenario ``key`` run counting into ``tracer``."""
    return run_golden(key, tracer)[1]


@pytest.mark.parametrize("key", KEYS)
class TestKnobsKeepTheGolden(object):
    def test_interval_packet_tracer(self, key):
        assert fingerprint(key, PacketTracer(interval=1e-4)) == GOLDENS[key]


@pytest.fixture(scope="module", params=KEYS)
def default_run(request):
    """One default-knob run of each golden scenario, shared by the checks of
    the single ``API.Rate`` record below."""
    protocol, result = run_golden(request.param)
    return request.param, protocol, result


def _delivered(protocol):
    """The ``API.Rate`` deliveries the applications of every session ever
    joined hold (a departed session keeps its application)."""
    return sum(application.notification_count
               for application in protocol._applications.values())


@pytest.mark.parametrize("key", KEYS)
def test_every_protocol_run_returns_with_its_rates_delivered(key, monkeypatch):
    """Each run of a golden scenario -- one per round where the runner
    checkpoints -- returns with every rate it notified delivered, so a
    reader of ``rate_callbacks`` after a run, as every checkpoint is, sees
    the whole round."""
    seen = []
    run = BNeckProtocol.run

    def checked_run(protocol, until=None):
        stopped = run(protocol, until)
        assert protocol.rate_callbacks == _delivered(protocol) > 0
        seen.append(protocol.rate_callbacks)
        return stopped

    monkeypatch.setattr(BNeckProtocol, "run", checked_run)
    protocol, result = run_golden(key)
    assert result == GOLDENS[key]
    assert seen and seen[-1] == protocol.rate_callbacks


def test_an_interval_tracer_counts_what_the_default_tracer_counts(default_run):
    """The two counting paths -- one increment of the hop row's list, and a
    ``record`` call per packet -- count the same packets, per type and per
    session, and the timed one's interval series adds up to its totals."""
    key, protocol, _ = default_run
    timed, result = run_golden(key, PacketTracer(interval=1e-4))
    assert result == GOLDENS[key]
    counting, interval = protocol.tracer, timed.tracer
    assert interval.total == counting.total > 0
    assert interval.by_type == counting.by_type
    assert interval.by_session == counting.by_session
    series = [collections.Counter(counts) for _, counts in interval.interval_series()]
    assert sum(series, collections.Counter()) == interval.by_type


def test_applications_record_the_last_notified_rate(default_run):
    key, protocol, result = default_run
    assert result == GOLDENS[key]
    sessions = protocol.active_sessions()
    assert sessions
    for session in sessions:
        application = protocol.application(session.session_id)
        assert application.current_rate == protocol.last_notified_rate(session.session_id)
        times = [notification.time for notification in application.notifications]
        assert len(times) == len(set(times)), session.session_id


def test_applications_hold_every_delivered_rate(default_run):
    # Departed sessions keep their application, so the records of every
    # session ever joined add up to the protocol's callback count.
    key, protocol, _ = default_run
    recorded = _delivered(protocol)
    assert recorded == protocol.rate_callbacks
    if "rate_callbacks" in GOLDENS[key]:
        assert recorded == GOLDENS[key]["rate_callbacks"]


def test_notified_allocation_is_the_final_allocation(default_run):
    key, protocol, _ = default_run
    notified = protocol.notified_allocation().as_dict()
    assert notified == protocol.current_allocation().as_dict()
    assert {sid: repr(rate) for sid, rate in sorted(notified.items())} == (
        GOLDENS[key]["allocation"]
    )


def test_deliveries_are_time_ordered_within_the_run(default_run):
    _, protocol, _ = default_run
    end = protocol.simulator.now
    for session_id, application in protocol._applications.items():
        times = [notification.time for notification in application.notifications]
        assert times == sorted(times), session_id
        assert all(0.0 <= time <= end for time in times), session_id
        assert {n.session_id for n in application.notifications} <= {session_id}


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
