"""Every round of perfbench's three workloads, pinned.

Instance 0 of each workload of ``perfbench/workloads.py`` at seed 1 runs
here round by round as ``perfbench/run.py`` runs it: the workload's network
through :class:`~repro.experiments.runner.ExperimentRunner`, each round's
action batch applied, run to quiescence and checkpointed.  For every round
the action count, events, packets, packet mix, ``API.Rate`` callbacks and the
converge time (quiescence minus the last action's date, as ``float.hex``)
must equal ``tests/data/perfbench_round_goldens.json``.  A change to the hot
path that keeps B-Neck's schedule keeps every figure bit for bit.

``perfbench/workloads.py`` is loaded from its file with :mod:`importlib`
and only read.  To recapture the goldens after a change that legitimately
alters the schedule::

    PYTHONPATH=src python tests/test_perfbench_rounds.py \
        > tests/data/perfbench_round_goldens.json
"""

import importlib.util
import json
import os

import pytest

from repro.experiments.runner import ExperimentRunner, ScenarioSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "data", "perfbench_round_goldens.json")
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def round_records(name, seed=SEED):
    """What each round of instance 0 of workload ``name`` did."""
    workload = WORKLOADS.WORKLOADS[name]()
    spec = ScenarioSpec(size=workload.size, delay_model="lan", seed=WORKLOADS.TOPOLOGY_SEED)
    records = []
    with ExperimentRunner(spec) as runner:
        protocol = runner.protocol
        simulator = protocol.simulator
        tracer = runner.tracer
        routers = [node.node_id for node in runner.network.routers() if node.tier == "stub"]
        population = WORKLOADS.Population(WORKLOADS.instance_rng(name, seed, 0), routers)
        for actions in workload.rounds(population, lambda: simulator.now):
            events, packets = simulator.events_processed, tracer.total
            by_type, callbacks = dict(tracer.by_type), protocol.rate_callbacks
            runner.apply_actions(actions)
            quiescence = runner.run_to_quiescence()
            assert runner.checkpoint().validated
            records.append({
                "actions": len(actions),
                "events": simulator.events_processed - events,
                "packets": tracer.total - packets,
                "by_type": {kind: count - by_type.get(kind, 0)
                            for kind, count in tracer.by_type.items()
                            if count != by_type.get(kind, 0)},
                "callbacks": protocol.rate_callbacks - callbacks,
                "converge": (quiescence - max(action.at for action in actions)).hex(),
            })
    return records


with open(GOLDEN_PATH) as handle:
    GOLDENS = json.load(handle)


def test_the_goldens_cover_every_workload():
    assert sorted(GOLDENS) == sorted(WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_every_round_matches_its_golden(name):
    assert round_records(name) == GOLDENS[name]


if __name__ == "__main__":
    print(json.dumps({name: round_records(name) for name in sorted(WORKLOADS.WORKLOADS)},
                     indent=1, sort_keys=True))
