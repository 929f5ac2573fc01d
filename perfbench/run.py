"""Layered benchmark of the B-Neck reproduction under validated churn.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload poisson --seed 1 --seconds 20 --trace 0

A run drives one workload (see ``perfbench/workloads.py``) through the
program's public experiment API: for each round the benchmark hands a batch
of join/leave/change actions to ``ExperimentRunner.apply_actions``, runs the
protocol to quiescence, and lets ``ExperimentRunner.checkpoint`` validate the
result against the program's oracles.  Outside the timed region the benchmark
then recomputes the max-min fair allocation itself (``perfbench/oracle.py``)
and compares.  Instances repeat until ``--seconds`` have passed.

Every time is wall time scaled to a reference processor speed
(``perfbench/speed.py``).  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` the same rounds run
under cProfile and it carries the per-layer split (``perfbench/layers.py``),
the time spans around each call into the program, and the protocol's own
counts.
"""

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import layers
import oracle
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

# Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 21

PACKET_TYPES = ("Join", "Probe", "Response", "Update", "Bottleneck",
                "SetBottleneck", "Leave")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit("perfbench: no repro package under %s; run the benchmark from "
                 "the root of a checkout of the repository" % SOURCE)
    sys.path.insert(0, SOURCE)


class Round(object):
    """What one round cost, in reference-speed seconds, and what it did."""

    __slots__ = ("wall", "schedule", "simulate", "validate", "events", "packets",
                 "actions", "converge", "callbacks", "by_type")


class Instance(object):
    """What one instance cost, summed over its rounds."""

    __slots__ = ("wall", "simulate", "events")

    def __init__(self):
        self.wall = 0.0
        self.simulate = 0.0
        self.events = 0


class Bench(object):
    """Drives instances of one workload and records every round."""

    def __init__(self, workload, seed, profile=None):
        # Imported here: both need the program on sys.path (load_program).
        from repro.experiments.runner import ExperimentRunner, ScenarioSpec
        import workloads

        self.ExperimentRunner = ExperimentRunner
        self.workloads = workloads
        self.spec = lambda: ScenarioSpec(size=workload.size, delay_model="lan",
                                         seed=workloads.TOPOLOGY_SEED)
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.probes = []
        self.rounds = []
        self.instances = []
        self.attempted = 0
        self.failed = 0

    def probe(self):
        probe = speed.SpeedProbe(tick=None if self.profile else speed.TICK_SECONDS)
        self.probes.append(probe)
        return probe

    def setup_times(self, count):
        """Time ``count`` set-ups: building the network and the protocol."""
        samples = []
        for _ in range(count):
            spec = self.spec()
            with self.probe() as probe:
                start = probe.now()
                runner = self.ExperimentRunner(spec)
                elapsed = probe.now() - start
            runner.close()
            samples.append(probe.scaled(elapsed))
        return samples

    def run_instance(self, index):
        """Run instance ``index`` round by round; stop at the first failure."""
        rng = self.workloads.instance_rng(self.workload.name, self.seed, index)
        gc.collect()
        with self.ExperimentRunner(self.spec()) as runner:
            protocol = runner.protocol
            routers = [node.node_id for node in runner.network.routers()
                       if node.tier == "stub"]
            population = self.workloads.Population(rng, routers)
            instance = Instance()
            for actions in self.workload.rounds(population,
                                                lambda: protocol.simulator.now):
                self.attempted += 1
                try:
                    sample, validated = self._run_round(runner, actions)
                    if validated:
                        problem = oracle.check_round(protocol, population)
                    else:
                        problem = "the program's own validation failed"
                except Exception:
                    traceback.print_exc()
                    problem = "the round raised"
                if problem is not None:
                    print("perfbench: instance %d: %s" % (index, problem),
                          file=sys.stderr)
                    self.failed += 1
                    return
                self.rounds.append(sample)
                instance.wall += sample.wall
                instance.simulate += sample.simulate
                instance.events += sample.events
            self.instances.append(instance)

    def _run_round(self, runner, actions):
        protocol = runner.protocol
        simulator = protocol.simulator
        tracer = runner.tracer
        events = simulator.events_processed
        packets = tracer.total
        by_type = dict(tracer.by_type)
        callbacks = protocol.rate_callbacks
        last_action = max(action.at for action in actions)

        with self.probe() as probe:
            if self.profile is not None:
                self.profile.enable()
            start = probe.now()
            runner.apply_actions(actions)
            scheduled = probe.now()
            quiescence = runner.run_to_quiescence()
            simulated = probe.now()
            measurement = runner.checkpoint()
            end = probe.now()
            if self.profile is not None:
                self.profile.disable()
        scaled = probe.scaled

        sample = Round()
        sample.wall = scaled(end - start)
        sample.schedule = scaled(scheduled - start)
        sample.simulate = scaled(simulated - scheduled)
        sample.validate = scaled(end - simulated)
        sample.events = simulator.events_processed - events
        sample.packets = tracer.total - packets
        sample.actions = len(actions)
        sample.converge = quiescence - last_action
        sample.callbacks = protocol.rate_callbacks - callbacks
        sample.by_type = {
            kind: tracer.by_type.get(kind, 0) - by_type.get(kind, 0)
            for kind in PACKET_TYPES
        }
        return sample, measurement.validated

    def run_timed(self, seconds):
        """Run whole instances until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            self.run_instance(index)
            index += 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    return statistics.median(list(values))


def end_to_end(bench, setup_samples):
    instances = bench.instances
    return {
        "scenario_ms": metric(median(i.wall for i in instances) * 1e3, "ms"),
        "sim_us_per_event": metric(
            median(i.simulate / i.events for i in instances) * 1e6, "us"),
        "setup_s": metric(median(setup_samples), "s"),
        # Linux reports the peak resident set size in KiB.
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(bench, setup_samples):
    rounds = bench.rounds
    actions = sum(s.actions for s in rounds)
    events = sum(s.events for s in rounds)
    metrics = {
        "setup_ms": metric(median(setup_samples) * 1e3, "ms"),
        "schedule_ms": metric(median(s.schedule for s in rounds) * 1e3, "ms"),
        "simulate_ms": metric(median(s.simulate for s in rounds) * 1e3, "ms"),
        "validate_ms": metric(median(s.validate for s in rounds) * 1e3, "ms"),
        "converge_us": metric(median(s.converge for s in rounds) * 1e6, "us"),
        "events_per_action": metric(events / actions, "1/action"),
        "packets_per_action": metric(
            sum(s.packets for s in rounds) / actions, "1/action"),
        "callbacks_per_action": metric(
            sum(s.callbacks for s in rounds) / actions, "1/action"),
    }
    for kind in PACKET_TYPES:
        metrics["%s_per_action" % kind.lower()] = metric(
            sum(s.by_type[kind] for s in rounds) / actions, "1/action")
    # cProfile totals cover the whole run, so they are scaled by the speed
    # samples of the whole run rather than round by round.
    scale = speed.REFERENCE_SECONDS / statistics.fmean(
        sample for probe in bench.probes for sample in probe.samples)
    for layer, (seconds, calls) in layers.split_by_layer(bench.profile).items():
        metrics["%s_self_us" % layer] = metric(
            seconds * scale / events * 1e6, "us/event")
        metrics["%s_calls" % layer] = metric(calls / events, "1/event")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (known: %s)" % (
            args.workload, ", ".join(sorted(workloads.WORKLOADS))))
    profile = cProfile.Profile() if args.trace else None
    bench = Bench(workloads.WORKLOADS[args.workload](), args.seed, profile)
    setup_samples = bench.setup_times(SETUP_SAMPLES)
    bench.run_timed(args.seconds)
    if not bench.instances:
        sys.exit("perfbench: no instance completed")

    if args.trace:
        metrics = per_layer(bench, setup_samples)
    else:
        metrics = end_to_end(bench, setup_samples)
    print("perfbench: %s seed %d: %d rounds, %d instances completed, %d failed" % (
        args.workload, args.seed, bench.attempted, len(bench.instances), bench.failed))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
