"""Shared run-measure-validate-report scaffolding of the experiments.

Every experiment (and example, and benchmark) repeats the same skeleton: build
a network from a named scenario, put a protocol with a packet tracer on it,
generate a random workload, run to quiescence (or a horizon), validate the
run with the checkpoint verdict of :mod:`repro.core.validation`, and report
packet/event counts.  :class:`ScenarioSpec` captures the *what* declaratively;
:class:`ExperimentRunner` owns the *how* and hands back
:class:`RunMeasurement` snapshots.

Typical use::

    spec = ScenarioSpec(size="medium", delay_model=LAN, seed=3)
    runner = ExperimentRunner(spec, generator_seed=3)
    joins = runner.generator.generate(400, join_window=(0.0, 1e-3))
    runner.apply_actions(joins)          # runner.populate(400, ...) for short
    measurement = runner.checkpoint("mass join")
    assert measurement.validated

A hand-built teaching topology comes in as a prebuilt ``network``, which
the run uses as is (and changes: hosts attach, capacities move), so build
one runner per spec.  The baseline protocols plug in through
``protocol_factory`` (Experiment 3 runs B-Neck and BFYZ/CG/RCP over
identical workloads this way).
"""

from collections import namedtuple

from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.network.transit_stub import LAN
from repro.simulator.tracing import PacketTracer
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import build_network


class ScenarioSpec(object):
    """Declarative description of a protocol-under-workload run.

    A spec names its network in exactly one way: a named transit-stub size
    (``size`` + ``delay_model`` + ``seed``, generated by
    :func:`~repro.workloads.scenarios.build_network`), or a prebuilt
    ``network``.  A prebuilt network is used as is, and a run changes it,
    so build one runner per spec.

    Args:
        size: named topology size (``"small"`` ... ``"paper-big"``).
        delay_model: ``"lan"`` or ``"wan"``.
        seed: topology-generation seed (also the default generator seed).
        network: a prebuilt :class:`~repro.network.graph.Network`.
        protocol_factory: ``(network, tracer) -> protocol`` override; defaults
            to :class:`~repro.core.protocol.BNeckProtocol`.
        tracer_interval: bucket width for per-interval packet accounting
            (``None`` keeps a plain counting tracer, which the protocol
            counts into without a call per packet; with an interval every
            packet is recorded with its time).
    """

    def __init__(
        self,
        size=None,
        delay_model=LAN,
        seed=0,
        network=None,
        protocol_factory=None,
        tracer_interval=None,
    ):
        if (size is None) == (network is None):
            raise ValueError(
                "a ScenarioSpec names its network by exactly one of size or "
                "network, got size=%r and network=%r" % (size, network)
            )
        self.size = size
        self.delay_model = delay_model
        self.seed = seed
        self.network = network
        self.protocol_factory = protocol_factory
        self.tracer_interval = tracer_interval

    @property
    def label(self):
        """``"size-delay"`` (``"small-lan"``), or the prebuilt network's name."""
        if self.network is None:
            return "%s-%s" % (self.size, self.delay_model)
        return self.network.name

    # ----------------------------------------------------------------- builders

    def build_network(self):
        if self.network is not None:
            return self.network
        return build_network(self.size, self.delay_model, self.seed)

    def build_tracer(self):
        return PacketTracer(interval=self.tracer_interval)

    def build_protocol(self, network, tracer):
        if self.protocol_factory is not None:
            return self.protocol_factory(network, tracer)
        return BNeckProtocol(network, tracer=tracer)

    def __repr__(self):
        return "ScenarioSpec(%r, seed=%d)" % (self.label, self.seed)


class RunMeasurement(namedtuple("RunMeasurement", "label description sessions quiescence_time "
                                                   "packets total_packets events_processed "
                                                   "rate_callbacks validated reason")):
    """One measured checkpoint: counters since the previous checkpoint.

    ``sessions`` counts the sessions active at the checkpoint.  ``packets``
    and ``rate_callbacks`` are deltas relative to the previous
    :meth:`ExperimentRunner.checkpoint` call (equal to the totals on the
    first); ``total_packets`` / ``events_processed`` are run-wide totals.
    ``validated`` and ``reason`` are the checkpoint verdict's: ``reason``
    names the first cause of a failed validation, and is ``None`` when the
    checkpoint is valid.
    """

    __slots__ = ()


class ExperimentRunner(object):
    """Owns one protocol run: build, populate, drive, measure, validate.

    Args:
        spec: the :class:`ScenarioSpec` to realise.
        generator_seed: seed of the :class:`~repro.workloads.generator.WorkloadGenerator`
            (defaults to ``spec.seed``).
    """

    def __init__(self, spec, generator_seed=None):
        self.spec = spec
        self.network = spec.build_network()
        self.tracer = spec.build_tracer()
        self.protocol = spec.build_protocol(self.network, self.tracer)
        self.generator_seed = spec.seed if generator_seed is None else generator_seed
        self._generator = None
        self.active_ids = []
        self._packets_at_checkpoint = 0
        self._callbacks_at_checkpoint = 0

    @property
    def generator(self):
        """The workload generator (created lazily: custom-topology runs that
        drive the session API by hand never need one)."""
        if self._generator is None:
            self._generator = WorkloadGenerator(self.network, seed=self.generator_seed)
        return self._generator

    # ----------------------------------------------------------------- workload

    def populate(self, count, join_window=(0.0, 1e-3)):
        """Apply ``count`` random greedy joins from :attr:`generator`;
        returns ``{id: session}``."""
        return self.apply_actions(self.generator.generate(count, join_window))

    def apply_actions(self, actions):
        """Apply a pre-resolved action batch and maintain membership.

        ``actions`` are :mod:`repro.core.actions` records (joins, leaves,
        changes, capacity changes) with every random choice resolved -- the
        currency of the stochastic workload library.  The batch goes through
        the protocol's ``apply_actions``, and the runner's ``active_ids``
        tracks the joins and leaves it contains; a batch the protocol
        rejects leaves ``active_ids`` unchanged.
        """
        actions = list(actions)
        result = self.protocol.apply_actions(actions)
        joined = [action.session_id for action in actions if action.kind == "join"]
        left = {action.session_id for action in actions if action.kind == "leave"}
        self.active_ids = [
            session_id for session_id in self.active_ids if session_id not in left
        ] + [session_id for session_id in joined if session_id not in left]
        return result

    def run_scenario(self, workload):
        """Drive a workload end to end; returns the measurements.

        ``workload`` is a :class:`~repro.workloads.stochastic.StochasticWorkload`
        instance (``WORKLOADS[name](...)`` builds one by name).  Each round
        it yields is applied, run to quiescence, validated and measured by
        :meth:`checkpoint`, so every capacity change is checked on the
        *updated* network.  Returns one :class:`RunMeasurement` per round; a
        round that fails validation raises a ``RuntimeError`` naming the
        first cause.
        """
        measurements = []
        for label, actions in workload.rounds(self):
            self.apply_actions(actions)
            measurement = self.checkpoint(label)
            if not measurement.validated:
                raise RuntimeError(
                    "validation failed after round %r of workload %r: %s"
                    % (label, workload.name, measurement.reason)
                )
            measurements.append(measurement)
        return measurements

    # ------------------------------------------------------------------ driving

    def run_until(self, time):
        """Advance the simulation to an absolute time horizon."""
        return self.protocol.run(until=time)

    def run_to_quiescence(self):
        """Run until the event queue drains; returns the quiescence time."""
        return self.protocol.run_until_quiescent()

    def close(self):
        """Release the run's resources.  A run holds none that outlive it,
        so this does nothing; it exists for ``with`` blocks and callers that
        close runners explicitly."""

    def __enter__(self):
        """Context-manager support: ``with ExperimentRunner(spec) as runner``."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # ---------------------------------------------------------------- measuring

    def validate(self):
        """The checkpoint verdict of
        :func:`~repro.core.validation.validate_against_oracle` on the current
        run, true when the network is stable (Definition 2), the allocation
        equals Centralized B-Neck's and the max-min certificate finds no
        violation; its ``reason`` names the first cause otherwise."""
        return validate_against_oracle(self.protocol)

    def checkpoint(self, description=None):
        """Run to quiescence, validate and measure.

        Returns a :class:`RunMeasurement` whose ``packets`` and
        ``rate_callbacks`` count only the work since the previous checkpoint.
        """
        quiescence_time = self.run_to_quiescence()
        verdict = self.validate()
        total_packets = self.tracer.total
        rate_callbacks = getattr(self.protocol, "rate_callbacks", 0)
        measurement = RunMeasurement(
            label=self.spec.label,
            description=description,
            sessions=len(self.protocol.registry),
            quiescence_time=quiescence_time,
            packets=total_packets - self._packets_at_checkpoint,
            total_packets=total_packets,
            events_processed=self.protocol.simulator.events_processed,
            rate_callbacks=rate_callbacks - self._callbacks_at_checkpoint,
            validated=verdict.valid,
            reason=verdict.reason,
        )
        self._packets_at_checkpoint = total_packets
        self._callbacks_at_checkpoint = rate_callbacks
        return measurement

    def __repr__(self):
        return "ExperimentRunner(%r, active_sessions=%d, now=%r)" % (
            self.spec.label,
            len(self.active_ids),
            self.protocol.simulator.now,
        )
