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

Custom topologies plug in through ``network_builder`` (the examples use this
with the hand-built teaching topologies), and the baseline protocols through
``protocol_factory`` (Experiment 3 runs B-Neck and BFYZ/CG/RCP over identical
workloads this way).
"""

from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.network.transit_stub import LAN
from repro.simulator.tracing import PacketTracer
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import NetworkScenario
from repro.workloads.stochastic import make_workload


class ScenarioSpec(object):
    """Declarative description of a protocol-under-workload run.

    Exactly one network source applies, checked in this order: an explicit
    ``network`` object, a zero-argument ``network_builder`` callable, or a
    named transit-stub scenario (``size`` + ``delay_model`` + ``seed``).

    Args:
        size: named topology size (``"small"`` ... ``"paper-big"``).
        delay_model: ``"lan"`` or ``"wan"``.
        seed: topology-generation seed (also the default generator seed).
        name: label override used in reports.
        network: a prebuilt :class:`~repro.network.graph.Network`.
        network_builder: zero-argument callable returning a network.
        protocol_factory: ``(network, tracer) -> protocol`` override; defaults
            to :class:`~repro.core.protocol.BNeckProtocol`.
        tracer_interval: bucket width for per-interval packet accounting
            (``None`` keeps a plain counting tracer, which the protocol
            counts into without a call per packet; with an interval every
            packet is recorded with its time).
        validate: whether :meth:`ExperimentRunner.checkpoint` validates
            the run with :meth:`ExperimentRunner.validate`.
        workload: optional stochastic-workload reference (a registered name
            like ``"poisson-churn"``, a class, or an instance -- see
            :mod:`repro.workloads.stochastic`), the default for
            :meth:`ExperimentRunner.run_scenario`.
    """

    def __init__(
        self,
        size=None,
        delay_model=LAN,
        seed=0,
        name=None,
        network=None,
        network_builder=None,
        protocol_factory=None,
        tracer_interval=None,
        validate=True,
        workload=None,
    ):
        if network is None and network_builder is None and size is None:
            raise ValueError("need a network, a network_builder or a named size")
        self.size = size
        self.delay_model = delay_model
        self.seed = seed
        self.name = name
        self.network = network
        self.network_builder = network_builder
        self.protocol_factory = protocol_factory
        self.tracer_interval = tracer_interval
        self.validate = validate
        self.workload = workload

    @classmethod
    def from_network_scenario(cls, scenario, **overrides):
        """Build a spec from a :class:`~repro.workloads.scenarios.NetworkScenario`.

        The scenario's own ``build`` is kept as the network builder, so a
        subclass with customized topology construction stays in charge.
        """
        overrides.setdefault("size", scenario.size)
        overrides.setdefault("delay_model", scenario.delay_model)
        overrides.setdefault("seed", scenario.seed)
        overrides.setdefault("network_builder", scenario.build)
        return cls(**overrides)

    @property
    def label(self):
        if self.name is not None:
            return self.name
        if self.size is not None:
            return "%s-%s" % (self.size, self.delay_model)
        network = self.network
        if network is not None and getattr(network, "name", None):
            return network.name
        return "custom"

    # ----------------------------------------------------------------- builders

    def build_network(self):
        if self.network is not None:
            return self.network
        if self.network_builder is not None:
            return self.network_builder()
        return NetworkScenario(self.size, self.delay_model, seed=self.seed).build()

    def build_tracer(self):
        return PacketTracer(interval=self.tracer_interval)

    def build_protocol(self, network, tracer):
        if self.protocol_factory is not None:
            return self.protocol_factory(network, tracer)
        return BNeckProtocol(network, tracer=tracer)

    def __repr__(self):
        return "ScenarioSpec(%r, seed=%d)" % (self.label, self.seed)


class RunMeasurement(object):
    """One measured checkpoint: counters since the previous checkpoint.

    ``packets`` and ``rate_callbacks`` are deltas relative to the previous
    :meth:`ExperimentRunner.checkpoint` call (equal to the totals on the
    first); ``total_packets`` / ``events_processed`` are run-wide totals.
    ``reason`` names the first cause of a failed validation, and is ``None``
    when the checkpoint is valid or was not validated.
    """

    __slots__ = (
        "label",
        "description",
        "quiescence_time",
        "packets",
        "total_packets",
        "events_processed",
        "rate_callbacks",
        "validated",
        "reason",
    )

    def __init__(self, label, description, quiescence_time, packets, total_packets,
                 events_processed, rate_callbacks, validated, reason):
        self.label = label
        self.description = description
        self.quiescence_time = quiescence_time
        self.packets = packets
        self.total_packets = total_packets
        self.events_processed = events_processed
        self.rate_callbacks = rate_callbacks
        self.validated = validated
        self.reason = reason

    def as_dict(self):
        return {
            "label": self.label,
            "description": self.description,
            "quiescence_time_ms": self.quiescence_time * 1e3,
            "packets": self.packets,
            "total_packets": self.total_packets,
            "events": self.events_processed,
            "rate_callbacks": self.rate_callbacks,
            "validated": self.validated,
        }

    def __repr__(self):
        return "RunMeasurement(%r, quiescence=%.4g ms, packets=%d, valid=%r)" % (
            self.label,
            self.quiescence_time * 1e3,
            self.packets,
            self.validated,
        )


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

    def populate(self, count, join_window=(0.0, 1e-3), demand_sampler=None, prefix="s"):
        """Apply ``count`` random joins from :attr:`generator`; returns
        ``{id: session}``."""
        return self.apply_actions(
            self.generator.generate(count, join_window, demand_sampler, prefix)
        )

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

    def run_scenario(self, workload=None, **parameters):
        """Drive a workload end to end; returns the measurements.

        ``workload`` (default: the spec's ``workload``) resolves through
        :func:`repro.workloads.stochastic.make_workload`; extra keyword
        arguments construct it when a name or class is given.  Each round the
        workload yields is applied, run to quiescence, measured and -- per
        the spec -- validated by :meth:`validate`, so every capacity change
        is checked on the *updated* network.  Returns one
        :class:`RunMeasurement` per round; a round that fails validation
        raises a ``RuntimeError`` naming the first cause.
        """
        if workload is None:
            workload = self.spec.workload
        if workload is None:
            raise ValueError(
                "no workload given and the ScenarioSpec names none; pass "
                "run_scenario(workload=...) or ScenarioSpec(workload=...)"
            )
        workload = make_workload(workload, **parameters)
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
        """Run to quiescence, validate (per the spec) and measure.

        Returns a :class:`RunMeasurement` whose ``packets`` and
        ``rate_callbacks`` count only the work since the previous checkpoint.
        """
        quiescence_time = self.run_to_quiescence()
        verdict = self.validate() if self.spec.validate else None
        total_packets = self.tracer.total
        rate_callbacks = getattr(self.protocol, "rate_callbacks", 0)
        measurement = RunMeasurement(
            label=self.spec.label,
            description=description,
            quiescence_time=quiescence_time,
            packets=total_packets - self._packets_at_checkpoint,
            total_packets=total_packets,
            events_processed=self.protocol.simulator.events_processed,
            rate_callbacks=rate_callbacks - self._callbacks_at_checkpoint,
            validated=verdict is None or verdict.valid,
            reason=None if verdict is None else verdict.reason,
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
