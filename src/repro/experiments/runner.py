"""Shared run-measure-validate-report scaffolding of the experiments.

Every experiment (and example, and benchmark) repeats the same skeleton: build
a network from a named scenario, put a protocol with a packet tracer on it,
generate a random workload, run to quiescence (or a horizon), validate the
final allocation against the centralized oracle, and report packet/event
counts.  :class:`ScenarioSpec` captures the *what* declaratively;
:class:`ExperimentRunner` owns the *how* and hands back
:class:`RunMeasurement` snapshots.

Typical use::

    spec = ScenarioSpec(size="medium", delay_model=LAN, seed=3,
                        notification_log="ring")
    runner = ExperimentRunner(spec, generator_seed=3)
    runner.populate(400, join_window=(0.0, 1e-3))
    measurement = runner.checkpoint("mass join")
    assert measurement.validated

Custom topologies plug in through ``network_builder`` (the examples use this
with the hand-built teaching topologies), and the baseline protocols through
``protocol_factory`` (Experiment 3 runs B-Neck and BFYZ/CG/RCP over identical
workloads this way).
"""

from repro.core.actions import schedule_actions
from repro.core.protocol import BNeckProtocol
from repro.core.validation import validate_against_oracle
from repro.network.transit_stub import LAN
from repro.simulator.tracing import NullPacketTracer, PacketTracer
from repro.workloads.dynamics import apply_phase
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
            to :class:`~repro.core.protocol.BNeckProtocol` with this spec's
            notification knobs.
        tracer_interval: bucket width for per-interval packet accounting
            (``None`` keeps a plain total-counting tracer).
        trace_packets: disable to install a
            :class:`~repro.simulator.tracing.NullPacketTracer` (fastest).
        notification_log: ``"full"`` / ``"ring[:N]"`` / ``"null"`` or a log
            object, forwarded to the protocol.
        batch_notifications: per-instant ``API.Rate`` coalescing (default on).
        notification_batch_window: optional coalescing window in seconds
            (see :class:`~repro.core.protocol.BNeckProtocol`).
        routing_metric: ``"hops"`` (paper default) or ``"delay"``.
        validate: whether :meth:`ExperimentRunner.checkpoint` validates
            against the centralized oracle.
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
        trace_packets=True,
        notification_log=None,
        batch_notifications=True,
        notification_batch_window=None,
        routing_metric="hops",
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
        self.trace_packets = trace_packets
        self.notification_log = notification_log
        self.batch_notifications = batch_notifications
        self.notification_batch_window = notification_batch_window
        self.routing_metric = routing_metric
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
        if not self.trace_packets:
            return NullPacketTracer()
        if self.tracer_interval is not None:
            return PacketTracer(interval=self.tracer_interval)
        return PacketTracer()

    def build_protocol(self, network, tracer):
        if self.protocol_factory is not None:
            return self.protocol_factory(network, tracer)
        return BNeckProtocol(
            network,
            tracer=tracer,
            routing_metric=self.routing_metric,
            notification_log=self.notification_log,
            batch_notifications=self.batch_notifications,
            notification_batch_window=self.notification_batch_window,
        )

    def __repr__(self):
        return "ScenarioSpec(%r, seed=%d, log=%r, batch=%r)" % (
            self.label,
            self.seed,
            self.notification_log,
            self.batch_notifications,
        )


class RunMeasurement(object):
    """One measured checkpoint: counters since the previous checkpoint.

    ``packets`` and ``rate_callbacks`` are deltas relative to the previous
    :meth:`ExperimentRunner.checkpoint` call (equal to the totals on the
    first); ``total_packets`` / ``events_processed`` are run-wide totals.
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
    )

    def __init__(self, label, description, quiescence_time, packets, total_packets,
                 events_processed, rate_callbacks, validated):
        self.label = label
        self.description = description
        self.quiescence_time = quiescence_time
        self.packets = packets
        self.total_packets = total_packets
        self.events_processed = events_processed
        self.rate_callbacks = rate_callbacks
        self.validated = validated

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
        progress: optional callable invoked with every
            :class:`~repro.workloads.dynamics.PhaseOutcome` produced by
            :meth:`run_phase` / :meth:`run_phases`.
    """

    def __init__(self, spec, generator_seed=None, progress=None):
        self.spec = spec
        self.progress = progress
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
        """Generate and install ``count`` random sessions; returns ``{id: session}``."""
        specs = self.generator.generate(count, join_window, demand_sampler, prefix)
        return self.install(specs)

    def install(self, specs):
        """Install pre-generated session specs and track their ids as active.

        Specs travel as :class:`~repro.core.actions.JoinAction` records
        through the protocol's ``apply_actions`` (via
        :meth:`~repro.workloads.generator.WorkloadGenerator.install`), so
        installing works the same before a run and between phases.  Returns
        ``{session_id: session}``.
        """
        installed = self.generator.install(self.protocol, specs)
        self.active_ids.extend(installed)
        return installed

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
        result = schedule_actions(self.protocol, actions)
        joined = [action.session_id for action in actions if action.kind == "join"]
        left = {action.session_id for action in actions if action.kind == "leave"}
        self.active_ids = [
            session_id for session_id in self.active_ids if session_id not in left
        ] + [session_id for session_id in joined if session_id not in left]
        return result

    def run_scenario(self, workload=None, **parameters):
        """Drive a stochastic workload end to end; returns the measurements.

        ``workload`` (default: the spec's ``workload``) resolves through
        :func:`repro.workloads.stochastic.make_workload`; extra keyword
        arguments construct it when a name or class is given.  Each round the
        workload yields is applied, run to quiescence, measured and -- per
        the spec -- validated against the centralized/water-filling oracles,
        so every capacity change is checked on the *updated* network.
        Returns one :class:`RunMeasurement` per round.
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
                    "allocation failed oracle validation after round %r of "
                    "workload %r" % (label, workload.name)
                )
            measurements.append(measurement)
        return measurements

    def run_phase(self, phase, start_time=None, demand_sampler=None,
                  change_demand_sampler=None, run_to_quiescence=True):
        """Apply one churn phase, maintain membership, and report its outcome."""
        outcome = apply_phase(
            self.protocol,
            self.generator,
            phase,
            self.active_ids,
            start_time=start_time,
            demand_sampler=demand_sampler,
            change_demand_sampler=change_demand_sampler,
            run_to_quiescence=run_to_quiescence,
        )
        removed = set(outcome.left_ids)
        self.active_ids = [
            session_id for session_id in self.active_ids if session_id not in removed
        ] + outcome.joined_ids
        if self.progress is not None:
            self.progress(outcome)
        return outcome

    def run_phases(self, phases, demand_sampler=None, inter_phase_gap=0.0):
        """Run consecutive churn phases, each to quiescence; returns the outcomes.

        The first phase starts at the simulator's current time (so phases
        scheduled after an earlier checkpoint are real future schedules,
        rather than relying on past-dated API calls executing immediately);
        each subsequent phase starts at the previous phase's observed
        quiescence time plus ``inter_phase_gap``.
        """
        outcomes = []
        start_time = self.protocol.simulator.now
        for phase in phases:
            outcome = self.run_phase(
                phase, start_time=start_time, demand_sampler=demand_sampler
            )
            outcomes.append(outcome)
            start_time = outcome.quiescence_time + inter_phase_gap
        return outcomes

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
        """Validate the current allocation against the centralized oracle."""
        return validate_against_oracle(self.protocol).valid

    def checkpoint(self, description=None):
        """Run to quiescence, validate (per the spec) and measure.

        Returns a :class:`RunMeasurement` whose ``packets`` and
        ``rate_callbacks`` count only the work since the previous checkpoint.
        """
        quiescence_time = self.run_to_quiescence()
        validated = self.validate() if self.spec.validate else True
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
            validated=validated,
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
