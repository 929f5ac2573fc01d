"""Experiment 1 (Figure 5): mass arrivals on networks of different sizes.

A number of sessions (swept over a range) join the network uniformly at random
during the first millisecond of the simulation; the experiment measures

* the time B-Neck needs to become quiescent (Figure 5, left), and
* the total number of control packets transmitted (Figure 5, right),

for the Small / Medium / Big topologies in both the LAN and the WAN delay
scenarios.  Every run is validated against the centralized oracle, exactly as
in the paper.

The default sweep is scaled down from the paper's 10..300,000 sessions to
10..1,000 so a pure-Python run completes in minutes; the shapes of the curves
(near-flat for small counts, roughly linear growth once sessions interact,
WAN times dominated by propagation, LAN producing more packets than WAN) are
preserved.  Pass larger ``session_counts`` to push further.
"""

from repro.experiments.runner import ExperimentRunner, ScenarioSpec
from repro.network.transit_stub import LAN, WAN

DEFAULT_SESSION_COUNTS = (10, 30, 100, 300, 1000)
DEFAULT_SIZES = ("small", "medium", "big")
DEFAULT_DELAY_MODELS = (LAN, WAN)


class Experiment1Config(object):
    """Knobs of the Experiment 1 sweep.  Every session is greedy (an
    infinite demand) and joins in the first millisecond."""

    def __init__(
        self,
        session_counts=DEFAULT_SESSION_COUNTS,
        sizes=DEFAULT_SIZES,
        delay_models=DEFAULT_DELAY_MODELS,
        seed=0,
    ):
        self.session_counts = tuple(session_counts)
        self.sizes = tuple(sizes)
        self.delay_models = tuple(delay_models)
        self.seed = seed

    def scenarios(self):
        """The ``(size, delay_model)`` pairs of the sweep, each built with
        :attr:`seed`."""
        return [
            (size, delay_model)
            for size in self.sizes
            for delay_model in self.delay_models
        ]

    def __repr__(self):
        return "Experiment1Config(counts=%r, sizes=%r, delay_models=%r)" % (
            self.session_counts,
            self.sizes,
            self.delay_models,
        )


class Experiment1Row(object):
    """One point of Figure 5: a (scenario, session count) measurement."""

    def __init__(
        self,
        scenario_label,
        session_count,
        time_to_quiescence,
        total_packets,
        packets_per_session,
        events_processed,
        validated,
    ):
        self.scenario_label = scenario_label
        self.session_count = session_count
        self.time_to_quiescence = time_to_quiescence
        self.total_packets = total_packets
        self.packets_per_session = packets_per_session
        self.events_processed = events_processed
        self.validated = validated

    def as_dict(self):
        return {
            "scenario": self.scenario_label,
            "sessions": self.session_count,
            "time_to_quiescence_ms": self.time_to_quiescence * 1e3,
            "packets": self.total_packets,
            "packets_per_session": self.packets_per_session,
            "events": self.events_processed,
            "validated": self.validated,
        }

    def __repr__(self):
        return (
            "Experiment1Row(%s, sessions=%d, quiescence=%.4g ms, packets=%d, valid=%r)"
            % (
                self.scenario_label,
                self.session_count,
                self.time_to_quiescence * 1e3,
                self.total_packets,
                self.validated,
            )
        )


def run_experiment1_case(scenario, session_count, config=None):
    """Run one cell and return its :class:`Experiment1Row`.

    ``scenario`` is a ``(size, delay_model)`` pair; the network is built
    with ``config.seed``.
    """
    config = config or Experiment1Config()
    size, delay_model = scenario
    spec = ScenarioSpec(size=size, delay_model=delay_model, seed=config.seed)
    with ExperimentRunner(spec, generator_seed=config.seed + session_count) as runner:
        runner.populate(session_count)
        measurement = runner.checkpoint("mass join of %d sessions" % session_count)
    return Experiment1Row(
        scenario_label=spec.label,
        session_count=session_count,
        time_to_quiescence=measurement.quiescence_time,
        total_packets=measurement.total_packets,
        packets_per_session=measurement.total_packets / float(session_count),
        events_processed=measurement.events_processed,
        validated=measurement.validated,
    )


def run_experiment1(config=None, progress=None):
    """Run the full Experiment 1 sweep; returns a list of :class:`Experiment1Row`.

    Args:
        config: an :class:`Experiment1Config` (defaults are scaled-down).
        progress: optional callable invoked with each finished row.
    """
    config = config or Experiment1Config()
    rows = []
    for scenario in config.scenarios():
        for session_count in config.session_counts:
            row = run_experiment1_case(scenario, session_count, config)
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows
