"""The alternating-pairs comparison script, on canned perfbench output.

``scripts/perfbench_pairs.py`` runs perfbench in two checkouts and
summarises the pairs.  Here its parsing and its summary run on canned JSON
lines, and its `main` on a stand-in for the runs, so no test starts a
subprocess.
"""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "perfbench_pairs.py")


@pytest.fixture(scope="module")
def pairs_script():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(sim_us, scenario_ms, correct=True):
    """What ``perfbench/run.py --trace 0`` prints: a summary line, then the
    JSON result."""
    return "perfbench: crowd seed 1: 40 rounds, 40 instances completed, 0 failed\n" + json.dumps({
        "correct": correct,
        "attempted": 40,
        "failed": 0 if correct else 1,
        "metrics": {
            "scenario_ms": {"value": scenario_ms, "unit": "ms"},
            "sim_us_per_event": {"value": sim_us, "unit": "us"},
        },
    }) + "\n"


def test_parse_result_reads_the_last_line(pairs_script):
    result = pairs_script.parse_result(_output(1.5, 100.0))
    assert result["correct"] is True
    assert result["metrics"]["sim_us_per_event"]["value"] == 1.5


@pytest.mark.parametrize("stdout", ["", "perfbench: no instance completed\n", "[1, 2]\n"])
def test_parse_result_is_none_without_a_result(pairs_script, stdout):
    assert pairs_script.parse_result(stdout) is None


def test_summary_gives_medians_spread_move_and_lower_pairs(pairs_script):
    parse = pairs_script.parse_result
    parent_us = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_us = [0.5, 2.5, 2.0, 3.0, 4.0]
    pairs = [(parse(_output(old, 100.0)), parse(_output(new, 110.0)))
             for old, new in zip(parent_us, change_us)]
    rows = {row["metric"]: row for row in pairs_script.summarize(pairs)}
    assert list(rows) == ["scenario_ms", "sim_us_per_event"]
    sim = rows["sim_us_per_event"]
    assert sim["unit"] == "us"
    assert sim["parent_median"] == 3.0
    # statistics.quantiles of 1..5 (exclusive method): 1.5 and 4.5.
    assert sim["parent_spread"] == pytest.approx(3.0)
    assert sim["change_median"] == 2.5
    # quantiles of 0.5, 2.0, 2.5, 3.0, 4.0: 1.25 and 3.5.
    assert sim["change_spread"] == pytest.approx(2.25)
    assert sim["move_percent"] == pytest.approx(-100.0 / 6)
    assert sim["lower"] == 4
    # 4 of 5 pairs is under 9 in 10, and 0.5 lower is within the spread of 3.
    assert sim["gain"] is False
    scenario = rows["scenario_ms"]
    assert scenario["parent_spread"] == 0.0
    assert scenario["change_spread"] == 0.0
    assert scenario["move_percent"] == pytest.approx(10.0)
    assert scenario["lower"] == 0
    assert scenario["gain"] is False
    table = pairs_script.format_rows(pairs_script.summarize(pairs), len(pairs))
    assert "sim_us_per_event" in table
    assert "-16.7%" in table
    assert "4/5" in table
    assert " no " in table and " yes " not in table


@pytest.mark.parametrize("lower, pairs, change_median, gain", [
    (10, 10, 1.5, True),
    (9, 10, 1.5, True),     # 9 of 10 pairs is enough
    (8, 10, 1.5, False),    # 8 of 10 is not
    (9, 10, 1.875, False),  # lower by 0.125, within the parent's spread of 0.25
    (9, 10, 1.75, False),   # lower by exactly the spread is not more than it
    (5, 5, 1.5, True),
    (4, 5, 1.5, False),     # 4 of 5 is under 9 in 10
])
def test_a_gain_is_lower_in_nine_of_ten_pairs_by_more_than_the_spread(
        pairs_script, lower, pairs, change_median, gain):
    assert pairs_script.is_gain(lower, pairs, 2.0, change_median, 0.25) is gain


def test_the_summary_marks_a_clear_gain(pairs_script):
    parse = pairs_script.parse_result
    parent_us = [2.0, 2.02, 1.98, 2.01, 1.99, 2.03, 1.97, 2.0, 2.02, 1.98]
    change_us = [value - 0.1 for value in parent_us]
    change_us[3] = 2.5  # one pair the other way
    pairs = [(parse(_output(old, 100.0)), parse(_output(new, 100.0)))
             for old, new in zip(parent_us, change_us)]
    rows = {row["metric"]: row for row in pairs_script.summarize(pairs)}
    assert rows["sim_us_per_event"]["lower"] == 9
    assert rows["sim_us_per_event"]["gain"] is True
    assert rows["scenario_ms"]["gain"] is False
    table = pairs_script.format_rows(pairs_script.summarize(pairs), len(pairs))
    [sim_line] = [line for line in table.splitlines() if line.startswith("sim_us_per_event")]
    assert " yes " in sim_line


def test_one_pair_has_no_spread(pairs_script):
    result = pairs_script.parse_result(_output(1.0, 1.0))
    (row, _) = pairs_script.summarize([(result, result)])
    assert row["parent_spread"] == 0.0
    assert row["lower"] == 0


def _fake_runs(monkeypatch, pairs_script, results):
    """Replace the perfbench runs with ``results(checkout, seed)``; returns
    the list of ``(checkout, seed)`` in the order they ran."""
    order = []

    def run_once(checkout, workload, seed, seconds):
        order.append((checkout, seed))
        return results(checkout, seed)

    monkeypatch.setattr(pairs_script, "run_once", run_once)
    return order


def test_sides_alternate_and_seeds_count_pairs(pairs_script, monkeypatch, capsys):
    order = _fake_runs(monkeypatch, pairs_script,
                       lambda checkout, seed: pairs_script.parse_result(_output(1.0, 1.0)))
    assert pairs_script.main(["old", "new", "--workload", "crowd", "--pairs", "3"]) == 0
    assert order == [("old", 1), ("new", 1), ("new", 2), ("old", 2), ("old", 3), ("new", 3)]
    assert "sim_us_per_event" in capsys.readouterr().out


def test_the_first_seed_moves_every_pair(pairs_script, monkeypatch, capsys):
    order = _fake_runs(monkeypatch, pairs_script,
                       lambda checkout, seed: pairs_script.parse_result(_output(1.0, 1.0)))
    assert pairs_script.main(["old", "new", "--workload", "crowd", "--pairs", "3",
                              "--first-seed", "11"]) == 0
    # Sides still alternate by pair, whatever the first seed.
    assert order == [("old", 11), ("new", 11), ("new", 12), ("old", 12), ("old", 13),
                     ("new", 13)]
    capsys.readouterr()


@pytest.mark.parametrize("broken", ["incorrect", "missing"])
def test_a_run_that_is_not_correct_fails_the_comparison(pairs_script, monkeypatch, capsys,
                                                        broken):
    def results(checkout, seed):
        if checkout == "new" and seed == 2:
            return None if broken == "missing" else pairs_script.parse_result(
                _output(1.0, 1.0, correct=False))
        return pairs_script.parse_result(_output(1.0, 1.0))

    _fake_runs(monkeypatch, pairs_script, results)
    assert pairs_script.main(["old", "new", "--workload", "crowd", "--pairs", "2"]) == 1
    assert "pair 2: the change run" in capsys.readouterr().err
