"""The benchmark regression gate's exit codes and its skipped-gate warning.

``scripts/check_bench_regression.py`` compares two ``pytest-benchmark``
JSON files.  It fails (exit 1) on a regression past the threshold when both
files come from machines with the same CPU count; with different CPU counts
it only warns (exit 0), and the warning is also a GitHub Actions
``::warning::`` annotation so the skipped gate shows on the pull request.
"""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, name, cpu_count, minimum):
    path = directory / name
    path.write_text(json.dumps({
        "machine_info": {"cpu": {"count": cpu_count}},
        "benchmarks": [{"fullname": "benchmarks/test_x.py::test_x",
                        "stats": {"min": minimum}}],
    }))
    return str(path)


def _run(gate, tmp_path, baseline_cpus, current_cpus, current_min):
    baseline = _write(tmp_path, "baseline.json", baseline_cpus, 1.0)
    current = _write(tmp_path, "current.json", current_cpus, current_min)
    return gate.main([baseline, current, "--threshold", "0.25"])


def test_regression_on_the_same_cpu_count_fails(gate, tmp_path, capsys):
    assert _run(gate, tmp_path, 4, 4, 1.5) == 1
    output = capsys.readouterr().out
    assert "FAIL: 1 benchmark(s) regressed" in output
    assert "::warning" not in output


def test_regression_on_another_cpu_count_warns_with_an_annotation(gate, tmp_path, capsys):
    assert _run(gate, tmp_path, 1, 4, 1.5) == 0
    lines = capsys.readouterr().out.splitlines()
    annotations = [line for line in lines if line.startswith("::warning ")]
    assert len(annotations) == 1
    assert annotations[0].startswith("::warning title=Benchmark gate skipped::1 benchmark(s)")
    # The threshold's percent sign is escaped as workflow-command data.
    assert "25%25 threshold" in annotations[0]
    assert "(1 vs 4)" in annotations[0]
    assert any(line.startswith("WARNING: 1 benchmark(s)") for line in lines)


def test_no_regression_passes(gate, tmp_path, capsys):
    assert _run(gate, tmp_path, 4, 4, 1.1) == 0
    output = capsys.readouterr().out
    assert "OK: no benchmark regressed more than 25%" in output
    assert "::warning" not in output
