"""The benchmark regression gate's exit codes and its skipped-gate warning.

``scripts/check_bench_regression.py`` compares two ``pytest-benchmark``
JSON files.  It fails (exit 1) on a regression past the threshold when both
files come from machines with the same CPU count; with different CPU counts
it only warns (exit 0), and the warning is also a GitHub Actions
``::warning::`` annotation so the skipped gate shows on the pull request.
A baseline entry with no current result fails it on any CPU counts, and the
committed baseline lists only benchmarks that the bench job produces.
"""

import ast
import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPT = os.path.join(REPO_ROOT, "scripts", "check_bench_regression.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, name, cpu_count, minimum, names=("benchmarks/test_x.py::test_x",)):
    path = directory / name
    path.write_text(json.dumps({
        "machine_info": {"cpu": {"count": cpu_count}},
        "benchmarks": [{"fullname": fullname, "stats": {"min": minimum}} for fullname in names],
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


@pytest.mark.parametrize("current_cpus", [4, 1])
def test_a_baseline_entry_with_no_current_result_fails(gate, tmp_path, capsys, current_cpus):
    stale = "benchmarks/test_y.py::test_retired"
    baseline = _write(tmp_path, "baseline.json", 4, 1.0,
                      names=("benchmarks/test_x.py::test_x", stale))
    # A regression too, so the other CPU count also takes the warning branch.
    current = _write(tmp_path, "current.json", current_cpus, 1.5)
    assert gate.main([baseline, current, "--threshold", "0.25"]) == 1
    output = capsys.readouterr().out
    assert "FAIL: 1 baseline benchmark(s) with no current result" in output
    assert "\n  %s\n" % stale in output


def test_a_new_benchmark_passes(gate, tmp_path, capsys):
    baseline = _write(tmp_path, "baseline.json", 4, 1.0)
    current = _write(tmp_path, "current.json", 4, 1.0,
                     names=("benchmarks/test_x.py::test_x", "benchmarks/test_z.py::test_new"))
    assert gate.main([baseline, current, "--threshold", "0.25"]) == 0
    assert "OK: no benchmark regressed" in capsys.readouterr().out


def _collected_benchmarks():
    """The fullnames of the tests under ``benchmarks/`` outside the slow
    tier, the ones the bench job runs."""
    names = set()
    directory = os.path.join(REPO_ROOT, "benchmarks")
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("test_") and filename.endswith(".py")):
            continue
        with open(os.path.join(directory, filename)) as handle:
            tree = ast.parse(handle.read())
        if any(_is_slow_bench(node) for node in tree.body if isinstance(node, ast.Assign)):
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                if not any(_is_slow_bench(decorator) for decorator in node.decorator_list):
                    names.add("benchmarks/%s::%s" % (filename, node.name))
    return names


def _is_slow_bench(node):
    return "slow_bench" in ast.dump(node)


def test_every_baseline_entry_is_a_bench_the_bench_job_runs(gate):
    baseline, _ = gate.load_benchmarks(os.path.join(REPO_ROOT, "benchmarks", "baseline.json"))
    assert sorted(set(baseline) - _collected_benchmarks()) == []
