"""Smoke tests for the runnable examples and the package Quickstart.

Each example is loaded from the ``examples/`` directory and executed with a
small workload, so the documented entry points keep working as the library
evolves; every example in the directory is loaded by some test here.  The
Quickstart block of the ``repro`` package docstring is executed too.
"""

import ast
import glob
import importlib.util
import os
import textwrap

import pytest

import repro

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def load_example(name):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name + ".py"))
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs_and_validates(capsys):
    module = load_example("quickstart")
    module.main()
    output = capsys.readouterr().out
    assert "quiescent" in output
    assert "validation: OK" in output
    assert "stable, no packet in flight (Definition 2): True" in output
    assert "rates equal Centralized B-Neck's:           True" in output
    assert "max-min certificate violations:             0" in output
    assert "45.00 Mbps" in output


def test_dynamic_sessions_walkthrough(capsys):
    module = load_example("dynamic_sessions")
    assert module.main([]) == 0
    output = capsys.readouterr().out
    assert "API.Rate" in output
    assert "80.00 Mbps" in output
    assert "quiescent again" in output


def test_wan_vs_lan_small_counts(capsys):
    module = load_example("wan_vs_lan")
    module.main(["10"])
    output = capsys.readouterr().out
    assert "small-lan" in output
    assert "small-wan" in output
    assert "longer to become quiescent" in output


def test_experiment1_sweep_tiny(capsys):
    module = load_example("experiment1_sweep")
    exit_code = module.main(["--counts", "5", "--sizes", "small", "--delay-models", "lan"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "small-lan" in output


def test_experiment1_sweep_rejects_unknown_size():
    module = load_example("experiment1_sweep")
    with pytest.raises(SystemExit):
        module.parse_arguments(["--sizes", "galactic"])


def test_stochastic_churn_default_workload(capsys):
    module = load_example("stochastic_churn")
    assert module.main([]) == 0
    output = capsys.readouterr().out
    assert "poisson-churn segment" in output
    assert "sessions active at the end" in output


def test_stochastic_churn_capacity_dynamics(capsys):
    module = load_example("stochastic_churn")
    assert module.main(["--workload", "capacity-dynamics", "--seed", "13"]) == 0
    output = capsys.readouterr().out
    assert "capacity-dynamics restore" in output
    assert "NO" not in output


@pytest.mark.parametrize("delay_model", ["lan", "wan"])
@pytest.mark.parametrize(
    "workload",
    ["capacity-dynamics", "flash-crowd", "heavy-tailed-demand", "phase-churn", "poisson-churn"],
)
def test_stochastic_churn_every_workload_validates(capsys, workload, delay_model):
    module = load_example("stochastic_churn")
    assert module.main(["--workload", workload, "--delay-model", delay_model]) == 0
    output = capsys.readouterr().out
    assert "%s " % workload in output
    assert "NO" not in output
    assert "sessions active at the end" in output


def test_baseline_comparison_runs_every_protocol(capsys):
    module = load_example("baseline_comparison")
    module.main()
    output = capsys.readouterr().out
    for name in ("bneck", "bfyz", "cg", "rcp"):
        assert "finished %s" % name in output
    assert "bneck  converged: 6.0 ms" in output
    assert "quiescent: yes packets:  31482 (last third: 0)" in output


def test_every_example_is_loaded_by_a_test():
    with open(__file__) as handle:
        tree = ast.parse(handle.read())
    loaded = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "load_example"
        and isinstance(node.args[0], ast.Constant)
    }
    examples = {
        os.path.splitext(os.path.basename(path))[0]
        for path in glob.glob(os.path.join(EXAMPLES_DIR, "*.py"))
    }
    assert loaded == examples


def test_the_package_quickstart_runs(capsys):
    block = repro.__doc__.split("Quickstart::\n", 1)[1]
    exec(textwrap.dedent(block), {})
    assert capsys.readouterr().out == "100000000.0\n"
