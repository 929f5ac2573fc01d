"""Smoke tests for the runnable examples.

Each example is loaded from the ``examples/`` directory and executed with a
small workload, so the documented entry points keep working as the library
evolves.
"""

import importlib.util
import os

import pytest

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
    assert "validation against the centralized oracle: OK" in output
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
    "workload", ["capacity-dynamics", "flash-crowd", "heavy-tailed-demand", "poisson-churn"]
)
def test_stochastic_churn_every_workload_validates(capsys, workload, delay_model):
    module = load_example("stochastic_churn")
    assert module.main(["--workload", workload, "--delay-model", delay_model]) == 0
    output = capsys.readouterr().out
    assert "%s " % workload in output
    assert "NO" not in output
    assert "sessions active at the end" in output
