"""The paper's evaluation (Section IV): Experiments 1, 2 and 3.

Each experiment module exposes a ``*Config`` class with the workload knobs and
a ``run_experiment*`` function returning a result object that carries exactly
the series plotted in the corresponding paper figure:

* :mod:`~repro.experiments.experiment1` -- Figure 5: time to quiescence and
  total control packets vs. number of simultaneously arriving sessions, over
  the Small/Medium/Big networks in LAN and WAN flavours, one checkpoint
  :class:`~repro.experiments.runner.RunMeasurement` per point;
* :mod:`~repro.experiments.experiment2` -- Figure 6: packets of each type per
  interval across five phases of churn, plus per-phase quiescence times;
* :mod:`~repro.experiments.experiment3` -- Figures 7 and 8: relative rate error
  at sources and at bottleneck links over time, and packets per interval, for
  B-Neck vs. the non-quiescent baselines.

:mod:`~repro.experiments.metrics` holds the error definitions and
:mod:`~repro.experiments.reporting` renders result objects as plain-text tables
(the benchmark harness prints these).

:mod:`~repro.experiments.runner` is the shared scaffolding underneath all
three harnesses: :class:`~repro.experiments.runner.ScenarioSpec` declares a
protocol-under-workload run and
:class:`~repro.experiments.runner.ExperimentRunner` builds, drives, validates
and measures it.  The examples and the opt-in paper-scale benchmarks use the
same entry point.
"""

from repro.experiments.experiment1 import (
    Experiment1Config,
    run_experiment1,
    run_experiment1_case,
)
from repro.experiments.experiment2 import (
    DEFAULT_PHASES,
    Experiment2Config,
    Experiment2Result,
    run_experiment2,
)
from repro.experiments.experiment3 import (
    Experiment3Config,
    Experiment3Result,
    ProtocolTimeSeries,
    run_experiment3,
)
from repro.experiments.metrics import (
    bottleneck_link_errors,
    error_summary,
    relative_errors,
)
from repro.experiments.reporting import (
    format_experiment1_table,
    format_experiment2_table,
    format_experiment3_table,
    format_table,
)
from repro.experiments.runner import (
    ExperimentRunner,
    RunMeasurement,
    ScenarioSpec,
)

__all__ = [
    "DEFAULT_PHASES",
    "Experiment1Config",
    "Experiment2Config",
    "Experiment2Result",
    "Experiment3Config",
    "Experiment3Result",
    "ExperimentRunner",
    "ProtocolTimeSeries",
    "RunMeasurement",
    "ScenarioSpec",
    "bottleneck_link_errors",
    "error_summary",
    "format_experiment1_table",
    "format_experiment2_table",
    "format_experiment3_table",
    "format_table",
    "relative_errors",
    "run_experiment1",
    "run_experiment1_case",
    "run_experiment2",
    "run_experiment3",
]
