"""Experiment harness: configuration, scenario builders and figure registry.

The harness turns a declarative :class:`~repro.experiments.config.SimulationConfig`
plus a scenario description into a full simulation (field, radio, MAC,
routing, protocol nodes, workload, failures, mobility), runs it, and returns a
:class:`~repro.results.RunRecord`.

Every figure of the paper's evaluation has a generator in
:mod:`repro.experiments.figures`; the benchmark files under ``benchmarks/``
simply call those generators and print the resulting rows.

Sweeps are declared as :class:`~repro.experiments.matrix.ScenarioMatrix`
parameter grids, expanded into independent seed-derived jobs and executed —
serially or across a ``multiprocessing`` pool — by
:mod:`repro.experiments.executor`, which appends every record to a
:class:`~repro.results.RunStore` run directory and resumes from it.
"""

from repro.experiments.chaos import (
    ChaosError,
    ChaosInjection,
    ChaosSpec,
    ChaosSpecError,
)
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    TABLE1_PARAMETERS,
)
from repro.experiments.executor import (
    ExecutionReport,
    JobCompletion,
    execute_jobs,
    stream_jobs,
)
from repro.experiments.supervisor import (
    SupervisedPool,
    SupervisedResult,
    retry_backoff_s,
    run_serial,
)
from repro.experiments.matrix import (
    ScenarioMatrix,
    SweepJob,
    available_matrices,
    get_matrix,
    register_matrix,
)
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.results import (
    MetricsSummary,
    RunRecord,
    RunStore,
    SweepResult,
)
from repro.experiments.sandbox import Sandbox, build_sandbox, line_positions
from repro.experiments.scenarios import (
    ScenarioSpec,
    all_to_all_scenario,
    cluster_scenario,
    single_pair_scenario,
)
from repro.experiments import claims, figures

__all__ = [
    "ChaosError",
    "ChaosInjection",
    "ChaosSpec",
    "ChaosSpecError",
    "ExecutionReport",
    "ExperimentRunner",
    "FailureConfig",
    "JobCompletion",
    "SupervisedPool",
    "SupervisedResult",
    "MetricsSummary",
    "MobilityConfig",
    "RunRecord",
    "RunStore",
    "Sandbox",
    "ScenarioMatrix",
    "ScenarioSpec",
    "SimulationConfig",
    "SweepJob",
    "SweepResult",
    "TABLE1_PARAMETERS",
    "all_to_all_scenario",
    "available_matrices",
    "build_sandbox",
    "claims",
    "cluster_scenario",
    "execute_jobs",
    "figures",
    "get_matrix",
    "line_positions",
    "register_matrix",
    "retry_backoff_s",
    "run_scenario",
    "run_serial",
    "single_pair_scenario",
    "stream_jobs",
]
