"""Parameter sweeps, now executed through the scenario-matrix subsystem.

Every simulation figure in the paper is a sweep of either the number of nodes
(Figures 6, 8, 10) or the transmission radius (Figures 7, 9, 11, 12, 13) with
one curve per protocol.  A sweep is described declaratively by a
:class:`~repro.experiments.matrix.ScenarioMatrix`, expanded into independent
jobs, and executed by :func:`~repro.experiments.executor.execute_jobs` —
serially or across a worker pool, with identical results either way.

:func:`sweep_nodes` and :func:`sweep_radius` keep their historical signatures
(plus ``workers``) and their historical semantics: every grid point reuses
the base configuration's seed (``seed_policy="shared"``), exactly as the
paper's figures did before the matrix subsystem existed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.executor import ExecutionReport, assemble_sweep, execute_jobs
from repro.experiments.matrix import ScenarioMatrix, matrix_from_axes
from repro.experiments.scenarios import ScenarioSpec, all_to_all_scenario, cluster_scenario
from repro.results import RunStore, SweepResult

ScenarioFactory = Callable[[str, SimulationConfig], ScenarioSpec]


def run_matrix(
    matrix: ScenarioMatrix,
    workers: int = 1,
    resume: bool = False,
    progress=None,
    store: Optional[RunStore] = None,
) -> Tuple[SweepResult, ExecutionReport]:
    """Expand *matrix*, execute every job and assemble the sweep.

    Returns ``(sweep, report)``; the sweep's rows follow the matrix expansion
    order regardless of the order in which workers finished.  When *store*
    is given, every completed record is appended to the run directory, and
    *resume* serves jobs already stored there.
    """
    jobs = matrix.expand()
    records, report = execute_jobs(
        jobs, workers=workers, resume=resume, progress=progress, store=store
    )
    return assemble_sweep(jobs, records), report


class _LegacyFactoryAdapter:
    """Adapts a ``(protocol, config) -> spec`` factory to the matrix interface.

    A class (not a closure) so expanded jobs remain picklable when the factory
    itself is a module-level callable.
    """

    def __init__(self, factory: ScenarioFactory) -> None:
        self.factory = factory

    def __call__(self, protocol: str, config: SimulationConfig, name: str) -> ScenarioSpec:
        return self.factory(protocol, config)


class _DefaultScenarioFactory:
    """Standard all-to-all / cluster scenario builder used by the sweeps."""

    def __init__(
        self,
        workload: str,
        failures: Optional[FailureConfig],
        mobility: Optional[MobilityConfig],
        workload_options: Dict[str, object],
        placement: str = "grid",
    ) -> None:
        self.workload = workload
        self.failures = failures
        self.mobility = mobility
        self.workload_options = dict(workload_options)
        self.placement = placement

    def __call__(self, protocol: str, config: SimulationConfig, name: str) -> ScenarioSpec:
        if self.workload == "cluster":
            return cluster_scenario(
                protocol,
                config,
                failures=self.failures,
                placement=self.placement,
                **self.workload_options,
            )
        return all_to_all_scenario(
            protocol,
            config,
            failures=self.failures,
            mobility=self.mobility,
            placement=self.placement,
            **self.workload_options,
        )


def _legacy_sweep(
    name: str,
    parameter: str,
    values: Sequence[float],
    protocols: Sequence[str],
    base_config: Optional[SimulationConfig],
    workload: str,
    failures: Optional[FailureConfig],
    mobility: Optional[MobilityConfig],
    scenario_factory: Optional[ScenarioFactory],
    workers: int,
    workload_options: Dict[str, object],
    placement: str = "grid",
) -> SweepResult:
    base = base_config if base_config is not None else SimulationConfig()
    if scenario_factory is not None:
        factory = _LegacyFactoryAdapter(scenario_factory)
    else:
        factory = _DefaultScenarioFactory(
            workload, failures, mobility, workload_options, placement=placement
        )
    matrix = matrix_from_axes(
        name,
        parameter,
        values,
        protocols=protocols,
        base_config=base,
        seed_policy="shared",
        scenario_factory=factory,
    )
    sweep, _report = run_matrix(matrix, workers=workers)
    return sweep


def sweep_nodes(
    node_counts: Sequence[int],
    protocols: Sequence[str] = ("spms", "spin"),
    base_config: Optional[SimulationConfig] = None,
    workload: str = "all_to_all",
    failures: Optional[FailureConfig] = None,
    mobility: Optional[MobilityConfig] = None,
    scenario_factory: Optional[ScenarioFactory] = None,
    workers: int = 1,
    placement: str = "grid",
    **workload_options,
) -> SweepResult:
    """Run every protocol at every node count (Figures 6, 8, 10).

    Args:
        node_counts: Values of the swept ``num_nodes`` parameter.
        protocols: Protocols to compare.
        base_config: Configuration shared by all runs (node count overridden).
        workload: "all_to_all" or "cluster".
        failures: Failure injection (F-SPMS / F-SPIN curves) or ``None``.
        mobility: Step mobility or ``None``.
        scenario_factory: Custom scenario builder overriding the defaults.
        workers: Worker processes (1 = serial; results identical either way).
        **workload_options: Forwarded to the workload constructor.
    """
    return _legacy_sweep(
        "sweep-nodes",
        "num_nodes",
        node_counts,
        protocols,
        base_config,
        workload,
        failures,
        mobility,
        scenario_factory,
        workers,
        workload_options,
        placement=placement,
    )


def sweep_radius(
    radii_m: Sequence[float],
    protocols: Sequence[str] = ("spms", "spin"),
    base_config: Optional[SimulationConfig] = None,
    workload: str = "all_to_all",
    failures: Optional[FailureConfig] = None,
    mobility: Optional[MobilityConfig] = None,
    scenario_factory: Optional[ScenarioFactory] = None,
    workers: int = 1,
    placement: str = "grid",
    **workload_options,
) -> SweepResult:
    """Run every protocol at every transmission radius (Figures 7, 9, 11-13)."""
    return _legacy_sweep(
        "sweep-radius",
        "transmission_radius_m",
        radii_m,
        protocols,
        base_config,
        workload,
        failures,
        mobility,
        scenario_factory,
        workers,
        workload_options,
        placement=placement,
    )
