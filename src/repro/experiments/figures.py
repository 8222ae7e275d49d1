"""Per-figure experiment generators.

One function per table/figure of the paper's evaluation.  Each returns either
an analytical series (Figures 3 and 5) or a :class:`SweepResult` of run
records (Figures 6-13): the figure's registered matrix is expanded, executed
by :func:`~repro.experiments.executor.execute_jobs` and folded by
:func:`~repro.experiments.executor.assemble_sweep`.  The benchmark files
under ``benchmarks/`` call these and print the resulting rows.

Scaling: the paper runs 10 packets per node on up to ~225 nodes.  That is
minutes of simulation per figure in pure Python, so the default
:func:`bench_scale` uses the same topology sweep with fewer packets per node
and slightly smaller node counts; :func:`paper_scale` reproduces the paper's
sizes.  ``EXPERIMENTS.md`` records which scale produced the recorded numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.delay_model import delay_ratio_series
from repro.analysis.energy_model import energy_ratio_series
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    TABLE1_PARAMETERS,
)
from repro.experiments.executor import assemble_sweep, default_workers, execute_jobs
from repro.experiments.matrix import (
    MatrixFactory,
    ScenarioMatrix,
    matrix_from_axes,
    register_matrix,
)
from repro.results import SweepResult


@dataclass(frozen=True)
class FigureScale:
    """How large the simulated sweeps are.

    Attributes:
        node_counts: Swept node counts (Figures 6, 8, 10).
        radii_m: Swept transmission radii (Figures 7, 9, 11, 12, 13).
        fixed_num_nodes: Node count used for the radius sweeps.
        packets_per_node: All-to-all originations per node.
        mobility_packets_per_node: Originations per node in the mobility
            experiment.  The SPMS routing-rebuild overhead must be amortised
            over the packets sent between mobility epochs (the paper's
            break-even argument), so this figure uses more traffic than the
            static sweeps at bench scale.
        cluster_packets_per_member: Cluster originations per member.
        arrival_mean_interarrival_ms: Gap between originations.  Table 1 uses
            1 ms; the bench scale stretches the gap so the (much shorter)
            bench workload still spans enough simulated time for the Table 1
            failure process to inject a meaningful number of failures.
        seed: Master seed shared by every run.
    """

    node_counts: Sequence[int] = (16, 36, 64, 100, 144)
    radii_m: Sequence[float] = (10.0, 15.0, 20.0, 25.0, 30.0)
    fixed_num_nodes: int = 64
    packets_per_node: int = 1
    mobility_packets_per_node: int = 2
    cluster_packets_per_member: int = 1
    arrival_mean_interarrival_ms: float = 50.0
    seed: int = 1

    def base_config(self, **overrides) -> SimulationConfig:
        """The shared configuration for this scale."""
        params = {
            "packets_per_node": self.packets_per_node,
            "arrival_mean_interarrival_ms": self.arrival_mean_interarrival_ms,
            "seed": self.seed,
        }
        params.update(overrides)
        return SimulationConfig(**params)


def bench_scale() -> FigureScale:
    """Scale used by the benchmark harness (seconds per figure)."""
    return FigureScale()


def paper_scale() -> FigureScale:
    """The paper's own scale (minutes per figure in pure Python)."""
    return FigureScale(
        node_counts=(25, 64, 100, 169, 225),
        radii_m=(10.0, 15.0, 20.0, 25.0, 30.0),
        fixed_num_nodes=169,
        packets_per_node=10,
        mobility_packets_per_node=10,
        cluster_packets_per_member=2,
        arrival_mean_interarrival_ms=1.0,
    )


# ----------------------------------------------------------------- run cache
#
# Several figures share identical sweeps (Figure 6 and Figure 8 plot energy
# and delay of the same runs; Figures 10/11 reuse the failure-free curves of
# Figures 6/9).  Simulation runs are deterministic for a given scale, so the
# sweeps are memoised per (matrix, scale) to keep the benchmark suite fast.


@functools.cache
def _memoised_sweep(matrix: MatrixFactory, scale: FigureScale) -> SweepResult:
    return _run_registered(matrix(scale))


def clear_figure_cache() -> None:
    """Drop memoised sweeps (tests use this to force fresh runs)."""
    _memoised_sweep.cache_clear()


# ----------------------------------------------------------- figure matrices
#
# Every simulated figure registers its parameter grid in the scenario-matrix
# registry, so the CLI (`repro sweep fig06 --workers 4`), the figure
# generators below and the benchmark drivers all expand the very same grid.
# The grids keep the paper's historical seeding (one shared seed per sweep,
# `seed_policy="shared"`), which makes the regenerated figures bit-identical
# to the pre-matrix serial implementation.


def _scale_or_bench(scale: "FigureScale | None") -> "FigureScale":
    return scale if scale is not None else bench_scale()


@register_matrix("fig06")
def fig06_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Static all-to-all node sweep (Figures 6 and 8 share these runs)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig06",
        "num_nodes",
        scale.node_counts,
        base_config=scale.base_config(transmission_radius_m=20.0),
        seed_policy="shared",
    )


@register_matrix("fig06-random")
def fig06_random_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Figure 6's node sweep on a uniform-random (non-grid) placement.

    Not a figure of the paper: a robustness companion checking that the
    SPMS-vs-SPIN comparison does not depend on grid regularity, and the
    end-to-end exercise of the pluggable ``random`` placement component.
    """
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig06-random",
        "num_nodes",
        scale.node_counts,
        base_config=scale.base_config(transmission_radius_m=20.0),
        placement="random",
        seed_policy="shared",
    )


@register_matrix("fig06-placement")
def fig06_placement_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Figure 6's node sweep across placements, as one two-axis matrix.

    Sweeps the grid and the uniform-random placements side by side via the
    non-config ``placement`` axis — the assembled sweep has one series per
    (protocol, placement) pair (``"spms[placement=random]"``, ...), so the
    placement-robustness comparison lands in a single table instead of two
    separate matrices.
    """
    scale = _scale_or_bench(scale)
    return ScenarioMatrix(
        name="fig06-placement",
        axes={
            "num_nodes": tuple(scale.node_counts),
            "placement": ("grid", "random"),
        },
        base_config=scale.base_config(transmission_radius_m=20.0),
        seed_policy="shared",
    )


@register_matrix("fig07")
def fig07_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Static all-to-all radius sweep (Figures 7 and 9 share these runs)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig07",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        seed_policy="shared",
    )


@register_matrix("fig10-failures")
def fig10_failures_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Node sweep with the Table 1 transient-failure process (Figure 10)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig10-failures",
        "num_nodes",
        scale.node_counts,
        base_config=scale.base_config(transmission_radius_m=20.0),
        failures=FailureConfig(),
        seed_policy="shared",
    )


@register_matrix("fig11-failures")
def fig11_failures_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Radius sweep with transient failures (Figure 11)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig11-failures",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        failures=FailureConfig(),
        seed_policy="shared",
    )


@register_matrix("fig12-mobility")
def fig12_mobility_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Radius sweep with step mobility (Figure 12)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig12-mobility",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(
            num_nodes=scale.fixed_num_nodes,
            packets_per_node=scale.mobility_packets_per_node,
        ),
        mobility=MobilityConfig(),
        seed_policy="shared",
    )


@register_matrix("fig12-waypoint")
def fig12_waypoint_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Figure 12's radius sweep under random-waypoint (continuous) mobility.

    Not a figure of the paper: a mobility-model companion to Figure 12 using
    the registered ``waypoint`` component — nodes drift continuously between
    epochs instead of teleporting in steps, exercising frequent topology
    churn.  Runnable via ``repro sweep fig12-waypoint``.
    """
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig12-waypoint",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(
            num_nodes=scale.fixed_num_nodes,
            packets_per_node=scale.mobility_packets_per_node,
        ),
        mobility=MobilityConfig(model="waypoint", num_epochs=2),
        seed_policy="shared",
    )


@register_matrix("fig13-cluster")
def fig13_cluster_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Radius sweep under cluster-based hierarchical traffic (Figure 13)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig13-cluster",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        workload="cluster",
        workload_options={"packets_per_member": scale.cluster_packets_per_member},
        seed_policy="shared",
    )


@register_matrix("fig13-cluster-failures")
def fig13_cluster_failures_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Cluster-traffic radius sweep with transient failures (Figure 13)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig13-cluster-failures",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        workload="cluster",
        workload_options={"packets_per_member": scale.cluster_packets_per_member},
        failures=FailureConfig(),
        seed_policy="shared",
    )


def _run_registered(matrix: ScenarioMatrix) -> SweepResult:
    """Execute a figure matrix (worker count from ``REPRO_SWEEP_WORKERS``)."""
    jobs = matrix.expand()
    records, _report = execute_jobs(jobs, workers=default_workers())
    return assemble_sweep(jobs, records)


def _with_failure_curves(
    healthy: SweepResult, faulty: SweepResult, values: Sequence[float]
) -> SweepResult:
    """Four curves: ``spms``/``spin`` failure free, ``f-spms``/``f-spin`` faulty."""
    merged = SweepResult(parameter=healthy.parameter, values=list(values))
    merged.results["spms"] = healthy.results["spms"]
    merged.results["spin"] = healthy.results["spin"]
    merged.results["f-spms"] = faulty.results["spms"]
    merged.results["f-spin"] = faulty.results["spin"]
    return merged


# --------------------------------------------------------------------- Table 1


def table1_parameters() -> Dict[str, object]:
    """Table 1: the simulation parameters used throughout the evaluation."""
    return dict(TABLE1_PARAMETERS)


# ------------------------------------------------------------- Figures 3 and 5


def figure3_delay_ratio(radii_m: Sequence[float] = tuple(range(2, 31, 2))) -> List[Tuple[float, float]]:
    """Figure 3: analytical SPIN/SPMS latency ratio vs transmission radius."""
    return delay_ratio_series(radii_m)


def figure5_energy_ratio(radii: Sequence[int] = tuple(range(1, 31))) -> List[Tuple[int, float]]:
    """Figure 5: analytical SPIN/SPMS energy ratio vs transmission radius."""
    return energy_ratio_series(radii)


# ----------------------------------------------------------- Figures 6 through 9


def figure6_energy_vs_nodes(scale: FigureScale | None = None) -> SweepResult:
    """Figure 6: energy per packet vs number of nodes (static, failure free)."""
    return _memoised_sweep(fig06_matrix, scale or bench_scale())


def figure7_energy_vs_radius(scale: FigureScale | None = None) -> SweepResult:
    """Figure 7: energy per packet vs transmission radius (fixed node count)."""
    return _memoised_sweep(fig07_matrix, scale or bench_scale())


def figure8_delay_vs_nodes(scale: FigureScale | None = None) -> SweepResult:
    """Figure 8: end-to-end delay vs number of nodes (static, failure free).

    The runs are shared with Figure 6 (the paper plots energy and delay of
    the same simulations).
    """
    return _memoised_sweep(fig06_matrix, scale or bench_scale())


def figure9_delay_vs_radius(scale: FigureScale | None = None) -> SweepResult:
    """Figure 9: end-to-end delay vs transmission radius (fixed node count).

    The runs are shared with Figure 7.
    """
    return _memoised_sweep(fig07_matrix, scale or bench_scale())


# ---------------------------------------------------------- Figures 10 and 11


def figure10_delay_failures_vs_nodes(scale: FigureScale | None = None) -> SweepResult:
    """Figure 10: delay vs nodes, with and without transient failures.

    Produces four curves: ``spms``/``spin`` (failure free) and
    ``f-spms``/``f-spin`` (with the Table 1 failure process).
    """
    scale = scale or bench_scale()
    return _with_failure_curves(
        _memoised_sweep(fig06_matrix, scale),
        _memoised_sweep(fig10_failures_matrix, scale),
        scale.node_counts,
    )


def figure11_delay_failures_vs_radius(scale: FigureScale | None = None) -> SweepResult:
    """Figure 11: delay vs transmission radius, with and without failures."""
    scale = scale or bench_scale()
    return _with_failure_curves(
        _memoised_sweep(fig07_matrix, scale),
        _memoised_sweep(fig11_failures_matrix, scale),
        scale.radii_m,
    )


# ----------------------------------------------------------------- Figure 12


def figure12_energy_mobility(scale: FigureScale | None = None) -> SweepResult:
    """Figure 12: energy vs transmission radius with step mobility.

    SPMS pays for routing-table re-convergence after every mobility epoch;
    SPIN does not, which narrows (but does not close) the energy gap.
    """
    scale = scale or bench_scale()
    return _run_registered(fig12_mobility_matrix(scale))


# ----------------------------------------------------------------- Figure 13


def figure13_energy_cluster(scale: FigureScale | None = None) -> SweepResult:
    """Figure 13: energy vs transmission radius, cluster-based traffic,
    with and without transient failures (four curves)."""
    scale = scale or bench_scale()
    return _with_failure_curves(
        _run_registered(fig13_cluster_matrix(scale)),
        _run_registered(fig13_cluster_failures_matrix(scale)),
        scale.radii_m,
    )
