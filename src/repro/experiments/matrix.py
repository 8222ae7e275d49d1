"""Scenario matrices: declarative parameter grids and their job expansion.

A :class:`ScenarioMatrix` declares a sweep — one or more swept configuration
axes, the protocols to compare and the shared workload/failure/mobility
setup — without running anything.  :meth:`ScenarioMatrix.expand` turns it into
a flat list of :class:`SweepJob` objects, each a fully self-contained,
picklable description of one simulation run:

* jobs are **independent** — every job carries its own complete
  :class:`~repro.experiments.scenarios.ScenarioSpec`, so they can execute in
  any order, on any worker process, with identical results;
* jobs are **seed-derived** — under the default ``"spawn"`` seed policy each
  job's master seed is :func:`repro.sim.rng.spawn_seed` of the matrix seed and
  the job's stable key, so grid points are statistically independent while the
  whole grid stays reproducible from a single integer.  The ``"shared"``
  policy keeps the base seed on every job (the paper's figures re-use one
  seed per sweep point).

Named grids live in a registry (:func:`register_matrix` /
:func:`get_matrix`): each figure of the paper registers its grid once, and
the CLI (``repro sweep fig06 --workers 4``), the figure generators and the
benchmarks all expand the same registered matrix.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.scenarios import (
    SCHEMA_KEY,
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
)
from repro.sim.rng import spawn_seed

#: Seed policies: "spawn" derives one independent seed per job from the base
#: seed and the job key; "shared" gives every job the base configuration seed.
SEED_POLICIES = ("spawn", "shared")

#: Names of the swept `SimulationConfig` fields.
_CONFIG_AXES = frozenset(f.name for f in dataclasses.fields(SimulationConfig))

#: Spec-level component selectors sweepable as non-config axes.
_SPEC_AXES = ("placement", "workload")

#: Option dictionaries addressable by dotted axes, e.g.
#: ``"workload_options.packets_per_member"``.
_OPTION_AXES = ("workload_options", "placement_options", "protocol_options")


def _format_axis_value(value) -> str:
    """Stable textual form of an axis value for job keys.

    Numbers render with ``%g`` (``12.5``, ``64``) whenever that is exact;
    otherwise ``%g`` would round (``1000001`` -> ``1e+06``) and two values
    would share a key, so the exact ``repr`` is used instead.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, float)):
        text = f"{value:g}"
        return text if float(text) == value else repr(value)
    return str(value)


@dataclass(frozen=True)
class SweepJob:
    """One independent simulation run of an expanded matrix.

    Attributes:
        index: Position in the expansion order (stable across runs).
        key: Stable identity, e.g. ``"fig06/num_nodes=64/spin"``; used for
            seed derivation, result addressing and progress reporting.
        matrix: Name of the matrix this job came from.
        parameter: The primary swept parameter.
        value: This job's value of the primary parameter (a number for
            configuration axes, e.g. a placement name for non-config axes).
        protocol: Protocol under test.
        spec: The complete scenario specification (self-contained, picklable).
        axes: This job's full grid coordinates — every axis (config or not),
            in declaration order.  Recorded into the job's
            :class:`~repro.results.RunRecord` for store queries and used to
            label secondary-axis series in assembled sweeps.
    """

    index: int
    key: str
    matrix: str
    parameter: str
    value: object
    protocol: str
    spec: ScenarioSpec
    axes: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioMatrix:
    """A declarative parameter grid over scenarios.

    Attributes:
        name: Registry/display name of the grid.
        axes: Mapping of axis name to the swept values.  An axis may be a
            ``SimulationConfig`` field (``"num_nodes"``), a spec-level
            component selector (``"placement"``, ``"workload"``) or a dotted
            option path (``"workload_options.packets_per_member"``) — any
            coordinate the canonical spec payload expresses is sweepable.
            Multiple axes expand as a cartesian product; the first axis is the
            *primary* parameter used when assembling a
            :class:`~repro.results.SweepResult` (secondary axes label the
            series, e.g. ``"spms[placement=random]"``).
        protocols: Protocols compared at every grid point.
        base_config: Configuration shared by all jobs (axes override fields).
        workload: Name of a registered workload ("all_to_all", "cluster", or
            any plugin taking no schedule-specific required options).
        workload_options: Extra workload constructor arguments.
        placement: Name of a registered placement ("grid", "random", ...).
        placement_options: Extra placement factory arguments.
        failures: Failure injection, or ``None``.
        mobility: Mobility, or ``None``.
        seed_policy: "spawn" (per-job derived seeds) or "shared" (all jobs use
            ``base_config.seed``).
    """

    name: str
    axes: Mapping[str, Sequence[object]]
    protocols: Sequence[str] = ("spms", "spin")
    base_config: SimulationConfig = field(default_factory=SimulationConfig)
    workload: str = "all_to_all"
    workload_options: Mapping[str, object] = field(default_factory=dict)
    placement: str = "grid"
    placement_options: Mapping[str, object] = field(default_factory=dict)
    failures: Optional[FailureConfig] = None
    mobility: Optional[MobilityConfig] = None
    seed_policy: str = "spawn"

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a scenario matrix needs at least one axis")
        if not self.protocols:
            raise ValueError("a scenario matrix needs at least one protocol")
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(
                f"unknown seed policy {self.seed_policy!r}; choose from {SEED_POLICIES}"
            )
        for axis, values in self.axes.items():
            if not list(values):
                raise ValueError(f"axis {axis!r} has no values")
            if self._axis_kind(axis) is None:
                raise ValueError(
                    f"unknown axis {axis!r}: not a SimulationConfig field, not one "
                    f"of {_SPEC_AXES}, and not a dotted option path "
                    f"(e.g. 'workload_options.packets_per_member')"
                )

    @staticmethod
    def _axis_kind(axis: str) -> Optional[str]:
        """Classify an axis: "config", "spec", "option" or ``None`` (unknown).

        Non-config axes are possible because jobs are materialised from the
        canonical serialized-spec payload: anything the payload expresses —
        the placement/workload selectors and their option dictionaries — is
        sweepable, not just ``SimulationConfig`` fields.
        """
        if axis in _CONFIG_AXES:
            return "config"
        if axis in _SPEC_AXES:
            return "spec"
        if "." in axis:
            prefix, _, option = axis.partition(".")
            if prefix in _OPTION_AXES and option:
                return "option"
        return None

    # ------------------------------------------------------------- expansion

    @property
    def parameter(self) -> str:
        """The primary swept parameter (first axis)."""
        return next(iter(self.axes))

    def grid_points(self) -> List[Dict[str, object]]:
        """Cartesian product of the axes, in deterministic order."""
        names = list(self.axes)
        combos = itertools.product(*(list(self.axes[n]) for n in names))
        return [dict(zip(names, combo)) for combo in combos]

    def job_count(self) -> int:
        """Number of jobs :meth:`expand` will produce."""
        total = 1
        for values in self.axes.values():
            total *= len(list(values))
        return total * len(list(self.protocols))

    def expand(self) -> List[SweepJob]:
        """Expand the grid into independent, seed-derived jobs.

        Raises:
            ValueError: When two jobs would share a key (e.g. a repeated axis
                value or protocol); keys address results and derive seeds.
        """
        jobs: List[SweepJob] = []
        keys = set()
        primary = self.parameter
        for point in self.grid_points():
            config_overrides = {
                axis: value
                for axis, value in point.items()
                if self._axis_kind(axis) == "config"
            }
            for protocol in self.protocols:
                index = len(jobs)
                key = self._job_key(point, protocol)
                if key in keys:
                    raise ValueError(
                        f"matrix {self.name!r} expands two jobs to the key {key!r}"
                    )
                keys.add(key)
                config = self.base_config.with_overrides(**config_overrides)
                if self.seed_policy == "spawn":
                    config = replace(
                        config, seed=spawn_seed(self.base_config.seed, key)
                    )
                spec = self._build_spec(protocol, config, point)
                jobs.append(
                    SweepJob(
                        index=index,
                        key=key,
                        matrix=self.name,
                        parameter=primary,
                        value=point[primary],
                        protocol=protocol,
                        spec=spec,
                        axes=dict(point),
                    )
                )
        return jobs

    def _job_key(self, point: Mapping[str, object], protocol: str) -> str:
        coords = "/".join(
            f"{axis}={_format_axis_value(point[axis])}" for axis in self.axes
        )
        return f"{self.name}/{coords}/{protocol}"

    def _build_spec(
        self,
        protocol: str,
        config: SimulationConfig,
        point: Mapping[str, object],
    ) -> ScenarioSpec:
        # Jobs are materialised from the canonical serialized-spec payload —
        # the same dictionary layout `repro run --spec` consumes and the
        # spec fingerprint hashes — so any registered workload/placement plugin
        # is sweepable and the payload is validated on the way in.  Spec-level
        # axes override the matrix-wide selectors; dotted option axes merge
        # into the corresponding options dictionary.
        selectors = {"workload": self.workload, "placement": self.placement}
        options = {
            "workload_options": dict(self.workload_options),
            "placement_options": dict(self.placement_options),
            "protocol_options": {},
        }
        for axis, value in point.items():
            kind = self._axis_kind(axis)
            if kind == "spec":
                selectors[axis] = value
            elif kind == "option":
                prefix, _, option = axis.partition(".")
                options[prefix][option] = value
        payload = {
            SCHEMA_KEY: SPEC_SCHEMA_VERSION,
            "name": f"{selectors['workload'].replace('_', '-')}/{protocol}",
            "protocol": protocol,
            "config": config.to_dict(),
            "workload": selectors["workload"],
            "workload_options": options["workload_options"],
            "placement": selectors["placement"],
            "placement_options": options["placement_options"],
            "protocol_options": options["protocol_options"],
            "failures": self.failures.to_dict() if self.failures is not None else None,
            "mobility": self.mobility.to_dict() if self.mobility is not None else None,
        }
        return ScenarioSpec.from_dict(payload)


# ------------------------------------------------------------------ registry

MatrixFactory = Callable[..., ScenarioMatrix]

_MATRIX_REGISTRY: Dict[str, MatrixFactory] = {}


def register_matrix(name: str) -> Callable[[MatrixFactory], MatrixFactory]:
    """Decorator registering a matrix factory under *name*.

    The factory receives the keyword arguments of :func:`get_matrix` (today: a
    ``scale`` — see :class:`repro.experiments.figures.FigureScale`) and must
    return a :class:`ScenarioMatrix`.
    """

    def decorate(factory: MatrixFactory) -> MatrixFactory:
        if name in _MATRIX_REGISTRY:
            raise ValueError(f"matrix {name!r} registered twice")
        _MATRIX_REGISTRY[name] = factory
        return factory

    return decorate


def _ensure_builtin_matrices() -> None:
    """Import the figure module so its registered grids are available.

    The paper's grids are registered as a side effect of importing
    :mod:`repro.experiments.figures`; callers that reach the registry directly
    (CLI, tests) should not have to know that.
    """
    import repro.experiments.figures  # noqa: F401  (registration side effect)


def get_matrix(name: str, **kwargs) -> ScenarioMatrix:
    """Instantiate the registered matrix *name*."""
    _ensure_builtin_matrices()
    try:
        factory = _MATRIX_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_MATRIX_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario matrix {name!r}; known: {known}") from None
    return factory(**kwargs)


def available_matrices() -> List[str]:
    """Sorted names of every registered matrix."""
    _ensure_builtin_matrices()
    return sorted(_MATRIX_REGISTRY)


def matrix_from_axes(
    name: str,
    parameter: str,
    values: Sequence[float],
    protocols: Sequence[str] = ("spms", "spin"),
    base_config: Optional[SimulationConfig] = None,
    **kwargs,
) -> ScenarioMatrix:
    """Convenience constructor for single-axis matrices."""
    return ScenarioMatrix(
        name=name,
        axes={parameter: tuple(values)},
        protocols=tuple(protocols),
        base_config=base_config if base_config is not None else SimulationConfig(),
        **kwargs,
    )
