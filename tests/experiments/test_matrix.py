"""Tests for the scenario-matrix registry and grid expansion."""

import pickle

import pytest

from repro.experiments.config import FailureConfig, SimulationConfig
from repro.experiments.matrix import (
    ScenarioMatrix,
    available_matrices,
    get_matrix,
    matrix_from_axes,
    register_matrix,
)
from repro.experiments.figures import FigureScale, bench_scale


@pytest.fixture
def base_config():
    return SimulationConfig(
        num_nodes=9,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=5,
    )


class TestExpansion:
    def test_single_axis_expansion_order(self, base_config):
        matrix = matrix_from_axes(
            "m", "num_nodes", (9, 16), protocols=("spms", "spin"), base_config=base_config
        )
        jobs = matrix.expand()
        assert [j.index for j in jobs] == [0, 1, 2, 3]
        assert [(j.value, j.protocol) for j in jobs] == [
            (9, "spms"), (9, "spin"), (16, "spms"), (16, "spin"),
        ]
        assert jobs[2].spec.config.num_nodes == 16
        assert jobs[0].key == "m/num_nodes=9/spms"
        assert matrix.job_count() == 4

    def test_multi_axis_cartesian_product(self, base_config):
        matrix = ScenarioMatrix(
            name="grid",
            axes={"num_nodes": (9, 16), "transmission_radius_m": (10.0, 15.0)},
            protocols=("spms",),
            base_config=base_config,
        )
        jobs = matrix.expand()
        assert matrix.parameter == "num_nodes"
        assert len(jobs) == 4
        combos = {(j.spec.config.num_nodes, j.spec.config.transmission_radius_m) for j in jobs}
        assert combos == {(9, 10.0), (9, 15.0), (16, 10.0), (16, 15.0)}

    def test_spawn_policy_derives_per_job_seeds(self, base_config):
        matrix = matrix_from_axes("m", "num_nodes", (9, 16), base_config=base_config)
        seeds = {j.key: j.spec.config.seed for j in matrix.expand()}
        assert len(set(seeds.values())) == len(seeds)
        assert all(seed != base_config.seed for seed in seeds.values())

    def test_shared_policy_keeps_base_seed(self, base_config):
        matrix = matrix_from_axes(
            "m", "num_nodes", (9, 16), base_config=base_config, seed_policy="shared"
        )
        assert all(j.spec.config.seed == base_config.seed for j in matrix.expand())

    def test_failures_and_options_propagate(self, base_config):
        matrix = matrix_from_axes(
            "m",
            "transmission_radius_m",
            (15.0,),
            protocols=("spms",),
            base_config=base_config,
            workload="cluster",
            workload_options={"packets_per_member": 1},
            failures=FailureConfig(),
        )
        (job,) = matrix.expand()
        assert job.spec.workload == "cluster"
        assert job.spec.workload_options["packets_per_member"] == 1
        assert job.spec.failures == FailureConfig()

    def test_jobs_are_picklable(self, base_config):
        jobs = matrix_from_axes("m", "num_nodes", (9,), base_config=base_config).expand()
        assert pickle.loads(pickle.dumps(jobs[0])).key == jobs[0].key

    def test_jobs_carry_their_grid_coordinates(self, base_config):
        matrix = ScenarioMatrix(
            name="grid",
            axes={"num_nodes": (9, 16), "transmission_radius_m": (10.0,)},
            protocols=("spms",),
            base_config=base_config,
        )
        axes = [job.axes for job in matrix.expand()]
        assert axes == [
            {"num_nodes": 9, "transmission_radius_m": 10.0},
            {"num_nodes": 16, "transmission_radius_m": 10.0},
        ]

    def test_validation(self, base_config):
        with pytest.raises(ValueError, match="axis"):
            ScenarioMatrix(name="m", axes={"num_nodes": ()})
        with pytest.raises(ValueError, match="seed policy"):
            matrix_from_axes("m", "num_nodes", (9,), seed_policy="bogus")
        with pytest.raises(ValueError, match="protocol"):
            ScenarioMatrix(name="m", axes={"num_nodes": (9,)}, protocols=())

    def test_large_axis_values_get_distinct_keys(self, base_config):
        # `%g` alone renders both seeds as `1e+06`, colliding their keys.
        matrix = matrix_from_axes(
            "m", "seed", (1000000, 1000001), protocols=("spms",), base_config=base_config
        )
        assert [j.key for j in matrix.expand()] == [
            "m/seed=1e+06/spms",
            "m/seed=1000001/spms",
        ]

    def test_exact_g_keys_are_unchanged(self, base_config):
        matrix = matrix_from_axes(
            "m",
            "transmission_radius_m",
            (12.5, 10.0),
            protocols=("spms",),
            base_config=base_config,
        )
        assert [j.key for j in matrix.expand()] == [
            "m/transmission_radius_m=12.5/spms",
            "m/transmission_radius_m=10/spms",
        ]

    def test_colliding_keys_rejected(self, base_config):
        matrix = matrix_from_axes(
            "m", "num_nodes", (9, 9.0), protocols=("spms",), base_config=base_config
        )
        with pytest.raises(ValueError, match="'m/num_nodes=9/spms'"):
            matrix.expand()


class TestNonConfigAxes:
    def test_placement_axis_overrides_the_spec_selector(self, base_config):
        matrix = ScenarioMatrix(
            name="m",
            axes={"num_nodes": (9,), "placement": ("grid", "random")},
            protocols=("spms",),
            base_config=base_config,
        )
        jobs = matrix.expand()
        assert [j.spec.placement for j in jobs] == ["grid", "random"]
        assert [j.key for j in jobs] == [
            "m/num_nodes=9/placement=grid/spms",
            "m/num_nodes=9/placement=random/spms",
        ]
        # Non-config coordinates do not leak into the config.
        assert all(j.spec.config.num_nodes == 9 for j in jobs)

    def test_workload_axis_sweeps_workloads(self, base_config):
        matrix = ScenarioMatrix(
            name="m",
            axes={"workload": ("all_to_all", "cluster")},
            protocols=("spms",),
            base_config=base_config,
        )
        jobs = matrix.expand()
        assert [j.spec.workload for j in jobs] == ["all_to_all", "cluster"]
        assert [j.value for j in jobs] == ["all_to_all", "cluster"]

    def test_dotted_option_axis_merges_into_options(self, base_config):
        matrix = ScenarioMatrix(
            name="m",
            axes={
                "transmission_radius_m": (15.0,),
                "workload_options.packets_per_member": (1, 2),
            },
            protocols=("spms",),
            base_config=base_config,
            workload="cluster",
            workload_options={"member_interest_probability": 0.5},
        )
        jobs = matrix.expand()
        assert [j.spec.workload_options["packets_per_member"] for j in jobs] == [1, 2]
        # Matrix-wide options survive alongside the swept one.
        assert all(
            j.spec.workload_options["member_interest_probability"] == 0.5 for j in jobs
        )

    def test_non_config_axes_derive_distinct_spawn_seeds(self, base_config):
        matrix = ScenarioMatrix(
            name="m",
            axes={"placement": ("grid", "random")},
            protocols=("spms",),
            base_config=base_config,
            seed_policy="spawn",
        )
        seeds = [j.spec.config.seed for j in matrix.expand()]
        assert len(set(seeds)) == len(seeds)

    def test_unknown_axis_rejected(self, base_config):
        with pytest.raises(ValueError, match="unknown axis"):
            ScenarioMatrix(
                name="m", axes={"num_nodez": (9,)}, base_config=base_config
            )
        with pytest.raises(ValueError, match="unknown axis"):
            ScenarioMatrix(
                name="m",
                axes={"workload_options.": (1,)},
                base_config=base_config,
            )


class TestRegistry:
    def test_builtin_figures_registered(self):
        names = available_matrices()
        for expected in (
            "fig06",
            "fig06-placement",
            "fig07",
            "fig10-failures",
            "fig12-mobility",
            "fig12-waypoint",
        ):
            assert expected in names

    def test_placement_matrix_covers_both_placements(self):
        matrix = get_matrix("fig06-placement", scale=bench_scale())
        assert matrix.parameter == "num_nodes"
        assert tuple(matrix.axes["placement"]) == ("grid", "random")
        placements = {j.spec.placement for j in matrix.expand()}
        assert placements == {"grid", "random"}

    def test_waypoint_matrix_uses_the_waypoint_component(self):
        matrix = get_matrix("fig12-waypoint", scale=bench_scale())
        assert matrix.mobility is not None
        assert matrix.mobility.model == "waypoint"
        job = matrix.expand()[0]
        assert job.spec.mobility.model == "waypoint"

    def test_waypoint_matrix_runs_end_to_end(self):
        from repro.experiments.executor import execute_jobs

        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(15.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            mobility_packets_per_node=2,
            arrival_mean_interarrival_ms=5.0,
        )
        jobs = get_matrix("fig12-waypoint", scale=tiny).expand()
        records, _ = execute_jobs(jobs[:1])
        record = records[jobs[0].key]
        assert record.deliveries_completed > 0
        assert record.sim_time_ms > 0.0

    def test_get_matrix_builds_scaled_grid(self):
        matrix = get_matrix("fig06", scale=bench_scale())
        assert matrix.parameter == "num_nodes"
        assert tuple(matrix.axes["num_nodes"]) == tuple(bench_scale().node_counts)
        # The paper's figures keep one shared seed per sweep.
        assert matrix.seed_policy == "shared"

    def test_unknown_matrix_raises_with_known_names(self):
        with pytest.raises(KeyError, match="fig06"):
            get_matrix("not-a-matrix")

    def test_double_registration_rejected(self):
        @register_matrix("test-once-only")
        def factory(scale=None):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ValueError, match="registered twice"):
            register_matrix("test-once-only")(factory)
