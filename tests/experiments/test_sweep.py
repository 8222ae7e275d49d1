"""Tests for parameter sweeps: matrix expansion -> execution -> sweep table."""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import assemble_sweep, execute_jobs
from repro.experiments.matrix import matrix_from_axes


@pytest.fixture
def base_config():
    return SimulationConfig(
        num_nodes=16,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=3,
    )


def run_sweep(parameter, values, base_config, **kwargs):
    matrix = matrix_from_axes(
        "t", parameter, values, base_config=base_config, seed_policy="shared", **kwargs
    )
    jobs = matrix.expand()
    records, _report = execute_jobs(jobs)
    return assemble_sweep(jobs, records)


class TestSweeps:
    def test_node_sweep_structure(self, base_config):
        sweep = run_sweep("num_nodes", [9, 16], base_config, protocols=("spms", "spin"))
        assert sweep.parameter == "num_nodes"
        assert sweep.values == [9, 16]
        assert len(sweep.results["spms"]) == 2
        assert len(sweep.results["spin"]) == 2
        assert sweep.results["spms"][0].num_nodes == 9
        assert sweep.results["spms"][1].num_nodes == 16

    def test_radius_sweep_structure(self, base_config):
        sweep = run_sweep(
            "transmission_radius_m", [10.0, 15.0], base_config, protocols=("spms",)
        )
        assert sweep.parameter == "transmission_radius_m"
        assert [r.transmission_radius_m for r in sweep.results["spms"]] == [10.0, 15.0]

    def test_sweep_rows_align_with_values(self, base_config):
        sweep = run_sweep("num_nodes", [9, 16], base_config)
        rows = sweep.rows("energy_per_item_uj")
        assert rows[0]["num_nodes"] == 9
        assert set(rows[0]) == {"num_nodes", "spms", "spin"}

    def test_cluster_workload_sweep(self, base_config):
        sweep = run_sweep(
            "transmission_radius_m",
            [15.0],
            base_config,
            protocols=("spms",),
            workload="cluster",
            workload_options={"packets_per_member": 1},
        )
        assert sweep.results["spms"][0].items_generated > 0
