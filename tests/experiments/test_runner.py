"""Tests for the experiment runner (end-to-end scenario execution)."""

import pytest

from repro.experiments.config import FailureConfig, MobilityConfig
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.results import RunRecord
from repro.experiments.scenarios import (
    all_to_all_scenario,
    cluster_scenario,
    single_pair_scenario,
)


@pytest.fixture
def config(tiny_config):
    return tiny_config


class TestStaticRuns:
    def test_spms_all_to_all_completes_all_deliveries(self, config):
        result = run_scenario(all_to_all_scenario("spms", config))
        assert result.items_generated == config.num_nodes
        assert result.delivery_ratio == 1.0
        assert result.energy_per_item_uj > 0.0
        assert result.average_delay_ms > 0.0
        assert result.protocol == "spms"

    def test_spin_all_to_all_completes_all_deliveries(self, config):
        result = run_scenario(all_to_all_scenario("spin", config))
        assert result.delivery_ratio == 1.0
        assert result.routing_rebuilds == 0
        assert result.routing_energy_uj == 0.0

    def test_spms_beats_spin_on_energy(self, config):
        spms = run_scenario(all_to_all_scenario("spms", config))
        spin = run_scenario(all_to_all_scenario("spin", config))
        assert spms.energy_per_item_uj < spin.energy_per_item_uj

    def test_runs_are_reproducible(self, config):
        first = run_scenario(all_to_all_scenario("spms", config))
        second = run_scenario(all_to_all_scenario("spms", config))
        assert first.energy_per_item_uj == pytest.approx(second.energy_per_item_uj)
        assert first.average_delay_ms == pytest.approx(second.average_delay_ms)

    def test_different_seed_changes_schedule_but_not_delivery(self, config):
        other = config.with_overrides(seed=99)
        a = run_scenario(all_to_all_scenario("spms", config))
        b = run_scenario(all_to_all_scenario("spms", other))
        assert b.delivery_ratio == 1.0
        assert a.items_generated == b.items_generated

    def test_initial_routing_not_charged_by_default(self, config):
        result = run_scenario(all_to_all_scenario("spms", config))
        assert result.routing_energy_uj == 0.0
        assert result.routing_rebuilds == 1

    def test_flooding_and_gossip_protocols_run(self, config):
        flood = run_scenario(all_to_all_scenario("flooding", config))
        gossip = run_scenario(all_to_all_scenario("gossip", config))
        assert flood.delivery_ratio == 1.0
        assert 0.0 < gossip.delivery_ratio <= 1.0
        assert flood.energy_per_item_uj > 0.0

    def test_single_pair_scenario(self, config):
        # Destination 5 is inside the source's zone (7.07 m away on the grid).
        spec = single_pair_scenario("spms", source=0, destinations=[5], config=config,
                                    num_items=2)
        result = run_scenario(spec)
        assert result.items_generated == 2
        assert result.expected_deliveries == 2
        assert result.delivery_ratio == 1.0

    def test_single_pair_outside_zone_is_not_delivered(self, config):
        # Node 15 is ~21 m from the source — beyond the 15 m zone — and no
        # intermediate node is interested, so base SPMS cannot deliver it.
        # (Inter-zone dissemination is the paper's stated future work.)
        spec = single_pair_scenario("spms", source=0, destinations=[15], config=config)
        result = run_scenario(spec)
        assert result.delivery_ratio == 0.0

    def test_cluster_scenario(self, config):
        result = run_scenario(cluster_scenario("spms", config, packets_per_member=1))
        assert result.items_generated > 0
        assert result.delivery_ratio == 1.0

    def test_run_scenario_returns_the_keyed_run_record(self, config):
        spec = all_to_all_scenario("spms", config)
        record = run_scenario(spec)
        assert isinstance(record, RunRecord)
        assert record.key == spec.name
        assert record.axes == {}
        keyed = run_scenario(spec, key="m/num_nodes=9/spms", axes={"num_nodes": 9})
        assert keyed.key == "m/num_nodes=9/spms"
        assert keyed.axes == {"num_nodes": 9}
        assert keyed.canonical_dict()["summary"] == record.canonical_dict()["summary"]

    def test_runner_exposes_built_objects(self, config):
        runner = ExperimentRunner(all_to_all_scenario("spms", config))
        runner.build()
        assert runner.sim is not None
        assert len(runner.nodes) == config.num_nodes
        assert runner.routing is not None
        # build() is idempotent.
        runner.build()
        assert len(runner.nodes) == config.num_nodes

    def test_unknown_workload_rejected(self, config):
        from repro.experiments.scenarios import ScenarioSpec

        spec = ScenarioSpec(name="bad", protocol="spms", config=config, workload="nope")
        with pytest.raises(ValueError):
            run_scenario(spec)


class TestFailureRuns:
    def test_failures_are_injected_and_tolerated(self, config):
        stretched = config.with_overrides(arrival_mean_interarrival_ms=30.0, packets_per_node=2)
        result = run_scenario(
            all_to_all_scenario("spms", stretched, failures=FailureConfig(mean_interarrival_ms=20.0))
        )
        assert result.failures_injected > 0
        # SPMS recovers via SCONE fallback: the vast majority of deliveries
        # still complete.
        assert result.delivery_ratio > 0.9

    def test_failure_run_delay_not_lower_than_healthy(self, config):
        stretched = config.with_overrides(arrival_mean_interarrival_ms=30.0, packets_per_node=2)
        healthy = run_scenario(all_to_all_scenario("spms", stretched))
        faulty = run_scenario(
            all_to_all_scenario("spms", stretched, failures=FailureConfig(mean_interarrival_ms=10.0))
        )
        assert faulty.average_delay_ms >= healthy.average_delay_ms * 0.95


class TestMobilityRuns:
    def test_mobility_rebuilds_routing_and_charges_energy(self, config):
        result = run_scenario(
            all_to_all_scenario("spms", config, mobility=MobilityConfig(num_epochs=2))
        )
        assert result.routing_rebuilds == 3  # initial + one per epoch
        assert result.routing_energy_uj > 0.0

    def test_spin_mobility_has_no_routing_cost(self, config):
        result = run_scenario(
            all_to_all_scenario("spin", config, mobility=MobilityConfig(num_epochs=2))
        )
        assert result.routing_energy_uj == 0.0

    def test_mobility_delivery_mostly_completes(self, config):
        result = run_scenario(
            all_to_all_scenario("spms", config, mobility=MobilityConfig(num_epochs=1))
        )
        assert result.delivery_ratio > 0.9
