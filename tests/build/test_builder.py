"""Tests for the phase-decomposed simulation builder."""

import pytest

from repro.build import (
    PLACEMENT,
    PROTOCOL,
    WORKLOAD,
    ComponentRegistry,
    SimulationBuilder,
    UnknownComponentError,
    default_registry,
)
from repro.build.registry import CONTENTION, FAILURE, MOBILITY
from repro.core.spin import SpinNode
from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.experiments.scenarios import all_to_all_scenario


@pytest.fixture
def config():
    return SimulationConfig(
        num_nodes=9,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=11,
    )


def _clone_default_registry() -> ComponentRegistry:
    """A private registry pre-loaded with the built-in components."""
    clone = ComponentRegistry()
    source = default_registry()
    for kind in (PROTOCOL, WORKLOAD, PLACEMENT, MOBILITY, FAILURE, CONTENTION):
        for name in source.available(kind):
            registration = source.lookup(kind, name)
            clone.add(
                kind,
                name,
                registration.factory,
                aliases=registration.aliases,
                metadata=registration.metadata,
            )
    return clone


class TestPhases:
    def test_build_runs_every_phase(self, config):
        builder = SimulationBuilder(all_to_all_scenario("spms", config))
        builder.build()
        assert builder.sim is not None
        assert builder.field is not None and len(builder.field) == config.num_nodes
        assert builder.zone_map is not None
        assert builder.network is not None
        assert builder.routing is not None  # spms needs routing
        assert builder.workload is not None and builder.schedule
        assert len(builder.nodes) == config.num_nodes

    def test_build_is_idempotent(self, config):
        builder = SimulationBuilder(all_to_all_scenario("spin", config))
        builder.build()
        nodes = dict(builder.nodes)
        builder.build()
        assert builder.nodes == nodes

    def test_routing_only_built_when_protocol_needs_it(self, config):
        builder = SimulationBuilder(all_to_all_scenario("spin", config))
        builder.build()
        assert builder.routing is None

    def test_fault_phase_creates_models(self, config):
        spec = all_to_all_scenario(
            "spms", config, failures=FailureConfig(), mobility=MobilityConfig()
        )
        builder = SimulationBuilder(spec)
        builder.build()
        assert builder.failure_model is not None
        assert builder.mobility_model is not None

    def test_phase_override_via_subclass(self, config):
        calls = []

        class Spy(SimulationBuilder):
            def build_radio(self):
                calls.append("radio")
                super().build_radio()

        Spy(all_to_all_scenario("spin", config)).build()
        assert calls == ["radio"]


class TestPlacements:
    def test_random_placement_from_spec(self, config):
        spec = all_to_all_scenario("spin", config, placement="random")
        builder = SimulationBuilder(spec)
        builder.build()
        xs = {builder.field.position(n).x for n in builder.field.node_ids}
        # A 3x3 grid has exactly 3 distinct x coordinates; random has ~9.
        assert len(xs) > 3

    def test_random_placement_is_seed_deterministic(self, config):
        spec = all_to_all_scenario("spms", config, placement="random")
        assert run_scenario(spec).canonical_json() == run_scenario(spec).canonical_json()

    def test_placement_seed_changes_layout(self, config):
        first = SimulationBuilder(all_to_all_scenario("spin", config, placement="random"))
        first.build()
        reseeded = all_to_all_scenario(
            "spin", config.with_overrides(seed=config.seed + 1), placement="random"
        )
        second = SimulationBuilder(reseeded)
        second.build()
        positions = lambda b: [
            (b.field.position(n).x, b.field.position(n).y) for n in b.field.node_ids
        ]
        assert positions(first) != positions(second)

    def test_unknown_placement_rejected_with_known_names(self, config):
        spec = all_to_all_scenario("spin", config, placement="hexagonal")
        with pytest.raises(UnknownComponentError, match="grid"):
            SimulationBuilder(spec).build()


class TestPluginsEndToEnd:
    def test_custom_protocol_plugin_runs_through_runner(self, config):
        registry = _clone_default_registry()

        class QuietSpin(SpinNode):
            pass

        registry.add(
            PROTOCOL,
            "quiet-spin",
            lambda node_id, network, interest, routing=None, **kw: QuietSpin(
                node_id, network, interest, **kw
            ),
        )
        spec = all_to_all_scenario("quiet-spin", config)
        runner = ExperimentRunner(spec, registry=registry)
        result = runner.run_record()
        assert result.protocol == "quiet-spin"
        assert all(isinstance(n, QuietSpin) for n in runner.nodes.values())
        # The f- failure-variant naming comes for free.
        assert (
            SimulationBuilder(
                all_to_all_scenario("f-quiet-spin", config), registry=registry
            ).protocol
            == "quiet-spin"
        )

    def test_custom_placement_plugin(self, config):
        from repro.topology.node import NodeInfo, Position

        registry = _clone_default_registry()

        def line_placement(cfg, rng, **options):
            return [
                NodeInfo(node_id=i, position=Position(i * cfg.grid_spacing_m, 0.0))
                for i in range(cfg.num_nodes)
            ]

        registry.add(PLACEMENT, "line", line_placement)
        spec = all_to_all_scenario("spin", config, placement="line")
        builder = SimulationBuilder(spec, registry=registry)
        builder.build()
        assert all(builder.field.position(n).y == 0.0 for n in builder.field.node_ids)


class TestContentionSelection:
    def test_contention_resolved_from_config(self, config):
        from repro.mac.contention import ExponentialContention

        spec = all_to_all_scenario(
            "spin", config.with_overrides(contention="exponential")
        )
        builder = SimulationBuilder(spec)
        builder.build()
        assert isinstance(builder.mac_delay.contention, ExponentialContention)

    def test_unknown_contention_rejected(self, config):
        bad = config.with_overrides(contention="token-ring")
        with pytest.raises(UnknownComponentError):
            SimulationBuilder(all_to_all_scenario("spin", bad)).build()
