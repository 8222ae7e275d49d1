"""Hand-built micro-scenarios ("sandboxes").

The experiment runner builds grids and bulk workloads; the sandbox builds a
small network from *explicit* node positions so that protocol behaviour can be
examined packet by packet — the paper's walk-through topologies (Sections 3.3
and 3.5), unit tests, and the fault-tolerance example all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.build import PROTOCOL, default_registry, normalize_protocol_name
from repro.core.interests import ExplicitInterest
from repro.core.metadata import DataDescriptor, DataItem
from repro.core.network import Network
from repro.core.node_base import ProtocolNode
from repro.mac.delay import MacDelayModel
from repro.metrics.collector import MetricsCollector
from repro.radio.energy import EnergyModel
from repro.radio.power import build_power_table_for_radius
from repro.routing.manager import RoutingManager
from repro.sim.engine import Simulator
from repro.topology.field import SensorField
from repro.topology.node import NodeInfo, Position
from repro.topology.zone import ZoneMap


@dataclass
class Sandbox:
    """A fully wired micro-network with explicit interest control."""

    sim: Simulator
    field: SensorField
    zone_map: ZoneMap
    network: Network
    routing: RoutingManager
    metrics: MetricsCollector
    nodes: Dict[int, ProtocolNode]
    interest: ExplicitInterest

    def item(self, name: str, source: int, size_bytes: int = 40) -> DataItem:
        """Create a data item produced by *source*."""
        return DataItem(
            descriptor=DataDescriptor(name=name),
            source=source,
            size_bytes=size_bytes,
            created_at_ms=self.sim.now,
        )

    def set_interest(self, name: str, destinations: Sequence[int]) -> None:
        """Declare which nodes want the item called *name*."""
        self.interest.set_interest(name, destinations)

    def originate(self, name: str, source: int, destinations: Sequence[int]) -> DataItem:
        """Register interest and metrics bookkeeping, then originate the item."""
        self.set_interest(name, destinations)
        item = self.item(name, source)
        self.metrics.record_item_generated(name, self.sim.now, list(destinations))
        self.nodes[source].originate(item)
        return item

    def run(self, until: float = 10_000.0) -> float:
        """Run until the event calendar drains (or *until* is reached)."""
        return self.sim.run(until=until)

    def delivered(self, name: str, destination: int) -> bool:
        """Whether *destination* holds the item called *name*."""
        return self.nodes[destination].cache.has(DataDescriptor(name=name))


def build_sandbox(
    positions: Sequence[Tuple[float, float]],
    protocol: str = "spms",
    radius_m: float = 20.0,
    seed: int = 3,
    random_backoff: bool = False,
    trace: bool = False,
    protocol_options: Optional[dict] = None,
) -> Sandbox:
    """Wire the full stack around explicit node positions.

    Args:
        positions: ``(x, y)`` coordinates in metres; node ids follow list order.
        protocol: Protocol to instantiate on every node.
        radius_m: Maximum transmission radius (zone radius).
        seed: Simulator seed.
        random_backoff: Enable the random slotted backoff (off by default so
            micro-scenarios are deterministic).
        trace: Record a packet-level trace in ``sandbox.sim.trace_log``.
        protocol_options: Extra keyword arguments for the node constructor.
    """
    registry = default_registry()
    canonical = normalize_protocol_name(protocol, registry=registry)
    sim = Simulator(seed=seed, trace=trace)
    field = SensorField(
        [NodeInfo(node_id=i, position=Position(x, y)) for i, (x, y) in enumerate(positions)]
    )
    power_table = build_power_table_for_radius(radius_m, num_levels=5, alpha=2.0)
    zone_map = ZoneMap(field, radius_m)
    metrics = MetricsCollector()
    energy_model = EnergyModel(power_table, rx_power_mw=0.0125)
    mac = MacDelayModel(rng=sim.rng if random_backoff else None)
    network = Network(
        sim=sim,
        field=field,
        power_table=power_table,
        zone_map=zone_map,
        energy_model=energy_model,
        mac_delay=mac,
        metrics=metrics,
        trace=trace,
    )
    routing = RoutingManager(
        field=field,
        power_table=power_table,
        zone_map=zone_map,
        energy_model=energy_model,
        energy_ledger=metrics.energy,
        mac_delay=mac,
        charge_energy=False,
    )
    routing.build()
    interest = ExplicitInterest({})
    nodes: Dict[int, ProtocolNode] = {}
    for node_id in field.node_ids:
        node = registry.create(
            PROTOCOL,
            canonical,
            node_id,
            network,
            interest,
            routing=routing if canonical == "spms" else None,
            **(protocol_options or {}),
        )
        network.register_node(node)
        nodes[node_id] = node
    return Sandbox(
        sim=sim,
        field=field,
        zone_map=zone_map,
        network=network,
        routing=routing,
        metrics=metrics,
        nodes=nodes,
        interest=interest,
    )


def line_positions(count: int, spacing_m: float = 5.0) -> List[Tuple[float, float]]:
    """Positions of *count* nodes on a straight line, *spacing_m* apart."""
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    if spacing_m <= 0:
        raise ValueError(f"spacing must be positive, got {spacing_m}")
    return [(i * spacing_m, 0.0) for i in range(count)]
