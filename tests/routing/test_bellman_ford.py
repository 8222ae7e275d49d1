"""Tests for the distributed Bellman-Ford computation."""

import pytest

from repro.radio.power import build_power_table_for_radius
from repro.routing.bellman_ford import (
    ConvergenceError,
    ConvergenceStats,
    DistributedBellmanFord,
)
from repro.topology.field import SensorField
from repro.topology.placement import grid_placement
from repro.topology.zone import ZoneMap

from tests.helpers import chain_positions
from repro.topology.node import NodeInfo, Position


def build(positions, radius):
    field = SensorField(
        [NodeInfo(node_id=i, position=Position(x, y)) for i, (x, y) in enumerate(positions)]
    )
    table = build_power_table_for_radius(radius, num_levels=5, alpha=2.0)
    zones = ZoneMap(field, radius)
    return field, table, zones


class TestChainTopology:
    def test_three_node_chain_routes_through_middle(self):
        field, table, zones = build(chain_positions(3, spacing=5.0), radius=10.0)
        dbf = DistributedBellmanFord(field, table, zones)
        tables, stats = dbf.compute()
        # Node 0 reaches node 2 (10 m away) more cheaply through node 1.
        assert tables[0].next_hop(2) == 1
        assert tables[0].cost(2) == pytest.approx(2 * table.level_for_distance(5.0).power_mw)
        assert stats.rounds >= 2

    def test_direct_neighbor_route(self):
        field, table, zones = build(chain_positions(3, spacing=5.0), radius=10.0)
        tables, _ = DistributedBellmanFord(field, table, zones).compute()
        assert tables[0].next_hop(1) == 1

    def test_backup_route_exists_in_redundant_topology(self):
        # A square: besides the direct diagonal there are two disjoint 2-hop
        # paths between opposite corners, so a backup next hop must exist.
        positions = [(0, 0), (5, 0), (0, 5), (5, 5)]
        field, table, zones = build(positions, radius=8.0)
        tables, _ = DistributedBellmanFord(field, table, zones).compute()
        primary = tables[0].next_hop(3)
        backup = tables[0].backup_next_hop(3)
        candidates = {c.next_hop for c in tables[0].candidates(3)}
        assert candidates == {1, 2, 3}
        assert primary is not None and backup is not None
        assert primary != backup

    def test_excluded_nodes_do_not_relay(self):
        field, table, zones = build(chain_positions(3, spacing=5.0), radius=10.0)
        dbf = DistributedBellmanFord(field, table, zones, exclude_nodes={1})
        tables, _ = dbf.compute()
        # Without the middle node the endpoints must use the direct (10 m) link.
        assert tables[0].next_hop(2) == 2
        assert 1 not in tables

    def test_costs_symmetric(self):
        field, table, zones = build(chain_positions(5, spacing=5.0), radius=20.0)
        tables, _ = DistributedBellmanFord(field, table, zones).compute()
        assert tables[0].cost(4) == pytest.approx(tables[4].cost(0))


class TestConvergenceAccounting:
    def test_stats_counters_positive(self):
        field, table, zones = build(chain_positions(4, spacing=5.0), radius=20.0)
        _, stats = DistributedBellmanFord(field, table, zones).compute()
        assert stats.rounds >= 1
        assert stats.messages >= 4
        assert stats.bytes_sent > 0
        assert stats.receptions > 0
        assert stats.bytes_received >= stats.bytes_sent

    def test_rounds_bounded_by_node_count(self):
        field = SensorField(grid_placement(16, spacing_m=5.0))
        table = build_power_table_for_radius(15.0)
        zones = ZoneMap(field, 15.0)
        _, stats = DistributedBellmanFord(field, table, zones).compute()
        assert stats.rounds <= 16

    def test_merge_accumulates(self):
        a = ConvergenceStats(rounds=1, messages=2, bytes_sent=3, receptions=4, bytes_received=5)
        b = ConvergenceStats(rounds=10, messages=20, bytes_sent=30, receptions=40, bytes_received=50)
        a.merge(b)
        assert (a.rounds, a.messages, a.bytes_sent, a.receptions, a.bytes_received) == (
            11,
            22,
            33,
            44,
            55,
        )

    def test_disconnected_node_has_no_routes(self):
        positions = [(0, 0), (5, 0), (200, 200)]
        field, table, zones = build(positions, radius=10.0)
        tables, _ = DistributedBellmanFord(field, table, zones).compute()
        assert not tables[2].destinations
        assert not tables[0].has_route(2)

    def test_running_out_of_rounds_raises(self):
        # Round 1 only spreads one-hop routes; 0 -> 2 through 1 needs round 2.
        field, table, zones = build(chain_positions(3, spacing=5.0), radius=10.0)
        dbf = DistributedBellmanFord(field, table, zones, max_rounds=1)
        with pytest.raises(ConvergenceError, match=r"in 1 rounds: 3 node\(s\) still changing"):
            dbf.compute()

    def test_enough_rounds_converge_without_raising(self):
        field, table, zones = build(chain_positions(3, spacing=5.0), radius=10.0)
        _, stats = DistributedBellmanFord(field, table, zones, max_rounds=3).compute()
        assert stats.rounds == 3
