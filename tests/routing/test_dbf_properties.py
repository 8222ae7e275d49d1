"""Property-based tests: distributed Bellman-Ford vs the centralized oracle.

On random topologies the distributed computation must be *optimal* (its best
cost equals the zone-constrained shortest path, and is never below the global
Dijkstra lower bound of :mod:`repro.routing.oracle`), *positive* (link costs
are transmit powers, so no negative cycles can exist and no route can cost
less than its best single link), and *convergent* (rounds bounded by the node
count; recomputation is a fixpoint).

Zone scoping matters for the reference: a node only maintains and advertises
routes towards destinations inside its *own* zone, so a relay that cannot
hear the destination never advertises it.  The optimal cost the protocol can
achieve is therefore the shortest path whose intermediate hops all contain
the destination in their zone — which the global oracle may undercut.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.radio.power import build_power_table_for_radius
from repro.routing.bellman_ford import DistributedBellmanFord
from repro.routing.oracle import centralized_routes
from repro.topology.field import SensorField
from repro.topology.node import NodeInfo, Position
from repro.topology.zone import ZoneMap


def random_topology(seed: int):
    """A random field, power table and zone map derived from *seed*."""
    rng = random.Random(seed)
    count = rng.randint(3, 14)
    side = rng.choice((20.0, 30.0, 40.0))
    field = SensorField(
        [
            NodeInfo(node_id=i, position=Position(rng.uniform(0, side), rng.uniform(0, side)))
            for i in range(count)
        ]
    )
    radius = rng.choice((12.0, 18.0, 25.0))
    table = build_power_table_for_radius(radius, num_levels=5, alpha=2.0)
    zones = ZoneMap(field, radius)
    return field, table, zones


def link_graph(field, table, zones, excluded=frozenset()):
    """Graph of all in-range links, weighted by minimum transmit power."""
    graph = nx.Graph()
    ids = [n for n in field.node_ids if n not in excluded]
    graph.add_nodes_from(ids)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            distance = field.distance(a, b)
            if distance <= table.max_range_m + 1e-9:
                graph.add_edge(a, b, weight=table.level_for_distance(distance).power_mw)
    return graph


def zone_constrained_cost(graph, zones, source, dest, excluded=frozenset()):
    """Cheapest source->dest path whose relays all track *dest* (or None).

    This is the reference optimum for the zone-scoped distance-vector
    protocol: intermediate hops are restricted to nodes with *dest* in their
    zone, because only those maintain (and advertise) a route entry for it.
    """
    allowed = {
        v
        for v in graph.nodes
        if v not in excluded and (v in (source, dest) or zones.in_zone(v, dest))
    }
    sub = graph.subgraph(allowed)
    try:
        return nx.dijkstra_path_length(sub, source, dest, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


class TestPathOptimality:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_best_cost_is_zone_constrained_optimum(self, seed):
        field, table, zones = random_topology(seed)
        dbf_tables, _ = DistributedBellmanFord(field, table, zones).compute()
        graph = link_graph(field, table, zones)
        for node in field.node_ids:
            for dest in zones.zone_neighbors(node):
                expected = zone_constrained_cost(graph, zones, node, dest)
                dbf_cost = dbf_tables[node].cost(dest)
                if expected is None:
                    assert dbf_cost is None, f"phantom route {node}->{dest}"
                else:
                    assert dbf_cost == pytest.approx(expected, rel=1e-9), (
                        f"suboptimal route {node}->{dest}"
                    )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_global_oracle_is_a_lower_bound(self, seed):
        field, table, zones = random_topology(seed)
        dbf_tables, _ = DistributedBellmanFord(field, table, zones).compute()
        oracle_tables = centralized_routes(field, table, zones)
        for node in field.node_ids:
            for dest in zones.zone_neighbors(node):
                dbf_cost = dbf_tables[node].cost(dest)
                oracle_cost = oracle_tables[node].cost(dest)
                if dbf_cost is None:
                    continue
                assert oracle_cost is not None
                assert dbf_cost >= oracle_cost - abs(oracle_cost) * 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_optimality_survives_excluded_nodes(self, seed):
        field, table, zones = random_topology(seed)
        rng = random.Random(seed + 1)
        excluded = set(rng.sample(field.node_ids, k=min(2, len(field.node_ids) - 2)))
        dbf_tables, _ = DistributedBellmanFord(
            field, table, zones, exclude_nodes=excluded
        ).compute()
        assert set(dbf_tables) == set(field.node_ids) - excluded
        graph = link_graph(field, table, zones, excluded=excluded)
        for node, dbf_table in dbf_tables.items():
            for dest in zones.zone_neighbors(node):
                if dest in excluded:
                    assert dbf_table.cost(dest) is None
                    continue
                expected = zone_constrained_cost(graph, zones, node, dest, excluded=excluded)
                dbf_cost = dbf_table.cost(dest)
                if expected is None:
                    assert dbf_cost is None
                else:
                    assert dbf_cost == pytest.approx(expected, rel=1e-9)


class TestNoNegativeCycles:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_all_route_costs_positive_and_finite(self, seed):
        field, table, zones = random_topology(seed)
        dbf_tables, _ = DistributedBellmanFord(field, table, zones).compute()
        min_power = table.min_level.power_mw
        for node, routing_table in dbf_tables.items():
            for dest in routing_table.destinations:
                for candidate in routing_table.candidates(dest):
                    # Costs are sums of transmit powers: strictly positive,
                    # finite, and never below one hop at the minimum level —
                    # the invariants a negative cycle would violate.
                    assert math.isfinite(candidate.cost)
                    assert candidate.cost >= min_power - 1e-12


class TestConvergence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_rounds_bounded_by_node_count(self, seed):
        # The default max_rounds is the node count: compute() raises
        # ConvergenceError if vectors still change when it runs out.
        field, table, zones = random_topology(seed)
        _tables, stats = DistributedBellmanFord(field, table, zones).compute()
        assert 1 <= stats.rounds <= max(len(field), 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_recomputation_is_a_fixpoint(self, seed):
        field, table, zones = random_topology(seed)
        first, _ = DistributedBellmanFord(field, table, zones).compute()
        second, _ = DistributedBellmanFord(field, table, zones).compute()
        assert set(first) == set(second)
        for node in first:
            assert first[node].destinations == second[node].destinations
            for dest in first[node].destinations:
                assert first[node].candidates(dest) == second[node].candidates(dest)
