"""Centralized routing oracle.

Computes the same minimum-power routes as the distributed Bellman-Ford but
with a global Dijkstra per node.  Used by the test-suite to validate the
distributed computation and by experiments that do not need to charge routing
energy (e.g. quick examples).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

import numpy as np

from repro.radio.pathloss import pairwise_distances
from repro.radio.power import PowerTable
from repro.routing.table import RouteCandidate, RoutingTable
from repro.topology.field import SensorField
from repro.topology.zone import ZoneMap

if TYPE_CHECKING:
    import networkx as nx


def _build_global_graph(
    field: SensorField,
    power_table: PowerTable,
    exclude_nodes: Set[int],
) -> nx.Graph:
    import networkx as nx

    graph = nx.Graph()
    all_ids, positions = field.positions_array()
    keep = [i for i, node_id in enumerate(all_ids) if node_id not in exclude_nodes]
    ids = [all_ids[i] for i in keep]
    graph.add_nodes_from(ids)
    if len(keep) < 2:
        return graph
    distances = pairwise_distances(positions[keep])
    weights = power_table.power_for_distances(distances)
    # A link exists exactly when some power level covers it (non-nan weight);
    # masking on the weights keeps the edge set and the cost scale consistent.
    rows, cols = np.triu_indices(len(keep), k=1)
    mask = ~np.isnan(weights[rows, cols])
    graph.add_weighted_edges_from(
        (ids[a], ids[b], float(w))
        for a, b, w in zip(rows[mask], cols[mask], weights[rows[mask], cols[mask]])
    )
    return graph


def centralized_routes(
    field: SensorField,
    power_table: PowerTable,
    zone_map: ZoneMap,
    exclude_nodes: Optional[Set[int]] = None,
) -> Dict[int, RoutingTable]:
    """Compute per-node routing tables with a centralized shortest-path solver.

    For each node the stored destinations are its zone neighbours, matching
    the state kept by the distributed algorithm.  Candidates include, for each
    direct neighbour, the cost of the best path whose first hop is that
    neighbour, so primary and backup next hops agree with the DBF tables.
    """
    import networkx as nx

    exclude = set(exclude_nodes or ())
    graph = _build_global_graph(field, power_table, exclude)
    tables: Dict[int, RoutingTable] = {}
    # Single-source Dijkstra from every node gives distance dicts reused below.
    distances = {
        node: nx.single_source_dijkstra_path_length(graph, node, weight="weight")
        for node in graph.nodes
    }
    for node in graph.nodes:
        table = RoutingTable(node)
        neighbors = {nb: graph.edges[node, nb]["weight"] for nb in graph.neighbors(node)}
        for dest in zone_map.zone_neighbors(node):
            if dest in exclude or dest not in graph.nodes:
                continue
            candidates = []
            for nb, link in neighbors.items():
                if nb == dest:
                    candidates.append(RouteCandidate(next_hop=nb, cost=link))
                    continue
                through = distances[nb].get(dest)
                if through is not None:
                    candidates.append(RouteCandidate(next_hop=nb, cost=link + through))
            if candidates:
                table.set_candidates(dest, candidates)
        tables[node] = table
    return tables
