"""Reference distributed Bellman-Ford: the dict-based round loop, verbatim.

:meth:`repro.routing.bellman_ford.DistributedBellmanFord.compute` runs the
same synchronous rounds as numpy min-plus updates and builds route lists on
demand.  This module keeps the original message-passing loop — every node
scans every broadcaster, relaxes each received vector into per-neighbour
``via`` costs and eagerly builds sorted candidate lists — so the
differential tests can require the two to agree exactly: same
:class:`ConvergenceStats`, same candidates (bit-identical costs) for every
node and zone destination.
"""

from __future__ import annotations

import math
from typing import Dict, Set

from repro.routing.bellman_ford import (
    VECTOR_ENTRY_BYTES,
    VECTOR_HEADER_BYTES,
    ConvergenceStats,
    DistributedBellmanFord,
)
from repro.routing.table import RouteCandidate, RoutingTable


def reference_compute(dbf: DistributedBellmanFord) -> tuple:
    """Run the reference loop on *dbf*'s field, zones and exclusions.

    Returns ``(tables, stats)`` like :meth:`DistributedBellmanFord.compute`,
    except that hitting ``max_rounds`` returns the partial tables silently.
    """
    active = [n for n in dbf.field.node_ids if n not in dbf.exclude_nodes]
    index_of, cost_matrix = dbf._link_cost_matrix()
    neighbors: Dict[int, Dict[int, float]] = {}
    wanted: Dict[int, Set[int]] = {}
    for node in active:
        links = {}
        row = cost_matrix[index_of[node]]
        for other in dbf.zone_map.zone_neighbors(node):
            if other in dbf.exclude_nodes:
                continue
            cost = row[index_of[other]]
            if not math.isnan(cost):
                links[other] = float(cost)
        neighbors[node] = links
        wanted[node] = set(links) | {
            z for z in dbf.zone_map.zone_neighbors(node) if z not in dbf.exclude_nodes
        }

    # dist[node][dest] — best known cost from node to dest.
    dist: Dict[int, Dict[int, float]] = {
        node: {node: 0.0, **{d: math.inf for d in wanted[node]}} for node in active
    }
    # via[node][dest][neighbour] — cost via that neighbour as last advertised.
    via: Dict[int, Dict[int, Dict[int, float]]] = {
        node: {dest: {} for dest in wanted[node]} for node in active
    }

    stats = ConvergenceStats()
    changed = set(active)
    for _ in range(dbf.max_rounds):
        if not changed:
            break
        stats.rounds += 1
        # Snapshot the vectors broadcast this round.
        broadcasts = {node: dict(dist[node]) for node in active if node in changed}
        for node, vector in broadcasts.items():
            entries = sum(1 for cost in vector.values() if cost < math.inf)
            size = VECTOR_HEADER_BYTES + VECTOR_ENTRY_BYTES * entries
            stats.messages += 1
            stats.bytes_sent += size
            receivers = [r for r in neighbors[node] if r in neighbors]
            stats.receptions += len(receivers)
            stats.bytes_received += size * len(receivers)
        next_changed: Set[int] = set()
        for node in active:
            updated = False
            for sender, vector in broadcasts.items():
                if sender == node or sender not in neighbors[node]:
                    continue
                link = neighbors[node][sender]
                for dest in wanted[node]:
                    advertised = vector.get(dest, math.inf)
                    candidate = link + advertised if advertised < math.inf else math.inf
                    previous = via[node][dest].get(sender, math.inf)
                    if candidate != previous:
                        if candidate < math.inf:
                            via[node][dest][sender] = candidate
                        else:
                            via[node][dest].pop(sender, None)
                        updated = True
            if updated:
                for dest in wanted[node]:
                    best = min(via[node][dest].values(), default=math.inf)
                    if dest in neighbors[node]:
                        best = min(best, neighbors[node][dest])
                    if best != dist[node][dest]:
                        dist[node][dest] = best
                        next_changed.add(node)
        changed = next_changed

    tables = _build_tables(active, neighbors, via)
    return tables, stats


def _build_tables(
    active,
    neighbors: Dict[int, Dict[int, float]],
    via: Dict[int, Dict[int, Dict[int, float]]],
) -> Dict[int, RoutingTable]:
    tables: Dict[int, RoutingTable] = {}
    for node in active:
        table = RoutingTable(node)
        for dest in via[node]:
            if dest == node:
                continue
            candidates = {}
            for neighbor, cost in via[node][dest].items():
                candidates[neighbor] = min(candidates.get(neighbor, math.inf), cost)
            if dest in neighbors[node]:
                direct = neighbors[node][dest]
                candidates[dest] = min(candidates.get(dest, math.inf), direct)
            table.set_candidates(
                dest,
                [
                    RouteCandidate(next_hop=nh, cost=cost)
                    for nh, cost in candidates.items()
                    if cost < math.inf
                ],
            )
        tables[node] = table
    return tables
