"""Synchronous distributed Bellman-Ford (distance vector) over zones.

Every node maintains a distance vector towards the destinations in its own
zone.  In each round a node broadcasts its vector to its zone neighbours; a
receiving node updates, for every destination it cares about, the cost of
going through the sending neighbour (link cost plus the neighbour's advertised
cost).  The computation converges when no vector changes during a round.

Convergence rounds, messages and bytes are counted so the energy cost of route
formation and maintenance can be charged to SPMS — this is the cost the
mobility experiments (Figure 12) account for.

The rounds run as numpy min-plus updates over the whole field, with the same
additions and minima as per-message relaxation, and each node's routing
table keeps its converged cost block and builds a destination's candidate
list on first query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.radio.pathloss import pairwise_distances
from repro.radio.power import PowerTable
from repro.routing.table import RoutingTable
from repro.topology.field import SensorField
from repro.topology.zone import ZoneMap

#: Bytes added to every distance-vector broadcast (addressing + sequencing).
VECTOR_HEADER_BYTES = 2
#: Bytes per (destination, cost) entry in a distance-vector broadcast.
VECTOR_ENTRY_BYTES = 3


@dataclass
class ConvergenceStats:
    """Cost accounting for one DBF execution.

    Attributes:
        rounds: Synchronous rounds until no vector changed.
        messages: Number of distance-vector broadcasts sent.
        bytes_sent: Total payload bytes of those broadcasts.
        receptions: Number of (broadcast, receiver) deliveries.
        bytes_received: Total payload bytes received across all nodes.
    """

    rounds: int = 0
    messages: int = 0
    bytes_sent: int = 0
    receptions: int = 0
    bytes_received: int = 0

    def merge(self, other: "ConvergenceStats") -> None:
        """Accumulate another execution's counters into this one."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.receptions += other.receptions
        self.bytes_received += other.bytes_received


class ConvergenceError(RuntimeError):
    """Distance vectors were still changing when ``max_rounds`` ran out."""


class DistributedBellmanFord:
    """Round-based distance-vector route computation.

    Args:
        field: Node positions.
        power_table: Discrete power levels; the maximum level's range defines
            zone membership and per-hop link costs are the minimum power that
            covers the hop distance.
        zone_map: Pre-computed zones (must match ``power_table.max_range_m``).
        max_rounds: Safety bound; defaults to the node count, which is an
            upper bound on the convergence time of synchronous Bellman-Ford.
        exclude_nodes: Nodes currently failed; they neither send nor relay.
    """

    def __init__(
        self,
        field: SensorField,
        power_table: PowerTable,
        zone_map: ZoneMap,
        max_rounds: Optional[int] = None,
        exclude_nodes: Optional[Set[int]] = None,
    ) -> None:
        self.field = field
        self.power_table = power_table
        self.zone_map = zone_map
        self.max_rounds = max_rounds if max_rounds is not None else max(len(field), 2)
        self.exclude_nodes = set(exclude_nodes or ())

    # ------------------------------------------------------------------ build

    def _link_cost_matrix(self) -> tuple:
        """``(index_of_id, cost_matrix)`` for every node pair, vectorised.

        One pairwise-distance computation plus one vectorised power-level
        lookup gives every link cost (the minimum power level covering the
        hop); out-of-range pairs hold ``nan``.  The tolerances match the
        scalar :meth:`PowerTable.level_for_distance`, so costs are
        bit-identical to per-pair lookups.
        """
        ids, positions = self.field.positions_array()
        distances = pairwise_distances(positions)
        costs = self.power_table.power_for_distances(distances)
        return {node_id: i for i, node_id in enumerate(ids)}, costs

    def compute(self) -> tuple:
        """Run the distance-vector exchange to convergence.

        Each synchronous round is a min-plus update over the active nodes:
        a node that hears at least one changed vector sets its row of the
        distance matrix to the minimum, over its neighbours, of link cost
        plus the neighbour's last advertised row, restricted to its zone.
        Every node that changed broadcasts its vector in the next round;
        messages and bytes are counted from those vectors.

        Returns:
            ``(tables, stats)`` where *tables* maps node id to its
            :class:`RoutingTable` and *stats* is a :class:`ConvergenceStats`.

        Raises:
            ConvergenceError: If vectors are still changing after
                ``max_rounds`` rounds.
        """
        active = [n for n in self.field.node_ids if n not in self.exclude_nodes]
        index_of, cost_matrix = self._link_cost_matrix()
        position = {node: k for k, node in enumerate(active)}
        count = len(active)
        # zone[i, j]: active node j is in active node i's zone.
        zone = np.zeros((count, count), dtype=bool)
        for k, node in enumerate(active):
            members = [position[z] for z in self.zone_map.zone_neighbors(node) if z in position]
            zone[k, members] = True
        rows = [index_of[node] for node in active]
        link = cost_matrix[np.ix_(rows, rows)]
        # links[i, j]: i hears j's broadcasts over a link costing link[i, j].
        links = zone & ~np.isnan(link)
        link = np.where(links, link, np.inf)
        neighbors = [np.flatnonzero(row) for row in links]
        fanout = links.sum(axis=1)
        outside = ~zone
        np.fill_diagonal(outside, False)

        # dist[i, j] — best known cost from active node i to active node j.
        dist = np.full((count, count), np.inf)
        np.fill_diagonal(dist, 0.0)
        stats = ConvergenceStats()
        changed = np.ones(count, dtype=bool)
        for _ in range(self.max_rounds):
            if not changed.any():
                break
            stats.rounds += 1
            senders = np.flatnonzero(changed)
            sizes = VECTOR_HEADER_BYTES + VECTOR_ENTRY_BYTES * np.isfinite(dist[senders]).sum(
                axis=1
            )
            stats.messages += len(senders)
            stats.bytes_sent += int(sizes.sum())
            stats.receptions += int(fanout[senders].sum())
            stats.bytes_received += int((sizes * fanout[senders]).sum())
            updated = dist.copy()
            # Only a node that hears a changed vector can change.
            for k in np.flatnonzero(links[:, changed].any(axis=1)):
                hops = neighbors[k]
                row = (link[k, hops, None] + dist[hops]).min(axis=0)
                row[outside[k]] = np.inf
                row[k] = 0.0
                updated[k] = row
            changed = (updated != dist).any(axis=1)
            dist = updated
        if changed.any():
            raise ConvergenceError(
                f"distributed Bellman-Ford did not converge in {self.max_rounds} "
                f"rounds: {int(changed.sum())} node(s) still changing"
            )

        tables: Dict[int, RoutingTable] = {}
        for k, node in enumerate(active):
            hops = neighbors[k]
            destinations = np.flatnonzero(zone[k])
            tables[node] = RoutingTable.from_cost_block(
                node,
                [active[h] for h in hops.tolist()],
                [active[d] for d in destinations.tolist()],
                link[k, hops, None] + dist[np.ix_(hops, destinations)],
            )
        return tables, stats
