"""Per-node routing tables.

The paper keeps, for every destination in the zone, the cost of reaching it
through *each* direct neighbour; the best neighbour is the primary next hop
and the second best is the backup that tolerates one concurrent failure
(Section 3.2 and 5.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass(frozen=True)
class RouteCandidate:
    """One way of reaching a destination.

    Attributes:
        next_hop: The direct neighbour the packet is handed to first.
        cost: Total path cost (sum of per-hop minimum transmit powers).
    """

    next_hop: int
    cost: float


class RoutingTable:
    """Routes from one node to every destination it maintains state for.

    Each destination's routes are two parallel plain lists, ``(next_hops,
    costs)``, sorted by ``(cost, next hop)``; a :class:`RouteCandidate` is
    built only when one is returned.  A table built by
    :meth:`from_cost_block` keeps the converged (next hop x destination) cost
    block, sorted per destination, and turns a destination's block row into
    its lists the first time that destination is queried; later queries are
    one dict lookup.  :meth:`set_candidates` fills the lists directly (the
    centralized oracle builds tables this way).
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._routes: Dict[int, Tuple[List[int], List[float]]] = {}
        # Destinations whose lists are not built yet -> block row.
        self._pending: Dict[int, int] = {}
        # One row per block destination, sorted by (cost, next hop); the
        # first ``_counts[row]`` entries of a row are its finite candidates.
        self._hops = np.empty((0, 0), dtype=np.int64)
        self._costs = np.empty((0, 0))
        self._counts: List[int] = []

    @classmethod
    def from_cost_block(
        cls,
        owner: int,
        next_hops: Sequence[int],
        destinations: Sequence[int],
        costs: np.ndarray,
    ) -> "RoutingTable":
        """A table whose routes come from a cost block.

        Args:
            owner: The node the table belongs to.
            next_hops: The owner's direct neighbours, one per block row.
            destinations: The tracked destinations, one per block column.
            costs: ``costs[i, j]`` is the path cost to ``destinations[j]``
                through ``next_hops[i]``; ``inf`` where there is none.
        """
        if owner in destinations:
            raise ValueError("a node does not keep a route to itself")
        table = cls(owner)
        by_destination = np.asarray(costs, dtype=float).T
        hops = np.broadcast_to(np.asarray(next_hops, dtype=np.int64), by_destination.shape)
        order = np.lexsort((hops, by_destination))
        table._hops = np.take_along_axis(hops, order, axis=1)
        table._costs = np.take_along_axis(by_destination, order, axis=1)
        table._counts = np.isfinite(by_destination).sum(axis=1).tolist()
        table._pending = {
            destinations[row]: row for row, count in enumerate(table._counts) if count
        }
        return table

    # --------------------------------------------------------------- building

    def set_candidates(self, destination: int, candidates: Iterable[RouteCandidate]) -> None:
        """Replace the candidate list for *destination* (sorted by cost)."""
        if destination == self.owner:
            raise ValueError("a node does not keep a route to itself")
        self._pending.pop(destination, None)
        ordered = sorted(candidates, key=lambda c: (c.cost, c.next_hop))
        if ordered:
            self._routes[destination] = (
                [c.next_hop for c in ordered],
                [c.cost for c in ordered],
            )
        else:
            self._routes.pop(destination, None)

    def clear(self) -> None:
        """Drop every route (used when the topology changes)."""
        self._routes.clear()
        self._pending.clear()

    def _load(self, destination: int) -> Optional[Tuple[List[int], List[float]]]:
        """Build, cache and return *destination*'s lists from the cost block."""
        row = self._pending.pop(destination, None)
        if row is None:
            return None
        count = self._counts[row]
        routes = (self._hops[row, :count].tolist(), self._costs[row, :count].tolist())
        self._routes[destination] = routes
        return routes

    # ---------------------------------------------------------------- queries

    @property
    def destinations(self) -> Set[int]:
        """Destinations this table has at least one route for."""
        return set(self._routes) | set(self._pending)

    def has_route(self, destination: int) -> bool:
        """Whether any route to *destination* is known."""
        return destination in self._routes or destination in self._pending

    def candidates(self, destination: int) -> List[RouteCandidate]:
        """All candidate routes to *destination*, cheapest first."""
        routes = self._routes.get(destination) or self._load(destination)
        if routes is None:
            return []
        return list(map(RouteCandidate, *routes))

    def best(self, destination: int) -> Optional[RouteCandidate]:
        """The cheapest route candidate to *destination*, if any.

        One dict lookup for the protocol hot path that needs both the next
        hop and the cost of the primary route (SPMS advertisement handling).
        """
        routes = self._routes.get(destination) or self._load(destination)
        if routes is None:
            return None
        return RouteCandidate(routes[0][0], routes[1][0])

    def next_hop(self, destination: int, exclude: Optional[Set[int]] = None) -> Optional[int]:
        """Best next hop towards *destination*, skipping nodes in *exclude*.

        Returns ``None`` if no (non-excluded) route exists.
        """
        routes = self._routes.get(destination) or self._load(destination)
        if routes is None:
            return None
        hops = routes[0]
        if not exclude:
            return hops[0]
        for hop in hops:
            if hop not in exclude:
                return hop
        return None

    def cost(self, destination: int, exclude: Optional[Set[int]] = None) -> Optional[float]:
        """Cost of the best (non-excluded) route to *destination*."""
        routes = self._routes.get(destination) or self._load(destination)
        if routes is None:
            return None
        hops, costs = routes
        if not exclude:
            return costs[0]
        for hop, cost in zip(hops, costs):
            if hop not in exclude:
                return cost
        return None

    def backup_next_hop(self, destination: int) -> Optional[int]:
        """The second-best next hop (distinct from the primary), if any."""
        routes = self._routes.get(destination) or self._load(destination)
        if routes is None:
            return None
        hops = routes[0]
        primary = hops[0]
        for hop in hops[1:]:
            if hop != primary:
                return hop
        return None

    def entry_count(self) -> int:
        """Total number of stored candidates (used for state-size metrics)."""
        return sum(len(hops) for hops, _ in self._routes.values()) + sum(
            self._counts[row] for row in self._pending.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(owner={self.owner}, destinations={sorted(self.destinations)})"
