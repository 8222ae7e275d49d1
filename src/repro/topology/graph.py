"""The weighted zone graph.

Section 3.2: "If a graphical representation of the network is considered where
the weight w on an edge (i, j) denotes the minimum power at which i needs to
transmit to reach j, DBF finds the shortest path between any two nodes in the
weighted graph."

:func:`build_zone_graph` constructs exactly that graph restricted to one
node's zone (the node plus its zone neighbours).  Edge weights are the power
(mW) of the lowest transmission level that covers the hop distance, so a
shortest path is a minimum-total-transmit-power route.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.radio.power import PowerTable
from repro.topology.field import SensorField

if TYPE_CHECKING:
    import networkx as nx


class ZoneGraph:
    """Weighted graph over a zone, with shortest-path helpers.

    The graph is undirected because link costs are symmetric (both endpoints
    need the same power to bridge the same distance).
    """

    def __init__(self, graph: nx.Graph, center: int) -> None:
        self.graph = graph
        self.center = center

    @property
    def nodes(self) -> Set[int]:
        """Node ids in the zone graph (zone neighbours plus the centre)."""
        return set(self.graph.nodes)

    def edge_weight(self, a: int, b: int) -> float:
        """Power cost of the direct link ``a - b``."""
        return self.graph.edges[a, b]["weight"]

    def has_edge(self, a: int, b: int) -> bool:
        """Whether *a* can reach *b* in a single hop inside the zone."""
        return self.graph.has_edge(a, b)

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Minimum-power path from *source* to *target*, or ``None``."""
        import networkx as nx

        try:
            return nx.shortest_path(self.graph, source, target, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def shortest_path_cost(self, source: int, target: int) -> Optional[float]:
        """Total power cost of the minimum-power path, or ``None``."""
        import networkx as nx

        try:
            return nx.shortest_path_length(self.graph, source, target, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def neighbors(self, node_id: int) -> List[int]:
        """Direct (single-hop) neighbours of *node_id* within the zone graph."""
        return list(self.graph.neighbors(node_id))


def link_cost(
    field: SensorField,
    power_table: PowerTable,
    a: int,
    b: int,
) -> Optional[float]:
    """Power (mW) of the lowest level that covers the ``a - b`` distance.

    Returns ``None`` when the nodes are out of range even at maximum power.
    """
    distance = field.distance(a, b)
    if distance > power_table.max_range_m + 1e-9:
        return None
    return power_table.level_for_distance(distance).power_mw


def build_zone_graph(
    field: SensorField,
    power_table: PowerTable,
    center: int,
    zone_members: Iterable[int],
) -> ZoneGraph:
    """Build the weighted graph over ``{center} | zone_members``.

    Edges connect every pair of zone members that are within the maximum
    transmission range of each other; the weight is the minimum power needed
    for that hop.
    """
    import networkx as nx

    members = set(zone_members) | {center}
    graph = nx.Graph()
    graph.add_nodes_from(members)
    member_list = sorted(members)
    for i, a in enumerate(member_list):
        for b in member_list[i + 1 :]:
            cost = link_cost(field, power_table, a, b)
            if cost is not None:
                graph.add_edge(a, b, weight=cost, distance=field.distance(a, b))
    return ZoneGraph(graph, center)


def all_pairs_costs(zone_graph: ZoneGraph) -> Dict[Tuple[int, int], float]:
    """All-pairs minimum-power costs inside a zone graph (used by tests to
    validate the distributed Bellman-Ford implementation)."""
    import networkx as nx

    costs: Dict[Tuple[int, int], float] = {}
    lengths = dict(nx.all_pairs_dijkstra_path_length(zone_graph.graph, weight="weight"))
    for source, targets in lengths.items():
        for target, cost in targets.items():
            costs[(source, target)] = cost
    return costs
