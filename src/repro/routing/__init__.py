"""Zone routing: distributed Bellman-Ford, routing tables, re-convergence.

SPMS forwards REQ and DATA packets hop by hop along minimum-transmit-power
paths inside a zone.  Routes come from a Distributed Bellman-Ford (DBF) run
among the zone members (Section 3.2).  The package provides:

* :class:`~repro.routing.table.RoutingTable` — per-destination costs via every
  direct neighbour, with primary and backup next hops (the backup supports the
  single-failure tolerance the paper's implementation keeps); a destination's
  candidate list is built from the converged cost block on first query.
* :class:`~repro.routing.bellman_ford.DistributedBellmanFord` — a synchronous
  round-based distance-vector computation (numpy min-plus rounds) with message
  and convergence-round accounting, so the energy of route formation can be
  charged to SPMS in the mobility experiments; it raises
  :class:`~repro.routing.bellman_ford.ConvergenceError` rather than return
  partial tables.
* :class:`~repro.routing.manager.RoutingManager` — owns the tables, refreshes
  them when topology changes, and charges routing energy to the ledger.
* :mod:`repro.routing.oracle` — a centralized shortest-path oracle used by the
  test-suite to validate the distributed computation.
"""

from repro.routing.bellman_ford import (
    ConvergenceError,
    ConvergenceStats,
    DistributedBellmanFord,
)
from repro.routing.manager import RoutingManager
from repro.routing.oracle import centralized_routes
from repro.routing.table import RouteCandidate, RoutingTable

__all__ = [
    "ConvergenceError",
    "ConvergenceStats",
    "DistributedBellmanFord",
    "RouteCandidate",
    "RoutingManager",
    "RoutingTable",
    "centralized_routes",
]
