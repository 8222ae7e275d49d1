"""Import-time cost of the package.

Every sweep worker is forked from a process that has imported ``repro``, so
whatever the package pulls in eagerly is paid on each start-up and carried in
each worker's heap.  networkx is only needed by the zone-graph helpers and the
centralized test oracle, which import it when called.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run *code* in a new interpreter with only ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_package_import_leaves_networkx_unloaded():
    result = run_fresh(
        """
        import sys

        import repro
        import repro.cli

        assert "networkx" not in sys.modules, "import repro loaded networkx"

        from repro.routing import centralized_routes
        from repro.topology import ZoneGraph, build_zone_graph
        from repro.topology.field import SensorField
        from repro.topology.placement import grid_placement
        from repro.radio.power import build_power_table_for_radius

        assert "networkx" not in sys.modules, "importing the helpers loaded networkx"
        assert callable(centralized_routes)

        field = SensorField(grid_placement(4, spacing_m=5.0))
        power = build_power_table_for_radius(20.0, num_levels=5, alpha=2.0)
        graph = build_zone_graph(field, power, 0, [1, 2, 3])
        assert isinstance(graph, ZoneGraph)
        assert graph.nodes == {0, 1, 2, 3}
        assert graph.has_edge(0, 1)
        assert graph.shortest_path(0, 3) is not None
        print("ok")
        """
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip() == "ok"
