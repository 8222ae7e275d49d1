"""Differential tests: min-plus Bellman-Ford vs the reference round loop.

:func:`tests.routing.reference_dbf.reference_compute` is the original
dict-based message-passing loop.  The production computation must reproduce
it exactly — every :class:`ConvergenceStats` field and every candidate list
(next hops and bit-identical costs, compared with ``==``) for every node and
zone destination — on random topologies, with and without failed nodes, and
on a full-size 144-node field.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.build.builder import SimulationBuilder
from repro.experiments.figures import FigureScale, fig13_cluster_failures_matrix
from repro.routing.bellman_ford import DistributedBellmanFord

from tests.routing.reference_dbf import reference_compute
from tests.routing.test_dbf_properties import random_topology


def assert_matches_reference(field, power_table, zones, excluded=()):
    dbf = DistributedBellmanFord(field, power_table, zones, exclude_nodes=set(excluded))
    tables, stats = dbf.compute()
    reference_tables, reference_stats = reference_compute(dbf)
    assert dataclasses.asdict(stats) == dataclasses.asdict(reference_stats)
    assert set(tables) == set(reference_tables)
    for node, table in tables.items():
        reference = reference_tables[node]
        assert table.destinations == reference.destinations, node
        assert table.entry_count() == reference.entry_count(), node
        for dest in zones.zone_neighbors(node):
            candidates = table.candidates(dest)
            assert candidates == reference.candidates(dest), (node, dest)
            assert all(type(c.cost) is float for c in candidates)


class TestReferenceEquality:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_random_topologies(self, seed):
        assert_matches_reference(*random_topology(seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=4))
    def test_random_topologies_with_excluded_nodes(self, seed, failures):
        field, power_table, zones = random_topology(seed)
        rng = random.Random(seed + 1)
        excluded = rng.sample(field.node_ids, k=min(failures, len(field) - 1))
        assert_matches_reference(field, power_table, zones, excluded)

    def test_cluster_failures_field_at_144_nodes_radius_30(self):
        matrix = fig13_cluster_failures_matrix(FigureScale(fixed_num_nodes=144, seed=1))
        job = next(
            j for j in matrix.expand() if j.protocol == "spms" and j.value == 30.0
        )
        builder = SimulationBuilder(job.spec).build()
        assert len(builder.field) == 144
        assert_matches_reference(builder.field, builder.power_table, builder.zone_map)
