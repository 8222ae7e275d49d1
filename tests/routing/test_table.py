"""Tests for routing tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.routing.table import RouteCandidate, RoutingTable


class TestRoutingTable:
    def make_table(self) -> RoutingTable:
        table = RoutingTable(owner=0)
        table.set_candidates(
            5,
            [
                RouteCandidate(next_hop=2, cost=3.0),
                RouteCandidate(next_hop=1, cost=1.0),
                RouteCandidate(next_hop=3, cost=2.0),
            ],
        )
        return table

    def test_next_hop_is_cheapest(self):
        assert self.make_table().next_hop(5) == 1

    def test_cost_of_best_route(self):
        assert self.make_table().cost(5) == pytest.approx(1.0)

    def test_backup_next_hop_is_second_cheapest_distinct(self):
        assert self.make_table().backup_next_hop(5) == 3

    def test_exclude_failed_next_hop(self):
        table = self.make_table()
        assert table.next_hop(5, exclude={1}) == 3
        assert table.cost(5, exclude={1, 3}) == pytest.approx(3.0)

    def test_all_excluded_returns_none(self):
        table = self.make_table()
        assert table.next_hop(5, exclude={1, 2, 3}) is None

    def test_unknown_destination(self):
        table = self.make_table()
        assert table.next_hop(99) is None
        assert table.cost(99) is None
        assert table.backup_next_hop(99) is None
        assert not table.has_route(99)

    def test_no_route_to_self(self):
        table = RoutingTable(owner=7)
        with pytest.raises(ValueError):
            table.set_candidates(7, [RouteCandidate(next_hop=1, cost=1.0)])

    def test_candidates_sorted_by_cost(self):
        table = self.make_table()
        costs = [c.cost for c in table.candidates(5)]
        assert costs == sorted(costs)

    def test_empty_candidates_removes_route(self):
        table = self.make_table()
        table.set_candidates(5, [])
        assert not table.has_route(5)

    def test_clear(self):
        table = self.make_table()
        table.clear()
        assert table.destinations == set()
        assert table.entry_count() == 0

    def test_entry_count(self):
        assert self.make_table().entry_count() == 3

    def test_backup_none_when_single_candidate(self):
        table = RoutingTable(owner=0)
        table.set_candidates(5, [RouteCandidate(next_hop=1, cost=1.0)])
        assert table.backup_next_hop(5) is None

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=20), st.floats(min_value=0.1, max_value=100)),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_next_hop_has_minimum_cost(self, raw):
        table = RoutingTable(owner=0)
        candidates = [RouteCandidate(next_hop=nh, cost=c) for nh, c in raw]
        table.set_candidates(99, candidates)
        best = table.next_hop(99)
        best_cost = min(c.cost for c in candidates)
        assert any(c.next_hop == best and c.cost == best_cost for c in candidates)


INF = float("inf")


def paired_tables(owner, next_hops, destinations, costs):
    """The same routes as a cost-block table and as a ``set_candidates`` table."""
    block = RoutingTable.from_cost_block(owner, next_hops, destinations, np.array(costs))
    listed = RoutingTable(owner)
    for j, dest in enumerate(destinations):
        candidates = [
            RouteCandidate(next_hop=hop, cost=row[j])
            for hop, row in zip(next_hops, costs)
            if row[j] < INF
        ]
        if candidates:
            listed.set_candidates(dest, candidates)
    return block, listed


def assert_same_answers(block, listed, queried, excludes):
    assert block.destinations == listed.destinations
    assert block.entry_count() == listed.entry_count()
    for dest in queried:
        assert block.has_route(dest) == listed.has_route(dest)
        assert block.best(dest) == listed.best(dest)
        assert block.candidates(dest) == listed.candidates(dest)
        assert block.backup_next_hop(dest) == listed.backup_next_hop(dest)
        for exclude in excludes:
            assert block.next_hop(dest, exclude=exclude) == listed.next_hop(dest, exclude=exclude)
            assert block.cost(dest, exclude=exclude) == listed.cost(dest, exclude=exclude)
    assert block.destinations == listed.destinations
    assert block.entry_count() == listed.entry_count()


class TestCostBlockTable:
    """A table built from a cost block answers exactly like a listed one."""

    NEXT_HOPS = [1, 2, 3]
    DESTINATIONS = [1, 2, 3, 5, 7]
    COSTS = [
        # dest:  1     2     3     5     7
        [1.0, 3.0, 4.0, 2.5, INF],  # via 1
        [3.0, 1.0, 2.0, 2.5, INF],  # via 2
        [4.0, 2.0, 1.5, INF, INF],  # via 3
    ]

    def test_same_answers_as_set_candidates(self):
        block, listed = paired_tables(0, self.NEXT_HOPS, self.DESTINATIONS, self.COSTS)
        assert block.destinations == {1, 2, 3, 5}
        excludes = [None, set(), {1}, {2}, {1, 2}, {1, 2, 3}]
        assert_same_answers(block, listed, [5, 1, 2, 3, 7, 99, 5], excludes)

    def test_equal_costs_tie_break_on_next_hop(self):
        block, _ = paired_tables(0, self.NEXT_HOPS, self.DESTINATIONS, self.COSTS)
        assert [c.next_hop for c in block.candidates(5)] == [1, 2]
        assert block.backup_next_hop(5) == 2

    def test_costs_are_python_floats(self):
        block, _ = paired_tables(0, self.NEXT_HOPS, self.DESTINATIONS, self.COSTS)
        assert all(type(c.cost) is float for c in block.candidates(1))
        assert all(type(c.next_hop) is int for c in block.candidates(1))

    def test_set_candidates_overrides_an_unqueried_destination(self):
        block, _ = paired_tables(0, self.NEXT_HOPS, self.DESTINATIONS, self.COSTS)
        block.set_candidates(5, [])
        assert not block.has_route(5)
        assert block.best(5) is None
        block.set_candidates(2, [RouteCandidate(next_hop=3, cost=9.0)])
        assert block.candidates(2) == [RouteCandidate(next_hop=3, cost=9.0)]
        assert block.entry_count() == 3 + 1 + 3

    def test_clear_drops_unqueried_routes(self):
        block, _ = paired_tables(0, self.NEXT_HOPS, self.DESTINATIONS, self.COSTS)
        block.best(1)
        block.clear()
        assert block.destinations == set()
        assert block.entry_count() == 0
        assert block.next_hop(2) is None

    @pytest.fixture(params=["block", "listed"])
    def table(self, request):
        block, listed = paired_tables(0, self.NEXT_HOPS, self.DESTINATIONS, self.COSTS)
        return block if request.param == "block" else listed

    def test_best_is_first_candidate(self, table):
        for dest in (1, 2, 3, 5):
            best = table.best(dest)
            assert type(best) is RouteCandidate
            assert best == table.candidates(dest)[0]

    def test_exclude_skipping_first_k_hops_returns_next(self, table):
        for dest in (1, 2, 3):
            candidates = table.candidates(dest)
            for k in range(len(candidates)):
                skipped = {c.next_hop for c in candidates[:k]}
                assert table.next_hop(dest, exclude=skipped) == candidates[k].next_hop
                assert table.cost(dest, exclude=skipped) == candidates[k].cost
            every_hop = {c.next_hop for c in candidates}
            assert table.next_hop(dest, exclude=every_hop) is None
            assert table.cost(dest, exclude=every_hop) is None

    def test_mutating_returned_candidates_leaves_table_unchanged(self, table):
        before = table.candidates(1)
        returned = table.candidates(1)
        returned.reverse()
        returned.append(RouteCandidate(next_hop=9, cost=0.0))
        assert table.candidates(1) == before
        assert table.next_hop(1) == before[0].next_hop
        assert table.entry_count() == 3 + 3 + 3 + 2

    def test_entry_count_stable_across_queries(self, table):
        before = table.entry_count()
        for dest in self.DESTINATIONS:
            table.best(dest)
        assert table.entry_count() == before == 3 + 3 + 3 + 2
        table.clear()
        assert table.entry_count() == 0

    def test_owner_cannot_be_a_destination(self):
        with pytest.raises(ValueError):
            RoutingTable.from_cost_block(1, [2], [1], np.array([[1.0]]))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_property_same_answers_as_set_candidates(self, hop_count, dest_count, data):
        next_hops = list(range(1, hop_count + 1))
        destinations = list(range(10, 10 + dest_count))
        cost = st.sampled_from([INF, 1.0, 2.0, 2.5, 0.1 + 0.2])
        costs = data.draw(
            st.lists(
                st.lists(cost, min_size=dest_count, max_size=dest_count),
                min_size=hop_count,
                max_size=hop_count,
            )
        )
        queried = data.draw(st.permutations(destinations + [99]))
        block, listed = paired_tables(0, next_hops, destinations, costs)
        excludes = [None, {1}, set(next_hops)]
        assert_same_answers(block, listed, queried, excludes)
