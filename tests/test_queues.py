"""Unit tests for the per-window priority queues (repro.engines.queues)."""

import math

import pytest

from repro.core.metrics import QueryStats
from repro.core.windows import QueryWindowSet
from repro.engines.bounds import NodeGrid
from repro.engines.queues import LEAF, NODE, WindowQueue
from tests.conftest import make_walk


@pytest.fixture()
def queue(walk_db):
    query = walk_db.store.peek_subsequence(0, 250, 48).copy()
    window_set = QueryWindowSet.from_query(
        query, omega=16, features=4, rho=2
    )
    grid = NodeGrid(
        window_set.windows, walk_db.index, 2.0, QueryStats(), include_far=True
    )
    return WindowQueue(grid.probe(window_set.windows[0]))


class TestInitialState:
    def test_starts_with_root_pair_at_zero(self, queue):
        assert len(queue) == 1
        assert queue.top_pow() == 0.0
        assert not queue.is_empty
        assert queue.last_popped_leaf_pow == 0.0

    def test_empty_queue_top_is_infinite(self, queue):
        queue.pop()
        assert queue.is_empty
        assert queue.top_pow() == math.inf


class TestPopAndExpand:
    def test_pop_orders_by_distance(self, queue):
        # Drain fully; distances must come out non-decreasing.
        seen = []
        while not queue.is_empty:
            dist_pow, _seq, kind, payload, _far = queue.pop()
            seen.append(dist_pow)
            if kind == NODE:
                queue.expand_node(payload)
        assert seen == sorted(seen)
        assert len(seen) > 50  # visited nodes and leaf pairs

    def test_pop_tracks_last_leaf(self, queue):
        while not queue.is_empty:
            dist_pow, _seq, kind, payload, _far = queue.pop()
            if kind == LEAF:
                assert queue.last_popped_leaf_pow == dist_pow
                break
            queue.expand_node(payload)

    def test_expansion_cap_prunes_children(self, queue):
        dist_pow, _seq, kind, payload, _far = queue.pop()
        assert kind == NODE
        queue.expand_node(payload, cap_pow=-1.0)  # prune everything
        assert queue.is_empty

    def test_version_bumps_on_mutation(self, queue):
        version = queue.version
        _dist, _seq, _kind, payload, _far = queue.pop()
        assert queue.version > version
        version = queue.version
        queue.expand_node(payload)
        assert queue.version > version

    def test_expand_first_node_resolves_in_place(self, queue):
        before = len(queue)
        assert queue.expand_first_node()
        assert len(queue) > before  # root replaced by its children
        # Eventually no nodes remain.
        while queue.expand_first_node():
            pass
        assert all(
            entry[2] == LEAF for entry in queue.sorted_prefix(len(queue))
        )
        assert not queue.expand_first_node()


class TestScans:
    def test_sorted_prefix_matches_full_sort(self, queue):
        queue.expand_first_node()
        queue.expand_first_node()
        prefix = queue.sorted_prefix(5)
        full = sorted(queue.sorted_prefix(len(queue)))
        assert prefix == full[:5]

    def test_maxdist_at_least_mindist(self, queue):
        queue.expand_first_node()
        entries = queue.sorted_prefix(len(queue))
        for dist_pow, _seq, kind, _payload, far_pow in entries:
            assert far_pow >= dist_pow - 1e-12
            if kind == LEAF:
                assert far_pow == dist_pow
