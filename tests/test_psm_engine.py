"""Unit/integration tests specific to the PSM baseline (repro.engines.psm)."""

import numpy as np
import pytest

from repro.engines.base import QuerySpec
from repro.engines.psm import PsmEngine, build_sliding_index
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.index.builder import build_index
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore
from tests.conftest import make_walk, run_engine


def make_store(lengths, seed=0):
    pager = Pager(page_size=1024)
    buffer = BufferPool(pager, capacity_pages=16)
    store = SequenceStore(pager, buffer)
    for sid, length in enumerate(lengths):
        store.add_sequence(sid, make_walk(length, seed=seed + sid))
    return store


def make_sliding(lengths, omega=8, features=4, seed=0):
    return build_sliding_index(
        make_store(lengths, seed), omega=omega, features=features
    )


class TestBuildSlidingIndex:
    def test_indexes_every_offset(self):
        index = make_sliding([100, 50])
        # (100 - 8 + 1) + (50 - 8 + 1) sliding windows.
        assert len(index.tree) == 93 + 43
        index.tree.check_invariants()

    def test_bloom_contains_every_offset_key(self):
        index = make_sliding([60])
        for offset in range(60 - 8 + 1):
            assert index.bloom.might_contain((0, offset))

    def test_is_the_stride_one_dualmatch_index(self):
        """Row for row the ``J = 1`` ``build_index``, plus a bloom."""
        sliding = make_sliding([100, 50])
        plain = build_index(make_store([100, 50]), 8, 4, data_stride=1)
        assert type(sliding) is type(plain)
        assert sliding.data_stride == plain.data_stride == 1
        assert plain.bloom is None

        def rows(index):
            return [
                (record, low.tobytes())
                for leaf in index.tree.iter_leaves()
                for low, record in zip(leaf.lows, leaf.refs)
            ]

        assert rows(sliding) == rows(plain)
        assert sliding.tree.root_page == plain.tree.root_page
        assert sliding.tree.node_count() == plain.tree.node_count()

    def test_engine_rejects_an_index_without_bloom(self):
        index = make_sliding([50])
        index.bloom = None
        with pytest.raises(ConfigurationError):
            PsmEngine(index)

    def test_seg_len(self):
        assert make_sliding([50]).seg_len == 2


class TestPsmSearch:
    def test_bloom_calls_grow_with_join_width(self):
        index = make_sliding([600], omega=8)
        engine = PsmEngine(index)
        config = QuerySpec(k=3, rho=1)
        narrow = run_engine(
            engine, index.store.peek_subsequence(0, 10, 16).copy(), config
        )
        wide = run_engine(
            engine, index.store.peek_subsequence(0, 10, 40).copy(), config
        )
        # 2-way join vs 5-way join: signature probes must blow up.
        assert wide.stats.bloom_calls > 2 * narrow.stats.bloom_calls

    def test_budget_guard(self):
        index = make_sliding([600], omega=8)
        engine = PsmEngine(index, max_heap_pops=10)
        with pytest.raises(BudgetExceededError):
            run_engine(
                engine,
                index.store.peek_subsequence(0, 0, 32).copy(),
                QuerySpec(k=3, rho=1),
            )

    def test_budget_graceful_stop(self):
        index = make_sliding([600], omega=8)
        engine = PsmEngine(
            index, max_heap_pops=10, budget_action="stop"
        )
        result = run_engine(
            engine,
            index.store.peek_subsequence(0, 0, 32).copy(),
            QuerySpec(k=3, rho=1),
        )
        assert result.stats.budget_exhausted == 1
        assert result.stats.heap_pops <= 11

    def test_unexhausted_budget_stays_exact(self):
        index = make_sliding([300], omega=8)
        query = index.store.peek_subsequence(0, 40, 16).copy()
        config = QuerySpec(k=3, rho=1)
        exact = run_engine(PsmEngine(index), query, config)
        budgeted = run_engine(
            PsmEngine(index, max_heap_pops=10_000_000, budget_action="stop"),
            query,
            config,
        )
        assert budgeted.stats.budget_exhausted == 0
        assert [m.key() for m in budgeted.matches] == [
            m.key() for m in exact.matches
        ]

    def test_invalid_budget_action(self):
        index = make_sliding([100], omega=8)
        with pytest.raises(ConfigurationError):
            PsmEngine(index, budget_action="explode")

    def test_candidate_starts_at_arbitrary_offsets(self):
        # PSM over the sliding index must find candidates that are not
        # aligned to the disjoint-window grid.
        index = make_sliding([400], omega=8)
        engine = PsmEngine(index)
        query = index.store.peek_subsequence(0, 133, 16).copy()
        result = run_engine(engine, query, QuerySpec(k=1, rho=1))
        assert result.matches[0].start == 133
        assert result.matches[0].distance == pytest.approx(0.0, abs=1e-9)
