"""Tests for the optional extensions: window-group distance, streaming
iterator, and STR-vs-insert index builds."""

import numpy as np
import pytest

from repro import SubsequenceDatabase
from repro.core.paa import paa
from repro.core.reference import brute_force_topk
from repro.index.builder import build_index
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore
from tests.conftest import (
    build_golden_db,
    engine_distances,
    gold_topk,
    make_walk,
)


class TestWindowGroupDistance:
    def test_exactness(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 444, 48).copy()
        gold = gold_topk(walk_db, query, k=5, rho=2)
        result = walk_db.search(query, k=5, rho=2, method="hlmj-wg")
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    def test_prunes_more_than_plain_hlmj(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 444, 48).copy()
        plain = walk_db.search(query, k=5, rho=2, method="hlmj").stats
        tight = walk_db.search(query, k=5, rho=2, method="hlmj-wg").stats
        assert tight.candidates <= plain.candidates
        assert tight.window_group_evaluations > 0
        assert plain.window_group_evaluations == 0

    def test_engine_name(self, walk_db):
        from repro.engines.hlmj import HlmjEngine

        assert HlmjEngine(walk_db.index).name == "HLMJ"
        assert (
            HlmjEngine(walk_db.index, use_window_group=True).name
            == "HLMJ-WG"
        )

    def test_leaf_points_equal_the_store_derived_points(self):
        """HLMJ-WG re-derives a contained window's point from the store;
        every indexed point must be that point, bit for bit."""
        db = build_golden_db()

        def check():
            index = db.index
            rows = 0
            for leaf in index.tree.iter_leaves():
                for low, record in zip(leaf.lows, leaf.refs):
                    point = paa(index.window_values(record), index.features)
                    assert low.tobytes() == point.tobytes()
                    rows += 1
            assert rows == index.num_indexed_windows

        check()
        db.extend_sequence(1, make_walk(500, seed=15))
        check()


class TestIterMatches:
    def test_streams_exact_topk_in_order(self, walk_db):
        query = walk_db.store.peek_subsequence(1, 200, 48).copy()
        gold = gold_topk(walk_db, query, k=7, rho=2)
        streamed = [
            round(m.distance, 6)
            for m in walk_db.iter_matches(query, k=7, rho=2)
        ]
        assert streamed == pytest.approx(gold, abs=1e-6)

    def test_early_abandonment_is_cheap(self, walk_db):
        query = walk_db.store.peek_subsequence(1, 200, 48).copy()
        walk_db.reset_cache()
        generator = walk_db.iter_matches(query, k=50, rho=2)
        next(generator)
        generator.close()
        partial_reads = walk_db.pager.stats.physical_reads
        walk_db.reset_cache()
        list(walk_db.iter_matches(query, k=50, rho=2))
        full_reads = walk_db.pager.stats.physical_reads
        assert partial_reads < full_reads

    def test_requires_built_index(self):
        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(200, seed=1))
        with pytest.raises(Exception):
            next(db.iter_matches(make_walk(48, seed=2)))

    @pytest.mark.parametrize(
        "method",
        [
            pytest.param("ru", id="max-delta"),
            pytest.param("ru-cost", id="cost-aware"),
        ],
    )
    def test_scheduling_variants(self, walk_db, method):
        query = walk_db.store.peek_subsequence(0, 999, 48).copy()
        gold = gold_topk(walk_db, query, k=3, rho=2)
        streamed = [
            round(m.distance, 6)
            for m in walk_db.iter_matches(
                query, k=3, rho=2, method=method
            )
        ]
        assert streamed == pytest.approx(gold, abs=1e-6)


class TestBulkVersusInsertBuilds:
    def test_same_search_results(self):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(1500).cumsum()

        def make_store():
            pager = Pager(page_size=1024)
            buffer = BufferPool(pager, capacity_pages=16)
            store = SequenceStore(pager, buffer)
            store.add_sequence(0, values)
            return store

        bulk = build_index(make_store(), omega=16, features=4, bulk=True)
        incremental = build_index(
            make_store(), omega=16, features=4, bulk=False
        )
        bulk.tree.check_invariants()
        incremental.tree.check_invariants()
        assert len(bulk.tree) == len(incremental.tree)
        bulk_records = sorted(
            record for leaf in bulk.tree.iter_leaves() for record in leaf.refs
        )
        incremental_records = sorted(
            record
            for leaf in incremental.tree.iter_leaves()
            for record in leaf.refs
        )
        assert bulk_records == incremental_records


class TestInputValidation:
    def test_nan_sequences_rejected(self):
        from repro.exceptions import PageError

        db = SubsequenceDatabase(omega=16, features=4)
        bad = make_walk(100, seed=1)
        bad[50] = np.nan
        with pytest.raises(PageError):
            db.insert(0, bad)

    def test_infinite_values_rejected(self):
        from repro.exceptions import PageError

        db = SubsequenceDatabase(omega=16, features=4)
        bad = make_walk(100, seed=1)
        bad[0] = np.inf
        with pytest.raises(PageError):
            db.insert(0, bad)
