"""Unit tests for the public facade (repro.api.SubsequenceDatabase)."""

import numpy as np
import pytest

from repro import SubsequenceDatabase
from repro.exceptions import (
    ConfigurationError,
    IndexNotBuiltError,
    QueryTooShortError,
)
from tests.conftest import make_walk


class TestLifecycle:
    def test_search_before_build_rejected(self):
        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(200, seed=0))
        with pytest.raises(IndexNotBuiltError):
            db.search(make_walk(48, seed=1))

    def test_build_without_data_rejected(self):
        db = SubsequenceDatabase(omega=16, features=4)
        with pytest.raises(ConfigurationError):
            db.build()

    def test_insert_after_build_rejected(self):
        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(200, seed=0))
        db.build()
        with pytest.raises(ConfigurationError):
            db.insert(1, make_walk(100, seed=1))

    def test_psm_requires_opt_in(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 0, 48).copy()
        with pytest.raises(IndexNotBuiltError):
            walk_db.search(query, method="psm")

    def test_unknown_method_rejected(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 0, 48).copy()
        with pytest.raises(ConfigurationError):
            walk_db.search(query, method="grep")

    def test_bad_buffer_fraction(self):
        with pytest.raises(ConfigurationError):
            SubsequenceDatabase(buffer_fraction=0.0)


class TestSearchDefaults:
    def test_default_rho_is_five_percent(self, walk_db):
        # rho defaults to max(1, 5% of Len(Q)); for a 48-point query
        # that is 2.  The search must succeed and return k matches.
        query = walk_db.store.peek_subsequence(0, 50, 48).copy()
        result = walk_db.search(query, k=3)
        assert len(result.matches) == 3

    def test_too_short_query(self, walk_db):
        with pytest.raises(QueryTooShortError):
            walk_db.search(np.zeros(16), k=1)

    def test_results_carry_subsequence_coordinates(self, walk_db):
        query = walk_db.store.peek_subsequence(1, 321, 48).copy()
        match = walk_db.search(query, k=1, method="ru-cost").matches[0]
        assert (match.sid, match.start) == (1, 321)
        assert match.length == 48
        assert match.end == 369
        recovered = walk_db.store.peek_subsequence(1, match.start, 48)
        np.testing.assert_allclose(recovered, query)


class TestMaintenance:
    def test_describe(self, walk_db):
        info = walk_db.describe()
        assert info["sequences"] == 2
        assert info["buffer_pages"] == walk_db.buffer.capacity
        assert info["total_pages"] == walk_db.pager.num_pages

    def test_describe_before_build(self):
        db = SubsequenceDatabase()
        with pytest.raises(IndexNotBuiltError):
            db.describe()

    def test_resize_buffer(self, walk_db):
        original = walk_db.buffer.capacity
        walk_db.resize_buffer(0.02)
        assert walk_db.buffer.capacity < original
        walk_db.resize_buffer(0.1)
        with pytest.raises(ConfigurationError):
            walk_db.resize_buffer(0.0)

    def test_reset_cache(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 50, 48).copy()
        walk_db.search(query, k=1)
        walk_db.reset_cache()
        assert walk_db.buffer.num_resident == 0
        assert walk_db.pager.stats.physical_reads == 0

