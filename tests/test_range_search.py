"""Tests for range (epsilon) subsequence matching."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SubsequenceDatabase
from repro.core.reference import brute_force_range
from tests.conftest import make_walk


def range_keys(result_matches):
    return sorted(match.key() for match in result_matches)


class TestRangeSearch:
    def test_matches_brute_force(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 800, 48).copy()
        for epsilon in (0.5, 3.0, 10.0):
            gold = brute_force_range(walk_db.store, query, epsilon, rho=2)
            got = walk_db.range_search(query, epsilon=epsilon, rho=2)
            assert range_keys(got.matches) == range_keys(gold)

    def test_zero_epsilon_finds_exact_occurrence(self, walk_db):
        query = walk_db.store.peek_subsequence(1, 500, 48).copy()
        result = walk_db.range_search(query, epsilon=0.0, rho=2)
        assert (1, 500) in {match.key() for match in result.matches}
        assert all(m.distance == 0.0 for m in result.matches)

    def test_results_sorted_best_first(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 800, 48).copy()
        result = walk_db.range_search(query, epsilon=8.0, rho=2)
        distances = [m.distance for m in result.matches]
        assert distances == sorted(distances)

    def test_empty_result_for_tiny_epsilon_on_foreign_query(self, walk_db):
        query = make_walk(48, seed=404) + 1000.0  # far from all data
        result = walk_db.range_search(query, epsilon=1.0, rho=2)
        assert result.matches == []
        # And the index pruned everything without touching candidates.
        assert result.stats.candidates == 0

    def test_negative_epsilon_rejected(self, walk_db):
        from repro.exceptions import QueryError

        query = walk_db.store.peek_subsequence(0, 0, 48).copy()
        with pytest.raises(QueryError):
            walk_db.range_search(query, epsilon=-1.0)

    def test_requires_build(self):
        from repro.exceptions import IndexNotBuiltError

        db = SubsequenceDatabase(omega=16, features=4)
        db.insert(0, make_walk(100, seed=0))
        with pytest.raises(IndexNotBuiltError):
            db.range_search(make_walk(48, seed=1), epsilon=1.0)

    def test_stats_populated(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 800, 48).copy()
        result = walk_db.range_search(query, epsilon=5.0, rho=2)
        assert result.stats.node_expansions > 0
        assert result.stats.candidates >= len(result.matches)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    epsilon=st.floats(min_value=0.0, max_value=15.0),
)
def test_range_search_equals_brute_force_property(seed, epsilon):
    rng = np.random.default_rng(seed)
    db = SubsequenceDatabase(omega=8, features=4, buffer_fraction=0.2)
    db.insert(0, rng.standard_normal(300).cumsum())
    db.build()
    query = db.store.peek_subsequence(
        0, int(rng.integers(0, 250)), 17
    ).copy()
    gold = brute_force_range(db.store, query, epsilon, rho=1)
    got = db.range_search(query, epsilon=epsilon, rho=1)
    assert range_keys(got.matches) == range_keys(gold)
