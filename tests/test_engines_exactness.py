"""Integration tests: every engine returns the brute-force top-k.

This is the library's central invariant (DESIGN.md, "Exactness
invariant"): SeqScan, HLMJ, PSM, RU, and RU-COST — deferred or not —
must produce the same distance multiset as an exhaustive banded-DTW
scan.
"""

import numpy as np
import pytest

from tests.conftest import (
    engine_distances,
    gold_topk,
    make_walk,
    query_from,
)

INDEX_METHODS = ["seqscan", "hlmj", "ru", "ru-cost"]


class TestEnginesMatchBruteForce:
    @pytest.mark.parametrize("method", INDEX_METHODS)
    @pytest.mark.parametrize("deferred", [False, True])
    def test_extracted_query(self, walk_db, method, deferred):
        query = query_from(walk_db, 500, 48)
        gold = gold_topk(walk_db, query, k=5, rho=2)
        result = walk_db.search(
            query, k=5, rho=2, method=method, deferred=deferred
        )
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    @pytest.mark.parametrize("method", INDEX_METHODS)
    def test_synthetic_query(self, walk_db, method):
        query = make_walk(48, seed=99)
        gold = gold_topk(walk_db, query, k=4, rho=2)
        result = walk_db.search(query, k=4, rho=2, method=method)
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    @pytest.mark.parametrize("method", INDEX_METHODS)
    @pytest.mark.parametrize("k", [1, 3, 10, 40])
    def test_various_k(self, walk_db, method, k):
        query = query_from(walk_db, 1200, 48, sid=1)
        gold = gold_topk(walk_db, query, k=k, rho=2)
        result = walk_db.search(query, k=k, rho=2, method=method)
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    @pytest.mark.parametrize("method", INDEX_METHODS)
    # rho 8 and 12 give bands of 17 and 25 cells: the one-lane wavefront
    # kernel that immediate verification runs above _WAVEFRONT_MIN_BAND.
    @pytest.mark.parametrize("rho", [0, 1, 4, 8, 12])
    def test_various_rho(self, walk_db, method, rho):
        query = query_from(walk_db, 77, 64)
        gold = gold_topk(walk_db, query, k=3, rho=rho)
        result = walk_db.search(query, k=3, rho=rho, method=method)
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    @pytest.mark.parametrize("method", INDEX_METHODS)
    def test_k_larger_than_everything_matchable(self, walk_db, method):
        # k exceeding the number of subsequences must return them all.
        db = _tiny_db()
        query = db.store.peek_subsequence(0, 3, 31).copy()
        gold = gold_topk(db, query, k=50, rho=1)
        result = db.search(query, k=50, rho=1, method=method)
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    @pytest.mark.parametrize("method", INDEX_METHODS)
    def test_query_exactly_matches_sequence_prefix(self, walk_db, method):
        query = query_from(walk_db, 0, 48)
        result = walk_db.search(query, k=1, rho=2, method=method)
        assert result.matches[0].distance == pytest.approx(0.0, abs=1e-9)
        assert result.matches[0].start == 0


class TestPsmExactness:
    @pytest.mark.parametrize("deferred", [False, True])
    def test_matches_brute_force(self, psm_db, deferred):
        query = psm_db.store.peek_subsequence(0, 100, 24).copy()
        gold = gold_topk(psm_db, query, k=4, rho=1)
        result = psm_db.search(
            query, k=4, rho=1, method="psm", deferred=deferred
        )
        assert engine_distances(result) == pytest.approx(gold, abs=1e-6)

    def test_counts_bloom_calls(self, psm_db):
        query = psm_db.store.peek_subsequence(1, 50, 24).copy()
        result = psm_db.search(query, k=2, rho=1, method="psm")
        assert result.stats.bloom_calls > 0


def _tiny_db():
    from repro import SubsequenceDatabase

    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.5)
    db.insert(0, make_walk(80, seed=5))
    db.build()
    return db


class TestMultiSequence:
    @pytest.mark.parametrize("method", INDEX_METHODS)
    def test_results_span_sequences(self, method):
        from repro import SubsequenceDatabase

        rng = np.random.default_rng(8)
        base = rng.standard_normal(64).cumsum()
        db = SubsequenceDatabase(omega=16, features=4)
        # Plant the same motif in two different sequences.
        db.insert(0, np.concatenate([make_walk(200, seed=1), base]))
        db.insert(1, np.concatenate([base, make_walk(150, seed=2)]))
        db.build()
        result = db.search(base[:48], k=2, rho=2, method=method)
        assert {match.sid for match in result.matches} == {0, 1}
        for match in result.matches:
            assert match.distance == pytest.approx(0.0, abs=1e-9)
