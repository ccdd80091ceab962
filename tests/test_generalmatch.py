"""Tests for GeneralMatch windowing (the data-stride generalization).

``data_stride = omega`` is DualMatch (the paper's configuration);
``data_stride = 1`` indexes every sliding data window (FRM-style).  All
strides must remain exact, and the structural properties — class count,
coverage, index size — must follow the derivation in
:mod:`repro.core.windows`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SubsequenceDatabase
from repro.core.lower_bounds import min_disjoint_windows
from repro.core.reference import brute_force_range, brute_force_topk
from repro.core.windows import QueryWindowSet, candidate_start
from repro.exceptions import ConfigurationError, QueryTooShortError
from tests.conftest import make_walk

STRIDES = [1, 2, 4, 8, 16]  # omega = 16 in these tests


def build_db(stride, n=1200, seed=40):
    db = SubsequenceDatabase(omega=16, features=4, data_stride=stride)
    db.insert(0, make_walk(n, seed=seed))
    db.build()
    return db


class TestStructure:
    @pytest.mark.parametrize("stride", STRIDES)
    def test_index_size_scales_inversely_with_stride(self, stride):
        db = build_db(stride)
        expected = (1200 - 16) // stride + 1
        assert db.index.num_indexed_windows == expected

    @pytest.mark.parametrize("stride", [1, 2, 4, 8])
    def test_class_count_equals_stride(self, stride):
        ws = QueryWindowSet.from_query(
            make_walk(60, seed=1), omega=16, features=4, rho=2,
            data_stride=stride,
        )
        assert ws.num_classes == stride
        for r, cls in enumerate(ws.classes):
            assert all(w.sliding_offset % 16 == r for w in cls)

    def test_stride_must_divide_omega(self):
        with pytest.raises(QueryTooShortError):
            QueryWindowSet.from_query(
                make_walk(60, seed=1), omega=16, features=4, rho=2,
                data_stride=3,
            )
        with pytest.raises(ConfigurationError):
            SubsequenceDatabase(omega=16, features=4, data_stride=5).insert(
                0, make_walk(100, seed=0)
            ) or build_db(5)

    def test_shorter_queries_allowed_with_small_strides(self):
        # Len(Q) >= omega + J - 1: stride 2 admits length 17.
        ws = QueryWindowSet.from_query(
            make_walk(17, seed=1), omega=16, features=4, rho=1,
            data_stride=2,
        )
        assert ws.num_classes == 2
        with pytest.raises(QueryTooShortError):
            QueryWindowSet.from_query(
                make_walk(17, seed=1), omega=16, features=4, rho=1,
                data_stride=16,
            )

    def test_coverage_every_offset_exactly_one_class(self):
        omega, stride, length, data_length = 16, 4, 48, 400
        reachable = {}
        num_grid = (data_length - omega) // stride + 1
        for r in range(stride):
            offsets = [
                r + t * omega for t in range((length - omega - r) // omega + 1)
            ]
            for m in range(num_grid):
                for offset in offsets:
                    start = candidate_start(m, offset, stride)
                    if 0 <= start <= data_length - length:
                        reachable.setdefault(start, set()).add(r)
        assert set(reachable) == set(range(data_length - length + 1))
        assert all(len(classes) == 1 for classes in reachable.values())

    def test_min_windows_formula_reduces_to_paper_at_dualmatch(self):
        assert min_disjoint_windows(384, 64, 64) == 5
        assert min_disjoint_windows(384, 64) == 5
        # Smaller strides can only help (weakly more guaranteed windows).
        assert min_disjoint_windows(384, 64, 1) >= 5


class TestExactness:
    @pytest.mark.parametrize("stride", [1, 4, 16])
    @pytest.mark.parametrize("method", ["hlmj", "hlmj-wg", "ru", "ru-cost"])
    def test_engines_exact_at_every_stride(self, stride, method):
        db = build_db(stride)
        query = db.store.peek_subsequence(0, 333, 48).copy()
        gold = [
            round(m.distance, 6)
            for m in brute_force_topk(db.store, query, 5, rho=2)
        ]
        result = db.search(query, k=5, rho=2, method=method)
        got = [round(m.distance, 6) for m in result.matches]
        assert got == pytest.approx(gold, abs=1e-6)

    @pytest.mark.parametrize("stride", [2, 8])
    def test_range_search_exact_at_stride(self, stride):
        db = build_db(stride)
        query = db.store.peek_subsequence(0, 600, 48).copy()
        gold = sorted(
            m.key() for m in brute_force_range(db.store, query, 4.0, rho=2)
        )
        got = sorted(
            m.key()
            for m in db.range_search(query, epsilon=4.0, rho=2).matches
        )
        assert got == gold

    def test_smaller_stride_prunes_at_least_as_well(self):
        # More classes with more windows each -> bounds at least as
        # tight; candidates should not blow up when stride shrinks.
        query_seed = 41
        counts = {}
        for stride in (16, 4):
            db = build_db(stride, seed=query_seed)
            query = db.store.peek_subsequence(0, 500, 48).copy()
            counts[stride] = db.search(
                query, k=5, rho=2, method="ru"
            ).stats.candidates
        assert counts[4] <= counts[16] * 1.5


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    stride=st.sampled_from([1, 2, 4, 8]),
    k=st.integers(1, 5),
)
def test_generalmatch_property_exactness(seed, stride, k):
    rng = np.random.default_rng(seed)
    db = SubsequenceDatabase(omega=8, features=4, data_stride=stride)
    db.insert(0, rng.standard_normal(250).cumsum())
    db.build()
    length = int(rng.integers(8 + stride - 1, 40))
    query = rng.standard_normal(length).cumsum()
    gold = [
        round(m.distance, 6)
        for m in brute_force_topk(db.store, query, k, rho=1)
    ]
    got = [
        round(m.distance, 6)
        for m in db.search(query, k=k, rho=1, method="ru-cost").matches
    ]
    assert got == pytest.approx(gold, abs=1e-6)
