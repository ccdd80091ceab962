"""Differential conformance tests: vectorized kernels vs scalar oracles.

The contract (module docstrings of :mod:`repro.core.distance` and
:mod:`repro.core.lower_bounds`):

* DTW at ``p == 2``, envelopes, and PAA are **bit-for-bit** equal to the
  scalar oracles in :mod:`repro.core.reference`;
* DTW at ``p != 2`` agrees to within 1e-9 relative (NumPy's vectorized
  ``pow`` may differ from libm by an ULP per cell);
* every ``*_batch`` lower bound is bit-for-bit equal to its scalar
  production counterpart for every ``p``, and within 1e-9 of the
  reference oracle (whose sequential summation order differs);
* all kernels accumulate in float64 regardless of the input dtype.

Inputs are generated from hypothesis-drawn seeds (the shrinker works on
the seed, the arrays stay cheap), the style the rest of the property
suite uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ExecutionControl
from repro.core.distance import (
    dtw_pow,
    dtw_pow_batch,
    dtw_pow_wavefront,
    lp_distance,
)
from repro.core.envelope import envelope_batch, query_envelope
from repro.core.lower_bounds import (
    batch_lower_bounds,
    batch_lower_bounds_znorm,
    lb_keogh_pow,
    lb_keogh_pow_batch,
    lb_paa_pow,
    lb_paa_pow_batch,
    lb_paa_znorm_pow_batch,
    maxdist_pow,
    maxdist_pow_batch,
    mdmwp_pow,
    mdmwp_pow_batch,
    mindist_pow,
    mindist_pow_batch,
)
from repro.core.normalize import znormalize
from repro.core.paa import paa, paa_batch
from repro.core.reference import (
    reference_dtw_pow,
    reference_envelope,
    reference_lb_keogh_pow,
    reference_lb_paa_pow,
    reference_maxdist_pow,
    reference_mindist_pow,
    reference_paa,
)
from repro.core.results import TopKCollector
from repro.engines import base
from repro.engines.base import QueryRun, QuerySpec, query_window_set
from repro.exceptions import QueryError
from tests.conftest import build_property_db

seeds = st.integers(0, 100_000)


def rel_close(a, b, tol=1e-9):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestDTWConformance:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(0, 8))
    def test_batch_matches_oracle_bitwise_p2(self, seed, rho):
        rng = np.random.default_rng(seed)
        lanes = int(rng.integers(1, 7))
        n = int(rng.integers(1, 41))
        query = rng.standard_normal(n)
        batch = rng.standard_normal((lanes, n))
        expected = np.array(
            [reference_dtw_pow(batch[i], query, rho) for i in range(lanes)]
        )
        got = dtw_pow_batch(batch, query, rho)
        assert np.array_equal(expected, got)

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 6))
    def test_batch_unequal_lengths_within_band(self, seed, rho):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        m = n + int(rng.integers(-rho, rho + 1))
        if m < 1:
            m = 1
        query = rng.standard_normal(n)
        batch = rng.standard_normal((3, m))
        expected = np.array(
            [reference_dtw_pow(batch[i], query, rho) for i in range(3)]
        )
        assert np.array_equal(expected, dtw_pow_batch(batch, query, rho))

    def test_batch_band_infeasible_is_inf(self):
        rng = np.random.default_rng(0)
        query = rng.standard_normal(10)
        batch = rng.standard_normal((4, 14))
        got = dtw_pow_batch(batch, query, rho=3)
        assert np.isinf(got).all()

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from([1.0, 1.5, 3.0]), st.integers(0, 6))
    def test_batch_matches_oracle_p_not_2(self, seed, p, rho):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 32))
        query = rng.standard_normal(n)
        batch = rng.standard_normal((4, n))
        got = dtw_pow_batch(batch, query, rho, p=p)
        for i in range(4):
            assert rel_close(
                reference_dtw_pow(batch[i], query, rho, p=p), float(got[i])
            )

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(0, 8))
    def test_scalar_and_wavefront_paths_bitwise_identical(self, seed, rho):
        # dtw_pow dispatches on the band width; both kernels must agree
        # bit for bit so the dispatch is purely a speed decision.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 48))
        s = rng.standard_normal(n)
        q = rng.standard_normal(n)
        assert dtw_pow(s, q, rho) == dtw_pow_wavefront(s, q, rho)

    @settings(max_examples=80, deadline=None)
    @given(seeds, st.integers(0, 13), st.floats(0.0, 1.0))
    def test_early_abandoned_lanes_truly_exceed_threshold(
        self, seed, rho, quantile
    ):
        # Abandoning is checked once per block of anti-diagonals, so the
        # shapes span one to five blocks.  inf => the oracle really is
        # above the threshold; finite => bit-equal to the oracle.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 72))
        lanes = int(rng.integers(1, 21))
        query = rng.standard_normal(n).cumsum()
        batch = rng.standard_normal((lanes, n)).cumsum(axis=1)
        full = np.array(
            [reference_dtw_pow(batch[i], query, rho) for i in range(lanes)]
        )
        threshold_pow = float(np.quantile(full, quantile))
        got = dtw_pow_batch(batch, query, rho, threshold_pow=threshold_pow)
        for i in range(lanes):
            if math.isinf(got[i]):
                assert full[i] > threshold_pow
            else:
                assert got[i] == full[i]

    def test_every_lane_abandoned_returns_all_inf(self):
        rng = np.random.default_rng(3)
        query = rng.standard_normal(80)
        batch = query + 5.0 + rng.standard_normal((4, 80))
        got = dtw_pow_batch(batch, query, rho=4, threshold_pow=1.0)
        assert np.isinf(got).all()

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_scalar_early_abandon_consistent(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        rho = 2
        s = rng.standard_normal(n).cumsum()
        q = rng.standard_normal(n).cumsum()
        full = reference_dtw_pow(s, q, rho)
        got = dtw_pow(s, q, rho, threshold_pow=full / 2.0)
        if math.isinf(got):
            assert full > full / 2.0
        else:
            assert got == full


class TestBandLayoutConformance:
    """The band-layout wavefront across lane counts and band widths.

    Lane counts straddle the engines' chunk width and the benchmark's 64;
    lengths span several cost blocks; ``rho`` covers the degenerate band
    (0), the narrowest split (1), the paper's width at Len(Q) = 256 (12)
    and a band wider than the matrix.
    """

    @pytest.mark.parametrize("lanes", [1, 2, 3, 64, 65])
    @pytest.mark.parametrize("rho", [0, 1, 12, 50, 200])
    def test_bitwise_p2(self, lanes, rho):
        rng = np.random.default_rng(lanes * 1000 + rho)
        n = 50
        query = rng.standard_normal(n).cumsum()
        batch = rng.standard_normal((lanes, n)).cumsum(axis=1)
        expected = np.array(
            [reference_dtw_pow(row, query, rho) for row in batch]
        )
        assert np.array_equal(expected, dtw_pow_batch(batch, query, rho))

    @pytest.mark.parametrize("lanes", [1, 3, 65])
    @pytest.mark.parametrize("n,m,rho", [
        (40, 37, 3), (37, 40, 3), (33, 45, 12), (45, 33, 12),
        (20, 30, 29), (30, 20, 40), (1, 3, 2), (3, 1, 2),
    ])
    def test_unequal_lengths_inside_band_bitwise(self, lanes, n, m, rho):
        rng = np.random.default_rng(n * 100 + m)
        query = rng.standard_normal(n).cumsum()
        batch = rng.standard_normal((lanes, m)).cumsum(axis=1)
        expected = np.array(
            [reference_dtw_pow(row, query, rho) for row in batch]
        )
        assert np.array_equal(expected, dtw_pow_batch(batch, query, rho))

    @pytest.mark.parametrize("p", [1.0, 3.0])
    @pytest.mark.parametrize("lanes,rho", [(1, 0), (3, 1), (64, 12), (5, 99)])
    def test_other_norms_within_tolerance(self, p, lanes, rho):
        rng = np.random.default_rng(int(p) * 10 + lanes)
        query = rng.standard_normal(45).cumsum()
        batch = rng.standard_normal((lanes, 45)).cumsum(axis=1)
        got = dtw_pow_batch(batch, query, rho, p=p)
        for row, value in zip(batch, got):
            assert rel_close(
                reference_dtw_pow(row, query, rho, p=p), float(value)
            )

    def test_input_batch_is_not_modified(self):
        rng = np.random.default_rng(5)
        query = rng.standard_normal(30)
        batch = rng.standard_normal((4, 30))
        before = batch.copy()
        dtw_pow_batch(batch, query, rho=3, threshold_pow=0.5)
        assert np.array_equal(batch, before)


class TestDTWEdgeCases:
    def test_length_one_sequences(self):
        got = dtw_pow_batch([[3.0], [5.0], [7.0]], [4.0], rho=0)
        assert got.tolist() == [1.0, 1.0, 9.0]
        assert dtw_pow([3.0], [4.0], rho=0) == 1.0

    def test_rho_zero_equals_lp_squared(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal(17)
        batch = rng.standard_normal((5, 17))
        got = dtw_pow_batch(batch, q, rho=0)
        for i in range(5):
            assert rel_close(float(got[i]), lp_distance(batch[i], q) ** 2)

    def test_rho_wider_than_query_is_unconstrained(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal(12)
        batch = rng.standard_normal((3, 12))
        wide = dtw_pow_batch(batch, q, rho=len(q) + 5)
        expected = np.array(
            [reference_dtw_pow(batch[i], q, len(q) + 5) for i in range(3)]
        )
        assert np.array_equal(wide, expected)

    def test_constant_sequences(self):
        q = np.full(16, 2.5)
        batch = np.stack([np.full(16, 2.5), np.full(16, 3.5)])
        got = dtw_pow_batch(batch, q, rho=2)
        assert got[0] == 0.0
        assert got[1] == reference_dtw_pow(batch[1], q, 2)

    def test_empty_batch(self):
        got = dtw_pow_batch(np.empty((0, 10)), np.zeros(10), rho=1)
        assert got.shape == (0,)

    def test_zero_length_rows(self):
        assert (
            dtw_pow_batch(np.empty((3, 0)), np.empty(0), rho=0) == 0.0
        ).all()
        assert np.isinf(
            dtw_pow_batch(np.empty((3, 0)), np.zeros(4), rho=1)
        ).all()

    def test_nan_rejected_everywhere(self):
        clean = np.zeros(8)
        dirty = clean.copy()
        dirty[3] = np.nan
        with pytest.raises(QueryError):
            dtw_pow_batch(np.stack([clean, dirty]), clean, rho=1)
        with pytest.raises(QueryError):
            dtw_pow_batch(np.stack([clean, clean]), dirty, rho=1)
        # Both dispatch paths of the single-pair API.
        with pytest.raises(QueryError):
            dtw_pow(dirty, clean, rho=1)
        with pytest.raises(QueryError):
            dtw_pow(clean, dirty, rho=1)
        with pytest.raises(QueryError):
            dtw_pow_wavefront(dirty, clean, rho=1)

    def test_negative_rho_rejected(self):
        with pytest.raises(QueryError):
            dtw_pow_batch(np.zeros((1, 4)), np.zeros(4), rho=-1)
        with pytest.raises(QueryError):
            dtw_pow(np.zeros(4), np.zeros(4), rho=-1)

    def test_shape_validation(self):
        with pytest.raises(QueryError):
            dtw_pow_batch(np.zeros(4), np.zeros(4), rho=1)  # 1-D batch
        with pytest.raises(QueryError):
            dtw_pow_batch(np.zeros((2, 4)), np.zeros((2, 4)), rho=1)


class TestEnvelopePAAConformance:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(0, 10))
    def test_envelope_batch_bitwise(self, seed, rho):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6))
        n = int(rng.integers(1, 40))
        batch = rng.standard_normal((rows, n))
        lower, upper = envelope_batch(batch, rho)
        for i in range(rows):
            ref_lower, ref_upper = reference_envelope(batch[i], rho)
            env = query_envelope(batch[i], rho)
            assert np.array_equal(lower[i], ref_lower)
            assert np.array_equal(upper[i], ref_upper)
            assert np.array_equal(lower[i], env.lower)
            assert np.array_equal(upper[i], env.upper)

    def test_envelope_batch_rho_wider_than_rows(self):
        batch = np.array([[1.0, -2.0, 3.0]])
        lower, upper = envelope_batch(batch, rho=50)
        assert lower.tolist() == [[-2.0, -2.0, -2.0]]
        assert upper.tolist() == [[3.0, 3.0, 3.0]]

    def test_envelope_batch_validation(self):
        with pytest.raises(QueryError):
            envelope_batch(np.zeros((2, 4)), rho=-1)
        with pytest.raises(QueryError):
            envelope_batch(np.zeros(4), rho=1)
        with pytest.raises(QueryError):
            envelope_batch(np.empty((2, 0)), rho=1)

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(1, 4), st.integers(1, 6))
    def test_paa_batch_bitwise(self, seed, features, seg):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6))
        batch = rng.standard_normal((rows, features * seg))
        got = paa_batch(batch, features)
        for i in range(rows):
            assert np.array_equal(got[i], paa(batch[i], features))
            assert np.array_equal(got[i], reference_paa(batch[i], features))

    def test_paa_batch_validation(self):
        with pytest.raises(QueryError):
            paa_batch(np.zeros(8), 2)


def _lb_inputs(seed, features=6):
    rng = np.random.default_rng(seed)
    halves = np.sort(rng.standard_normal((2, features)), axis=0)
    points = rng.standard_normal((8, features))
    rects = np.sort(rng.standard_normal((2, 8, features)), axis=0)
    return halves[0], halves[1], points, rects[0], rects[1]


class TestLowerBoundConformance:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from([2.0, 3.0]))
    def test_lb_keogh_batch_bitwise_vs_scalar(self, seed, p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        rho = int(rng.integers(0, 6))
        env = query_envelope(rng.standard_normal(n), rho)
        rows = rng.standard_normal((6, n))
        got = lb_keogh_pow_batch(env, rows, p)
        for i in range(6):
            assert lb_keogh_pow(env, rows[i], p) == got[i]
            assert rel_close(
                reference_lb_keogh_pow(env.lower, env.upper, rows[i], p),
                float(got[i]),
            )

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from([2.0, 3.0]), st.integers(1, 8))
    def test_lb_paa_batch_bitwise_vs_scalar(self, seed, p, seg_len):
        lower, upper, points, _, _ = _lb_inputs(seed)
        got = lb_paa_pow_batch(lower, upper, points, seg_len, p)
        for i in range(points.shape[0]):
            assert lb_paa_pow(lower, upper, points[i], seg_len, p) == got[i]
            assert rel_close(
                reference_lb_paa_pow(lower, upper, points[i], seg_len, p),
                float(got[i]),
            )

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from([2.0, 3.0]), st.integers(1, 8))
    def test_mindist_maxdist_batch_bitwise_vs_scalar(self, seed, p, seg_len):
        lower, upper, _, lows, highs = _lb_inputs(seed)
        near = mindist_pow_batch(lower, upper, lows, highs, seg_len, p)
        far = maxdist_pow_batch(lower, upper, lows, highs, seg_len, p)
        for i in range(lows.shape[0]):
            assert (
                mindist_pow(lower, upper, lows[i], highs[i], seg_len, p)
                == near[i]
            )
            assert (
                maxdist_pow(lower, upper, lows[i], highs[i], seg_len, p)
                == far[i]
            )
            assert rel_close(
                reference_mindist_pow(
                    lower, upper, lows[i], highs[i], seg_len, p
                ),
                float(near[i]),
            )
            assert rel_close(
                reference_maxdist_pow(
                    lower, upper, lows[i], highs[i], seg_len, p
                ),
                float(far[i]),
            )

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(1, 8))
    def test_degenerate_rect_identity(self, seed, seg_len):
        # A leaf entry's PAA point as a low == high rectangle: MINDIST,
        # LB_PAA, and MAXDIST must coincide bit for bit — this is what
        # lets batch_lower_bounds score mixed leaf/node entry blocks.
        lower, upper, points, _, _ = _lb_inputs(seed)
        point_vals = lb_paa_pow_batch(lower, upper, points, seg_len)
        near = mindist_pow_batch(lower, upper, points, points, seg_len)
        far = maxdist_pow_batch(lower, upper, points, points, seg_len)
        assert np.array_equal(point_vals, near)
        assert np.array_equal(point_vals, far)

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 8))
    def test_batch_lower_bounds_entry_point(self, seed, seg_len):
        lower, upper, _, lows, highs = _lb_inputs(seed)
        near, far = batch_lower_bounds(
            lower, upper, lows, highs, seg_len, include_far=True
        )
        assert np.array_equal(
            near, mindist_pow_batch(lower, upper, lows, highs, seg_len)
        )
        assert far is not None
        assert np.array_equal(
            far, maxdist_pow_batch(lower, upper, lows, highs, seg_len)
        )
        near_only, no_far = batch_lower_bounds(
            lower, upper, lows, highs, seg_len
        )
        assert np.array_equal(near, near_only)
        assert no_far is None

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 10))
    def test_mdmwp_batch_matches_scalar(self, seed, r):
        rng = np.random.default_rng(seed)
        pows = rng.random(6)
        got = mdmwp_pow_batch(pows, r)
        for i in range(6):
            assert got[i] == mdmwp_pow(float(pows[i]), r)
        with pytest.raises(QueryError):
            mdmwp_pow_batch(pows, 0)

    def test_batch_validation_errors(self):
        env = query_envelope(np.zeros(8), 1)
        with pytest.raises(QueryError):
            lb_keogh_pow_batch(env, np.zeros(8))  # 1-D
        with pytest.raises(QueryError):
            lb_keogh_pow_batch(env, np.zeros((2, 5)))  # wrong length
        with pytest.raises(QueryError):
            lb_paa_pow_batch(np.zeros(4), np.zeros(4), np.zeros((2, 4)), 0)
        with pytest.raises(QueryError):
            mindist_pow_batch(
                np.zeros(4), np.zeros(4), np.zeros((2, 4)), np.zeros((3, 4)), 1
            )
        with pytest.raises(QueryError):
            maxdist_pow_batch(
                np.zeros(4), np.zeros(4), np.zeros((2, 4)), np.zeros((2, 3)), 1
            )


def _grid_inputs(windows, entries=53, features=4, seed=7):
    """A stack of ``windows`` envelopes, one node's entries, (W, n) stats."""
    rng = np.random.default_rng(seed)
    halves = np.sort(rng.standard_normal((2, windows, features)), axis=0)
    points = rng.standard_normal((entries, features))
    rects = np.sort(rng.standard_normal((2, entries, features)), axis=0)
    mus = rng.standard_normal((windows, entries))
    sigmas = rng.uniform(0.1, 3.0, (windows, entries))
    return halves[0], halves[1], points, rects[0], rects[1], mus, sigmas


class TestWindowGrid:
    """A ``(W, f)`` envelope stack scores a node's entries to ``(W, n)``;
    row ``w`` equals the ``(f,)``-envelope call for window ``w``."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("windows", [1, 7, 193])
    def test_raw_rows_equal_single_window_calls(self, windows, p):
        lower, upper, points, lows, highs, _, _ = _grid_inputs(windows)
        leaf = lb_paa_pow_batch(lower, upper, points, 4, p)
        near, far = batch_lower_bounds(
            lower, upper, lows, highs, 4, p, include_far=True
        )
        assert leaf.shape == near.shape == far.shape == (windows, 53)
        for w in range(windows):
            assert np.array_equal(
                leaf[w], lb_paa_pow_batch(lower[w], upper[w], points, 4, p)
            )
            one_near, one_far = batch_lower_bounds(
                lower[w], upper[w], lows, highs, 4, p, include_far=True
            )
            assert np.array_equal(near[w], one_near)
            assert np.array_equal(far[w], one_far)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("windows", [1, 7, 193])
    def test_znorm_rows_equal_single_window_calls(self, windows, p):
        lower, upper, points, lows, highs, mus, sigmas = _grid_inputs(windows)
        box = ((-1.0, 2.0), (0.5, 3.0))
        leaf = lb_paa_znorm_pow_batch(
            lower, upper, points, mus, sigmas, 4, p
        )
        near, far = batch_lower_bounds_znorm(
            lower, upper, lows, highs, *box, 4, p, include_far=True
        )
        assert leaf.shape == near.shape == far.shape == (windows, 53)
        for w in range(windows):
            assert np.array_equal(
                leaf[w],
                lb_paa_znorm_pow_batch(
                    lower[w], upper[w], points, mus[w], sigmas[w], 4, p
                ),
            )
            one_near, one_far = batch_lower_bounds_znorm(
                lower[w], upper[w], lows, highs, *box, 4, p, include_far=True
            )
            assert np.array_equal(near[w], one_near)
            assert np.array_equal(far[w], one_far)

    def test_validation_errors_survive_the_stack(self):
        lower, upper, points, lows, highs, mus, sigmas = _grid_inputs(3, 5)
        box = ((-1.0, 2.0), (0.5, 3.0))
        with pytest.raises(QueryError, match="seg_len"):
            lb_paa_pow_batch(lower, upper, points, 0)
        with pytest.raises(QueryError, match="seg_len"):
            batch_lower_bounds(lower, upper, lows, highs, 0)
        with pytest.raises(QueryError, match="seg_len"):
            lb_paa_znorm_pow_batch(lower, upper, points, mus, sigmas, 0)
        with pytest.raises(QueryError, match="seg_len"):
            batch_lower_bounds_znorm(lower, upper, lows, highs, *box, 0)
        with pytest.raises(QueryError, match="shape"):
            batch_lower_bounds(lower, upper, lows, highs[:4], 1)
        with pytest.raises(QueryError, match="shape"):
            batch_lower_bounds_znorm(lower, upper, lows[:4], highs, *box, 1)
        with pytest.raises(QueryError, match="shape"):
            # One window's (n,) stats against a three-window stack.
            lb_paa_znorm_pow_batch(lower, upper, points, mus[0], sigmas[0], 1)
        with pytest.raises(QueryError, match="shape"):
            lb_paa_znorm_pow_batch(lower[0], upper[0], points, mus, sigmas, 1)
        bad = sigmas.copy()
        bad[2, 4] = 0.0
        with pytest.raises(QueryError, match="positive"):
            lb_paa_znorm_pow_batch(lower, upper, points, mus, bad, 1)
        with pytest.raises(QueryError, match="positive"):
            batch_lower_bounds_znorm(
                lower, upper, lows, highs, (-1.0, 2.0), (0.0, 3.0), 1
            )


class TestFloat64Accumulation:
    """float32 (or integer) inputs must accumulate in float64."""

    def test_dtw_batch_float32(self):
        rng = np.random.default_rng(13)
        batch32 = rng.standard_normal((4, 20)).astype(np.float32)
        q32 = rng.standard_normal(20).astype(np.float32)
        got = dtw_pow_batch(batch32, q32, rho=3)
        assert got.dtype == np.float64
        expected = dtw_pow_batch(
            batch32.astype(np.float64), q32.astype(np.float64), 3
        )
        assert np.array_equal(got, expected)

    def test_dtw_scalar_paths_float32(self):
        rng = np.random.default_rng(14)
        s32 = rng.standard_normal(20).astype(np.float32)
        q32 = rng.standard_normal(20).astype(np.float32)
        want = dtw_pow(s32.astype(np.float64), q32.astype(np.float64), 3)
        assert dtw_pow(s32, q32, 3) == want
        assert dtw_pow_wavefront(s32, q32, 3) == want

    def test_lb_keogh_batch_float32(self):
        rng = np.random.default_rng(15)
        env = query_envelope(rng.standard_normal(16), 2)
        rows32 = rng.standard_normal((5, 16)).astype(np.float32)
        got = lb_keogh_pow_batch(env, rows32)
        assert got.dtype == np.float64
        assert np.array_equal(
            got, lb_keogh_pow_batch(env, rows32.astype(np.float64))
        )

    def test_envelope_and_paa_batch_float32(self):
        rng = np.random.default_rng(16)
        batch32 = rng.standard_normal((3, 12)).astype(np.float32)
        batch64 = batch32.astype(np.float64)
        lower32, upper32 = envelope_batch(batch32, 2)
        lower64, upper64 = envelope_batch(batch64, 2)
        assert lower32.dtype == upper32.dtype == np.float64
        assert np.array_equal(lower32, lower64)
        assert np.array_equal(upper32, upper64)
        got = paa_batch(batch32, 4)
        assert got.dtype == np.float64
        assert np.array_equal(got, paa_batch(batch64, 4))

    def test_integer_inputs_upcast(self):
        batch = np.array([[1, 2, 3, 4]], dtype=np.int64)
        q = np.array([2, 2, 2, 2], dtype=np.int64)
        assert dtw_pow_batch(batch, q, rho=1)[0] == dtw_pow(
            batch[0].astype(np.float64), q.astype(np.float64), 1
        )


def _run(db, query, spec):
    """A bare run on ``db``'s index for feeding the cascade by hand."""
    return QueryRun(
        db.index, spec, ExecutionControl(), "cascade-test",
        window_set=query_window_set(query, db.index, spec),
        collector=TopKCollector(spec.k, p=spec.p),
    )


class TestCascadeArrivalOrder:
    """The set-at-a-time cascade is a function of the candidate *set*.

    One deferred drain over a fixed candidate set: however the
    candidates arrived, the drain retrieves in storage order and the
    cascade offers a superset of the top-k, so matches (bit for bit),
    NUM_IO and the candidate count cannot depend on arrival order — and
    the matches are the brute-force top-k of the set.
    """

    @staticmethod
    def _drain(db, query, spec, candidates):
        db.reset_cache()
        with _run(db, query, spec) as run:
            for sid, start in candidates:
                run.evaluator.submit(sid, start, 0.0)
            run.evaluator.finalize()
            return run.finish(
                run.evaluator.collector.matches(run.window_set.length)
            )

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.booleans())
    def test_shuffled_arrival_same_answer_and_counts(self, seed, normalize):
        rng = np.random.default_rng(seed)
        db = build_property_db(rng, lengths=(500, 300))
        length, rho, k = 24, 2, 5
        query = rng.standard_normal(length).cumsum()
        offsets = [
            (sid, start)
            for sid in db.store.sequence_ids()
            for start in range(db.store.length(sid) - length + 1)
        ]
        # More than one retrieval sub-batch, many lane chunks.
        picks = rng.choice(len(offsets), size=300, replace=False)
        candidates = [offsets[i] for i in picks]
        spec = QuerySpec(rho=rho, k=k, deferred=True, normalize=normalize)
        results = []
        with pytest.MonkeyPatch.context() as patch:
            # A budget of the whole database: one drain takes every
            # candidate.
            patch.setattr(base, "DEFERRED_FRACTION", 1.0)
            for _ in range(3):
                rng.shuffle(candidates)
                results.append(self._drain(db, query, spec, candidates))
        first = results[0]
        assert first.stats.deferred_flushes == 1
        assert first.stats.candidates == len(candidates)
        for other in results[1:]:
            assert other.matches == first.matches
            assert other.stats.page_accesses == first.stats.page_accesses
            assert other.stats.candidates == first.stats.candidates
        target = znormalize(query) if normalize else query
        scored = []
        for sid, start in candidates:
            values = db.store.peek_subsequence(sid, start, length)
            if normalize:
                values = znormalize(values)
            scored.append(
                (reference_dtw_pow(values, target, rho), sid, start)
            )
        scored.sort()
        assert [(m.sid, m.start) for m in first.matches] == [
            (sid, start) for _, sid, start in scored[:k]
        ]
        for match, (distance_pow, _, _) in zip(first.matches, scored):
            assert rel_close(match.distance, math.sqrt(distance_pow))

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_row_order_does_not_change_the_matches(self, seed):
        rng = np.random.default_rng(seed)
        db = build_property_db(rng)
        length = 24
        query = rng.standard_normal(length).cumsum()
        starts = rng.choice(300 - length, size=120, replace=False)
        rows = np.stack(
            [db.store.peek_subsequence(0, int(s), length) for s in starts]
        )
        answers = []
        for _ in range(3):
            order = rng.permutation(len(starts))
            with _run(db, query, QuerySpec(rho=2, k=4)) as run:
                run.evaluator.verify_rows(
                    rows[order], [0] * len(order), starts[order].tolist()
                )
                stats = run.evaluator.stats
                assert stats.lb_keogh_computations == len(order)
                assert (
                    stats.pruned_by_lb_keogh + stats.dtw_computations
                    == len(order)
                )
                answers.append(run.finish(run.evaluator.collector.matches(length)))
        assert answers[1].matches == answers[0].matches
        assert answers[2].matches == answers[0].matches
