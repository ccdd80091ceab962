"""Hypothesis property tests for the core math layer.

These guard the invariants the engines' exactness rests on: the DTW
band semantics, the envelope definition, and the lower-bound chain.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import dtw_pow, dtw_pow_batch, lp_distance
from repro.core.envelope import query_envelope
from repro.core.lower_bounds import (
    batch_lower_bounds,
    lb_keogh_pow,
    lb_keogh_pow_batch,
    lb_paa_pow,
    lb_paa_pow_batch,
    maxdist_pow_batch,
    mindist_pow,
    mindist_pow_batch,
)
from repro.core.paa import paa, paa_batch, paa_envelope
from repro.core.results import TopKCollector

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def sequences(min_size=2, max_size=48):
    return st.lists(finite, min_size=min_size, max_size=max_size)


@settings(max_examples=60, deadline=None)
@given(sequences(), st.integers(min_value=0, max_value=6))
def test_dtw_self_distance_zero(values, rho):
    assert dtw_pow(values, values, rho) == 0.0


@settings(max_examples=60, deadline=None)
@given(sequences(8, 24), sequences(8, 24), st.integers(0, 5))
def test_dtw_symmetry(a, b, rho):
    left = dtw_pow(a, b, rho)
    right = dtw_pow(b, a, rho)
    if math.isinf(left):
        assert math.isinf(right)
    else:
        assert left == pytest_approx(right)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(sequences(8, 24), st.integers(0, 4))
def test_wider_band_never_increases_dtw(a, rho):
    rng = np.random.default_rng(len(a))
    b = rng.standard_normal(len(a))
    narrow = dtw_pow(a, b, rho)
    wide = dtw_pow(a, b, rho + 2)
    assert wide <= narrow + 1e-9


@settings(max_examples=60, deadline=None)
@given(sequences(4, 40), st.integers(0, 8))
def test_envelope_definition(values, rho):
    env = query_envelope(values, rho)
    array = np.asarray(values)
    n = array.size
    for i in range(n):
        window = array[max(0, i - rho) : min(n, i + rho + 1)]
        assert env.lower[i] == window.min()
        assert env.upper[i] == window.max()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.integers(0, 6),
)
def test_lower_bound_chain(seed, features_exp, rho):
    rng = np.random.default_rng(seed)
    features = 2**features_exp  # 2..16 divides 32
    n = 32
    q = rng.standard_normal(n).cumsum()
    s = rng.standard_normal(n).cumsum()
    env = query_envelope(q, rho)
    dtw = dtw_pow(s, q, rho)
    keogh = lb_keogh_pow(env, s)
    lower, upper = paa_envelope(env, features)
    paa_bound = lb_paa_pow(lower, upper, paa(s, features), n // features)
    assert dtw + 1e-9 >= keogh
    assert keogh + 1e-9 >= paa_bound


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_mindist_lower_bounds_points_in_rect(seed):
    rng = np.random.default_rng(seed)
    f = 4
    env_low = np.sort(rng.standard_normal(f))
    env_high = env_low + rng.random(f)
    rect_low = rng.standard_normal(f)
    rect_high = rect_low + rng.random(f) * 3
    point = rect_low + rng.random(f) * (rect_high - rect_low)
    assert mindist_pow(
        env_low, env_high, rect_low, rect_high, 4
    ) <= lb_paa_pow(env_low, env_high, point, 4) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.integers(0, 6),
)
def test_batched_lower_bound_sandwich(seed, features_exp, rho):
    # Lemma 1's chain, LB_PAA <= LB_Keogh <= DTW_rho, must hold for
    # every lane of the batched kernels at once.
    rng = np.random.default_rng(seed)
    features = 2**features_exp  # 2..16 divides 32
    n = 32
    q = rng.standard_normal(n).cumsum()
    batch = rng.standard_normal((8, n)).cumsum(axis=1)
    env = query_envelope(q, rho)
    dtw = dtw_pow_batch(batch, q, rho)
    keogh = lb_keogh_pow_batch(env, batch)
    lower, upper = paa_envelope(env, features)
    paa_bound = lb_paa_pow_batch(
        lower, upper, paa_batch(batch, features), n // features
    )
    assert (dtw + 1e-9 >= keogh).all()
    assert (keogh + 1e-9 >= paa_bound).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_batched_mindist_sandwich_over_rect_points(seed, seg_len):
    # MINDIST <= LB_PAA(point) <= MAXDIST for every point inside its
    # rectangle, batched: the near/far bounds of batch_lower_bounds
    # must bracket every leaf entry the rectangle could contain.
    rng = np.random.default_rng(seed)
    f = 4
    env_low = np.sort(rng.standard_normal(f))
    env_high = env_low + rng.random(f)
    lows = rng.standard_normal((8, f))
    highs = lows + rng.random((8, f)) * 3
    points = lows + rng.random((8, f)) * (highs - lows)
    near, far = batch_lower_bounds(
        env_low, env_high, lows, highs, seg_len, include_far=True
    )
    point_bound = lb_paa_pow_batch(env_low, env_high, points, seg_len)
    assert (near <= point_bound + 1e-9).all()
    assert (point_bound <= far + 1e-9).all()
    assert np.array_equal(
        near, mindist_pow_batch(env_low, env_high, lows, highs, seg_len)
    )
    assert np.array_equal(
        far, maxdist_pow_batch(env_low, env_high, lows, highs, seg_len)
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 7, 193]),
    st.sampled_from([1.0, 2.0, 3.0]),
)
def test_window_grid_rows_are_single_window_calls(seed, windows, p):
    # A node scored against a stack of window envelopes: every row of
    # the (W, n) grid is the one-envelope call for that window, bit for
    # bit, for leaf points and internal rectangles alike.
    rng = np.random.default_rng(seed)
    f = int(rng.integers(1, 9))
    n = int(rng.integers(1, 60))
    seg_len = int(rng.integers(1, 9))
    env = np.sort(rng.standard_normal((2, windows, f)), axis=0)
    points = rng.standard_normal((n, f))
    lows = rng.standard_normal((n, f))
    highs = lows + rng.random((n, f)) * 3
    leaf = lb_paa_pow_batch(env[0], env[1], points, seg_len, p)
    near = mindist_pow_batch(env[0], env[1], lows, highs, seg_len, p)
    far = maxdist_pow_batch(env[0], env[1], lows, highs, seg_len, p)
    for w in range(windows):
        lower, upper = env[0, w], env[1, w]
        assert np.array_equal(
            leaf[w], lb_paa_pow_batch(lower, upper, points, seg_len, p)
        )
        assert np.array_equal(
            near[w], mindist_pow_batch(lower, upper, lows, highs, seg_len, p)
        )
        assert np.array_equal(
            far[w], maxdist_pow_batch(lower, upper, lows, highs, seg_len, p)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 10),
)
def test_topk_collector_matches_sorted_reference(pows, k):
    collector = TopKCollector(k=k)
    for index, value in enumerate(pows):
        collector.offer_pow(value, 0, index)
    got = [match.distance for match in collector.matches(length=1)]
    want = [v**0.5 for v in sorted(pows)[:k]]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(sequences(4, 32), sequences(4, 32))
def test_lp_vs_dtw_rho_zero(a, b):
    if len(a) != len(b):
        return
    assert dtw_pow(a, b, 0) == pytest_approx(lp_distance(a, b) ** 2)
