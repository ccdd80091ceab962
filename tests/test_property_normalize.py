"""Property and differential tests for z-normalized ranked matching.

Three layers of evidence, mirroring the raw pipeline's test stack:

1. Hypothesis properties pin the rolling-stats kernel to a naive
   two-pass scalar oracle (1e-9), including the constant-window sigma
   floor and float32 inputs.
2. The normalized bound chain — MINDIST_znorm <= LB_PAA_znorm <=
   LB_Keogh_znorm <= normalized DTW — must hold lane-for-lane on random
   workloads, with the candidate transformed through its *own* stats
   and the MBR bounds through a global stats box, exactly as the
   engines use them.
3. Every engine (plus range search, streaming, and sharded roots)
   must agree with an exhaustive normalized brute force on the golden
   workload, and the normalized bounds must be registered with RS005's
   contract table in both directions.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import (
    BOUND_NAME_PREFIXES,
    LOWER_BOUND_CONTRACTS,
)
from repro.core.distance import dtw_pow
from repro.core.envelope import query_envelope
from repro.core.lower_bounds import (
    batch_lower_bounds_znorm,
    lb_keogh_znorm_pow,
    lb_paa_znorm_pow_batch,
    maxdist_znorm_pow_batch,
    mindist_znorm_pow_batch,
)
from repro.core.normalize import (
    SIGMA_FLOOR,
    NormalizationContext,
    rolling_stats,
    znormalize,
)
from repro.core.paa import paa, paa_envelope
from repro.core.reference import (
    brute_force_range,
    brute_force_topk,
    reference_rolling_stats,
    reference_znormalize,
)
from repro.exceptions import QueryError
from tests.conftest import build_golden_db, make_walk, query_from

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def sequences(min_size=2, max_size=48):
    return st.lists(finite, min_size=min_size, max_size=max_size)


#: Verified normalized golden top-5 for the (640, 48) query on the
#: golden workload — every engine, the stream, and the sharded facade
#: must reproduce these distances bit for bit.
ZNORM_GOLDEN_MATCHES = [(0, 640), (0, 639), (0, 641), (0, 642), (0, 638)]


# ----------------------------------------------------------------------
# 1. Rolling-stats kernel versus the scalar oracle
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(sequences(2, 48), st.integers(1, 48))
# True sigma exactly 1.0 (window [0, 2]): the kernel and the oracle land
# one ulp apart, and 1.0 there is a value, not the floor.
@example([0.0, 0.0, 0.0, 2.0, 0.0], 2)
def test_rolling_stats_matches_reference(values, window):
    window = min(window, len(values))
    mu, sigma = rolling_stats(np.asarray(values), window)
    ref_mu, ref_sigma = reference_rolling_stats(values, window)
    np.testing.assert_allclose(mu, ref_mu, rtol=1e-9, atol=1e-9)
    # Sigma is compared in the variance domain with a scale-aware
    # absolute term: the cumulative-sum kernel's cancellation error is
    # O(eps * magnitude^2), so a near-constant window inside a
    # large-magnitude sequence cannot beat that floor no matter how the
    # variance is extracted.  Well-separated variances still agree to
    # 1e-9 relative.
    scale = float(np.ptp(np.asarray(values))) + 1.0
    # Only a window whose own (unfloored) deviation is within that
    # cancellation noise of SIGMA_FLOOR can have been floored, so an
    # output of 1.0 anywhere else is a deviation like any other.
    unfloored = sliding_window_view(
        np.asarray(values, dtype=np.float64), window
    ).std(axis=1)
    near_floor = unfloored <= SIGMA_FLOOR + 1e-5 * scale
    floored = near_floor & ((sigma == 1.0) | (ref_sigma == 1.0))
    np.testing.assert_allclose(
        sigma[~floored] ** 2,
        ref_sigma[~floored] ** 2,
        rtol=1e-9,
        atol=1e-12 * scale * scale,
    )
    # Windows whose true deviation is zero sit exactly at the sigma
    # floor; cancellation noise can push one side just above
    # SIGMA_FLOOR while the other floors to 1.0.  Where the two
    # disagree about flooring, both must be describing a window that is
    # constant relative to the data's magnitude.
    disagree = floored & (sigma != ref_sigma)
    assert (np.minimum(sigma, ref_sigma)[disagree] < 1e-5 * scale).all()


@settings(max_examples=40, deadline=None)
@given(finite, st.integers(2, 32), st.integers(1, 8))
def test_constant_window_floors_sigma(value, length, window):
    window = min(window, length)
    mu, sigma = rolling_stats(np.full(length, value), window)
    np.testing.assert_allclose(mu, value, rtol=0, atol=1e-9)
    # Population sigma of a constant window is 0 <= SIGMA_FLOOR, so
    # every window gets the floor value of exactly 1.0.
    assert (sigma == 1.0).all()


@settings(max_examples=40, deadline=None)
@given(sequences(4, 32))
def test_float32_input_promotes_to_float64(values):
    as32 = np.asarray(values, dtype=np.float32)
    mu, sigma = rolling_stats(as32, 4) if as32.size >= 4 else rolling_stats(
        as32, as32.size
    )
    assert mu.dtype == np.float64
    assert sigma.dtype == np.float64
    window = 4 if as32.size >= 4 else as32.size
    ref_mu, ref_sigma = rolling_stats(as32.astype(np.float64), window)
    # Same float32 values in, identical float64 stats out.
    np.testing.assert_array_equal(mu, ref_mu)
    np.testing.assert_array_equal(sigma, ref_sigma)


@settings(max_examples=60, deadline=None)
@given(sequences(2, 48))
def test_znormalize_matches_reference(values):
    got = znormalize(np.asarray(values))
    want = reference_znormalize(values)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
    assert got.dtype == np.float64


@settings(max_examples=40, deadline=None)
@given(finite, st.integers(2, 32))
def test_constant_input_normalizes_to_zeros(value, length):
    np.testing.assert_array_equal(
        znormalize(np.full(length, value)), np.zeros(length)
    )


def test_znormalize_rejects_empty_and_bad_sigma():
    with pytest.raises(QueryError):
        znormalize(np.empty(0))
    with pytest.raises(QueryError):
        znormalize(np.arange(4.0), mu=0.0, sigma=0.0)


def test_sigma_floor_is_conservative():
    # A deviation just above the floor is used as-is; at the floor and
    # below it is replaced by 1.0 — never a near-zero divisor.
    tiny = np.array([0.0, SIGMA_FLOOR / 2], dtype=np.float64)
    _, sigma = rolling_stats(tiny, 2)
    assert sigma[0] == 1.0


# ----------------------------------------------------------------------
# 2. Normalized bound chain soundness
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 5))
def test_znorm_bound_sandwich(seed, features_exp, rho):
    rng = np.random.default_rng(seed)
    features = 2**features_exp  # 2..8 divides 32
    n = 32
    seg_len = n // features
    q = rng.standard_normal(n).cumsum()
    batch = rng.standard_normal((8, n)).cumsum(axis=1)

    q_hat = znormalize(q)
    env = query_envelope(q_hat, rho)
    paa_lower, paa_upper = paa_envelope(env, features)

    mus = np.empty(len(batch))
    sigmas = np.empty(len(batch))
    paa_rows = np.empty((len(batch), features))
    for i, row in enumerate(batch):
        mu_i, sigma_i = rolling_stats(row, n)
        mus[i], sigmas[i] = float(mu_i[0]), float(sigma_i[0])
        paa_rows[i] = paa(row, features)

    paa_z = lb_paa_znorm_pow_batch(
        paa_lower, paa_upper, paa_rows, mus, sigmas, seg_len
    )
    for i, row in enumerate(batch):
        keogh_z = lb_keogh_znorm_pow(env, row, mus[i], sigmas[i])
        dtw_z = dtw_pow(znormalize(row, mus[i], sigmas[i]), q_hat, rho)
        assert dtw_z + 1e-9 >= keogh_z
        assert keogh_z + 1e-9 >= paa_z[i]

    # One MBR covering all raw PAA rows, one stats box covering every
    # candidate's (mu, sigma): MINDIST under the box must stay below
    # each row's LB_PAA, MAXDIST must stay above it.
    rect_low = paa_rows.min(axis=0)[None, :]
    rect_high = paa_rows.max(axis=0)[None, :]
    mu_range = (float(mus.min()), float(mus.max()))
    sigma_range = (float(sigmas.min()), float(sigmas.max()))
    near = mindist_znorm_pow_batch(
        paa_lower, paa_upper, rect_low, rect_high,
        mu_range, sigma_range, seg_len,
    )
    far = maxdist_znorm_pow_batch(
        paa_lower, paa_upper, rect_low, rect_high,
        mu_range, sigma_range, seg_len,
    )
    assert (near[0] <= paa_z + 1e-9).all()
    assert (far[0] + 1e-9 >= paa_z).all()

    both_near, both_far = batch_lower_bounds_znorm(
        paa_lower, paa_upper, rect_low, rect_high,
        mu_range, sigma_range, seg_len, include_far=True,
    )
    np.testing.assert_array_equal(both_near, near)
    np.testing.assert_array_equal(both_far, far)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 7, 193]),
    st.sampled_from([1.0, 2.0, 3.0]),
)
def test_znorm_window_grid_rows_are_single_window_calls(seed, windows, p):
    # Leaf points transform by per-(window, entry) stats, internal
    # rectangles by the one stats box: each grid row is bit for bit the
    # one-envelope call for its window.
    rng = np.random.default_rng(seed)
    f = int(rng.integers(1, 9))
    n = int(rng.integers(1, 60))
    seg_len = int(rng.integers(1, 9))
    env = np.sort(rng.standard_normal((2, windows, f)), axis=0)
    points = rng.standard_normal((n, f))
    mus = rng.standard_normal((windows, n))
    sigmas = rng.uniform(0.05, 4.0, (windows, n))
    lows = rng.standard_normal((n, f))
    highs = lows + rng.random((n, f)) * 3
    box = ((float(mus.min()), float(mus.max())),
           (float(sigmas.min()), float(sigmas.max())))
    leaf = lb_paa_znorm_pow_batch(
        env[0], env[1], points, mus, sigmas, seg_len, p
    )
    near, far = batch_lower_bounds_znorm(
        env[0], env[1], lows, highs, *box, seg_len, p, include_far=True
    )
    for w in range(windows):
        lower, upper = env[0, w], env[1, w]
        assert np.array_equal(
            leaf[w],
            lb_paa_znorm_pow_batch(
                lower, upper, points, mus[w], sigmas[w], seg_len, p
            ),
        )
        one_near, one_far = batch_lower_bounds_znorm(
            lower, upper, lows, highs, *box, seg_len, p, include_far=True
        )
        assert np.array_equal(near[w], one_near)
        assert np.array_equal(far[w], one_far)


@pytest.mark.parametrize("stride", [1, 4, 16])
def test_grid_stats_equal_scalar_lookups(golden_db, stride):
    """Every ``(window, record)`` cell is :meth:`stats` of its start,
    out-of-range starts and an unknown sid included."""
    context = NormalizationContext(golden_db.store, 48)
    rng = np.random.default_rng(stride)
    n = 40
    sids = rng.integers(0, 3, n)  # sid 2 does not exist
    window_indices = rng.integers(0, 1600 // stride, n)
    offsets = rng.integers(0, 48, 9)
    mus, sigmas = context.grid_stats(sids, window_indices, offsets, stride)
    assert mus.shape == sigmas.shape == (9, n)
    for w, offset in enumerate(offsets.tolist()):
        for b in range(n):
            start = int(window_indices[b]) * stride - offset
            assert (mus[w, b], sigmas[w, b]) == context.stats(
                int(sids[b]), start
            )


# ----------------------------------------------------------------------
# 3. Engine differential versus normalized brute force
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_db():
    return build_golden_db()


@pytest.fixture(scope="module")
def znorm_oracle(golden_db):
    query = query_from(golden_db, 640, 48)
    return [
        (m.distance, m.sid, m.start)
        for m in brute_force_topk(
            golden_db.store, query, 5, 2, normalize=True
        )
    ]


class TestNormalizedEngineExactness:
    @pytest.mark.parametrize(
        "method,deferred",
        [
            ("seqscan", False),
            ("hlmj", False), ("hlmj", True),
            ("hlmj-wg", False), ("hlmj-wg", True),
            ("ru", False), ("ru", True),
            ("ru-cost", False), ("ru-cost", True),
        ],
    )
    def test_engines_match_oracle(
        self, golden_db, znorm_oracle, method, deferred
    ):
        query = query_from(golden_db, 640, 48)
        golden_db.reset_cache()
        result = golden_db.search(
            query, k=5, rho=2, method=method, deferred=deferred,
            normalize=True,
        )
        got = [(m.distance, m.sid, m.start) for m in result.matches]
        assert [(sid, start) for _, sid, start in got] == ZNORM_GOLDEN_MATCHES
        for (gd, gs, gt), (od, os_, ot) in zip(got, znorm_oracle):
            assert (gs, gt) == (os_, ot)
            assert gd == pytest.approx(od, rel=1e-12, abs=1e-12)

    def test_stream_matches_oracle(self, golden_db, znorm_oracle):
        query = query_from(golden_db, 640, 48)
        golden_db.reset_cache()
        got = []
        for match in golden_db.iter_matches(
            query, rho=2, normalize=True
        ):
            got.append((match.sid, match.start))
            if len(got) == 5:
                break
        assert got == [(sid, start) for _, sid, start in znorm_oracle]

    def test_range_matches_brute_force(self, golden_db):
        query = query_from(golden_db, 640, 48)
        epsilon = 1.0
        want = brute_force_range(
            golden_db.store, query, epsilon, 2, normalize=True
        )
        golden_db.reset_cache()
        result = golden_db.range_search(
            query, epsilon=epsilon, rho=2, normalize=True
        )
        assert [(m.sid, m.start, repr(m.distance)) for m in result.matches] \
            == [(m.sid, m.start, repr(m.distance)) for m in want]

    def test_raw_results_unchanged_by_default(self, golden_db):
        # normalize=False must stay byte-identical to the pre-existing
        # golden distances: the normalized plane is strictly additive.
        from tests.test_engines_stats import (
            GOLDEN_DISTANCES,
            GOLDEN_MATCHES,
        )

        query = query_from(golden_db, 640, 48)
        golden_db.reset_cache()
        result = golden_db.search(query, k=5, rho=2, method="ru-cost")
        assert [repr(m.distance) for m in result.matches] == GOLDEN_DISTANCES
        assert [(m.sid, m.start) for m in result.matches] == GOLDEN_MATCHES

    def test_normalization_finds_shifted_scaled_copies(self, golden_db):
        # The point of z-normalization: an affine-transformed copy of
        # the query is a perfect (distance zero) normalized match even
        # though its raw distance is enormous.
        query = query_from(golden_db, 640, 48)
        shifted = 3.0 * query + 250.0
        golden_db.reset_cache()
        raw = golden_db.search(shifted, k=1, rho=2, method="ru-cost")
        golden_db.reset_cache()
        norm = golden_db.search(
            shifted, k=1, rho=2, method="ru-cost", normalize=True
        )
        assert norm.matches[0].distance == pytest.approx(0.0, abs=1e-10)
        assert (norm.matches[0].sid, norm.matches[0].start) == (0, 640)
        assert raw.matches[0].distance > 1.0


class TestNormalizedSharded:
    def test_sharded_matches_unsharded(self):
        from repro.shard import ShardedDatabase

        sharded = ShardedDatabase(
            num_shards=2, policy="hash",
            omega=16, features=4, buffer_fraction=0.1,
        )
        oracle = build_golden_db()
        # Same two sequences, routed across two shards.
        sharded.insert(0, make_walk(3000, seed=11))
        sharded.insert(1, make_walk(2200, seed=12))
        sharded.build()
        try:
            query = query_from(oracle, 640, 48)
            gold = oracle.search(
                query, k=5, rho=2, method="ru-cost", normalize=True
            )
            got = sharded.search(
                query, k=5, rho=2, method="ru-cost", normalize=True
            )
            assert [
                (m.sid, m.start, repr(m.distance)) for m in gold.matches
            ] == [(m.sid, m.start, repr(m.distance)) for m in got.matches]
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# RS005 registration: both directions
# ----------------------------------------------------------------------

ZNORM_BOUNDS = (
    "lb_keogh_znorm_pow",
    "lb_paa_znorm_pow_batch",
    "mindist_znorm_pow_batch",
    "maxdist_znorm_pow_batch",
    "batch_lower_bounds_znorm",
)


class TestContractRegistration:
    def test_znorm_bounds_registered(self):
        for name in ZNORM_BOUNDS:
            assert name in LOWER_BOUND_CONTRACTS, name
            assert name.startswith(BOUND_NAME_PREFIXES) or name.startswith(
                "batch_"
            )

    def test_every_module_bound_has_a_contract(self):
        # The forward direction of RS005, asserted without the linter:
        # every bound-named top-level function in lower_bounds.py must
        # carry a registered contract.
        import ast
        import inspect

        from repro.core import lower_bounds

        tree = ast.parse(inspect.getsource(lower_bounds))
        module_bounds = {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and (
                node.name.startswith(BOUND_NAME_PREFIXES)
                or node.name.startswith("batch_lower_bounds")
            )
        }
        missing = module_bounds - set(LOWER_BOUND_CONTRACTS)
        assert not missing, f"unregistered bounds: {sorted(missing)}"

    def test_contracts_name_their_tightening_chain(self):
        assert (
            LOWER_BOUND_CONTRACTS["lb_paa_znorm_pow_batch"].tightens
            == "lb_keogh_znorm_pow"
        )
        assert (
            LOWER_BOUND_CONTRACTS["mindist_znorm_pow_batch"].tightens
            == "lb_paa_znorm_pow_batch"
        )
