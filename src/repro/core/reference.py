"""Gold-standard scalar oracles used by the test and bench suites.

Two kinds of reference live here:

* **Scalar kernel oracles** (``reference_*``): the original, deliberately
  unoptimised scalar-loop implementations of banded DTW, the envelope,
  PAA, and every lower bound.  The vectorized kernels in
  :mod:`repro.core.distance` and :mod:`repro.core.lower_bounds` must
  reproduce these bit for bit (DTW, envelope, PAA) or to within 1e-9
  (reduction-order-sensitive sums); ``tests/test_kernel_conformance.py``
  enforces it with randomized differential testing, and
  ``python -m repro bench`` re-checks exactness on every benchmark input
  before timing anything.
* **Brute-force engines** (:func:`brute_force_topk`,
  :func:`brute_force_range`): exhaustive banded DTW at every offset
  with no index, no lower bounds, and no I/O accounting, raw or
  z-normalized.  Every engine must return the same distance multiset.

Nothing here may import the vectorized kernels — an oracle that shares
code with the thing it validates cannot catch its bugs.  The exception
is z-normalization: :mod:`repro.core.normalize`'s stats *define* the
normalized distance (tests hold them to :func:`reference_rolling_stats`).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.normalize import rolling_stats, znormalize
from repro.core.results import Match
from repro.exceptions import QueryError
from repro.storage.sequences import SequenceStore

_INF = math.inf


def _as_float_list(values: Sequence[float]) -> list:
    """Plain Python-float view, upcasting any input dtype to float64."""
    if isinstance(values, np.ndarray):
        return [float(v) for v in values.tolist()]
    return [float(v) for v in values]


def reference_dtw_pow(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> float:
    """``DTW_rho(S, Q) ** p`` — the original row-by-row scalar DP.

    Semantics mirror :func:`repro.core.distance.dtw_pow` (band
    constraint, row-level early abandoning, float64 accumulation).
    """
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    n = len(q)
    m = len(s)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return _INF
    if abs(n - m) > rho:
        return _INF

    qs = _as_float_list(q)
    ss = _as_float_list(s)
    # Exact dispatch on the user-supplied norm order, not a computed float.
    squared = p == 2.0

    # prev[j] holds row i-1 of the DP matrix; positions outside the band
    # stay infinite.  Row i covers data columns [i - rho, i + rho].
    prev = [_INF] * m
    for i in range(n):
        lo = i - rho
        if lo < 0:
            lo = 0
        hi = i + rho
        if hi >= m:
            hi = m - 1
        cur = [_INF] * m
        qi = qs[i]
        row_min = _INF
        left = _INF  # cur[j - 1], the within-row dependency
        for j in range(lo, hi + 1):
            gap = ss[j] - qi
            if gap < 0.0:
                gap = -gap
            cost = gap * gap if squared else gap**p
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = prev[j]  # vertical move
                diag = prev[j - 1] if j > 0 else _INF
                if diag < best:
                    best = diag
                if left < best:
                    best = left
            value = cost + best
            cur[j] = value
            left = value
            if value < row_min:
                row_min = value
        if row_min > threshold_pow:
            return _INF
        prev = cur
    return prev[m - 1]


def reference_envelope(
    q: Sequence[float], rho: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``E(Q)`` as (lower, upper) — the Definition 1 double loop."""
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    array = np.asarray(q, dtype=np.float64)
    n = int(array.size)
    lower = np.empty(n, dtype=np.float64)
    upper = np.empty(n, dtype=np.float64)
    values = [float(v) for v in array.tolist()]
    for i in range(n):
        lo = max(0, i - rho)
        hi = min(n, i + rho + 1)
        window = values[lo:hi]
        lower[i] = min(window)
        upper[i] = max(window)
    return lower, upper


def reference_paa(values: Sequence[float], features: int) -> np.ndarray:
    """PAA segment means via an explicit per-segment loop."""
    array = np.asarray(values, dtype=np.float64)
    if features < 1 or array.size % features != 0:
        raise QueryError(
            f"length {array.size} must be a positive multiple of the "
            f"feature count {features}"
        )
    seg = int(array.size) // features
    out = np.empty(features, dtype=np.float64)
    for dim in range(features):
        out[dim] = float(np.mean(array[dim * seg : (dim + 1) * seg]))
    return out


def reference_rolling_stats(
    values: Sequence[float], window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-window ``(mu, sigma_eff)`` via naive two-pass scalar loops.

    The oracle for :func:`repro.core.normalize.rolling_stats`: each
    window is summed twice (mean, then centred squares) in plain Python
    floats, with the same constant-window convention — a deviation at
    or below ``1e-10`` is replaced by ``1.0``.
    """
    if window < 1:
        raise QueryError(f"window must be >= 1, got {window}")
    vals = _as_float_list(values)
    count = len(vals) - window + 1
    mus: List[float] = []
    sigmas: List[float] = []
    for start in range(max(0, count)):
        chunk = vals[start : start + window]
        mean = sum(chunk) / window
        var = sum((v - mean) * (v - mean) for v in chunk) / window
        sigma = math.sqrt(var)
        mus.append(mean)
        sigmas.append(sigma if sigma > 1e-10 else 1.0)
    return (
        np.asarray(mus, dtype=np.float64),
        np.asarray(sigmas, dtype=np.float64),
    )


def reference_znormalize(values: Sequence[float]) -> np.ndarray:
    """Whole-sequence z-normalization via the scalar stats oracle."""
    vals = _as_float_list(values)
    if not vals:
        raise QueryError("cannot z-normalize an empty sequence")
    mus, sigmas = reference_rolling_stats(vals, len(vals))
    mean = float(mus[0])
    sigma = float(sigmas[0])
    return np.asarray([(v - mean) / sigma for v in vals], dtype=np.float64)


def _reference_gap(lower: float, upper: float, value: float) -> float:
    """Scalar distance from ``value`` to the band ``[lower, upper]``."""
    if value > upper:
        return value - upper
    if value < lower:
        return lower - value
    return 0.0


def reference_lb_keogh_pow(
    lower: Sequence[float],
    upper: Sequence[float],
    values: Sequence[float],
    p: float = 2.0,
) -> float:
    """``LB_Keogh(E(Q), S) ** p`` via a scalar accumulation loop."""
    los = _as_float_list(lower)
    ups = _as_float_list(upper)
    vals = _as_float_list(values)
    if not (len(los) == len(ups) == len(vals)):
        raise QueryError(
            f"LB_Keogh needs equal lengths, got {len(los)}, {len(ups)}, "
            f"{len(vals)}"
        )
    total = 0.0
    for lo, up, value in zip(los, ups, vals):
        gap = _reference_gap(lo, up, value)
        total += gap * gap if p == 2.0 else gap**p
    return total


def reference_lb_paa_pow(
    paa_lower: Sequence[float],
    paa_upper: Sequence[float],
    paa_values: Sequence[float],
    seg_len: int,
    p: float = 2.0,
) -> float:
    """``LB_PAA(P(E(Q)), P(S)) ** p`` via a scalar loop."""
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    return seg_len * reference_lb_keogh_pow(
        paa_lower, paa_upper, paa_values, p
    )


def reference_mindist_pow(
    paa_lower: Sequence[float],
    paa_upper: Sequence[float],
    rect_low: Sequence[float],
    rect_high: Sequence[float],
    seg_len: int,
    p: float = 2.0,
) -> float:
    """``MINDIST(P(E(q)), MBR) ** p`` via a scalar loop."""
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    total = 0.0
    for lo, up, rect_lo, rect_hi in zip(
        _as_float_list(paa_lower),
        _as_float_list(paa_upper),
        _as_float_list(rect_low),
        _as_float_list(rect_high),
    ):
        gap = max(rect_lo - up, lo - rect_hi, 0.0)
        total += gap * gap if p == 2.0 else gap**p
    return seg_len * total


def reference_maxdist_pow(
    paa_lower: Sequence[float],
    paa_upper: Sequence[float],
    rect_low: Sequence[float],
    rect_high: Sequence[float],
    seg_len: int,
    p: float = 2.0,
) -> float:
    """``MAXDIST(P(E(q)), MBR) ** p`` via a scalar loop."""
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    total = 0.0
    for lo, up, rect_lo, rect_hi in zip(
        _as_float_list(paa_lower),
        _as_float_list(paa_upper),
        _as_float_list(rect_low),
        _as_float_list(rect_high),
    ):
        gap = max(
            _reference_gap(lo, up, rect_lo), _reference_gap(lo, up, rect_hi)
        )
        total += gap * gap if p == 2.0 else gap**p
    return seg_len * total


def _scored(
    store: SequenceStore,
    query: Sequence[float],
    rho: int,
    p: float,
    normalize: bool,
) -> Iterator[Tuple[float, int, int]]:
    """``(DTW ** p, sid, start)`` of every subsequence, by scalar DP;
    under ``normalize`` each window by its own rolling statistics."""
    array = np.ascontiguousarray(query, dtype=np.float64)
    length = array.size
    if normalize:
        array = znormalize(array)
    for sid, values in store.iter_sequences():
        values = np.asarray(values, dtype=np.float64)
        if normalize:
            mus, sigmas = rolling_stats(values, length)
        for start in range(values.size - length + 1):
            window = values[start : start + length]
            if normalize:
                window = znormalize(window, mus[start], sigmas[start])
            yield reference_dtw_pow(window, array, rho, p=p), sid, start


def brute_force_topk(
    store: SequenceStore,
    query: Sequence[float],
    k: int,
    rho: int,
    p: float = 2.0,
    normalize: bool = False,
) -> List[Match]:
    """Exact top-k subsequences by exhaustive banded DTW.

    Deliberately unoptimised (no LB_Keogh, no early abandon, scalar DP)
    so that it cannot share a bug with the engines it validates.
    """
    best = heapq.nsmallest(k, _scored(store, query, rho, p, normalize))
    return [
        Match(distance_pow ** (1.0 / p), sid, start, len(query))
        for distance_pow, sid, start in best
    ]


def brute_force_range(
    store: SequenceStore,
    query: Sequence[float],
    epsilon: float,
    rho: int,
    p: float = 2.0,
    normalize: bool = False,
) -> List[Match]:
    """Every subsequence within ``epsilon``, by exhaustive banded DTW."""
    epsilon_pow = epsilon**p
    return sorted(
        Match(distance_pow ** (1.0 / p), sid, start, len(query))
        for distance_pow, sid, start in _scored(
            store, query, rho, p, normalize
        )
        if distance_pow <= epsilon_pow
    )
