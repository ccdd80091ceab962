"""The lower-bound chain of Lemma 1 plus the paper's pruning distances.

For a query envelope ``E(Q)`` and a data (sub)sequence ``S``::

    DTW_rho(Q, S)  >=  LB_Keogh(E(Q), S)  >=  LB_PAA(P(E(Q)), P(S))
                   >=  MINDIST(P(E(Q)), MBR containing P(S))

On top of this chain the paper defines two composite bounds:

* the **MDMWP-distance** (Definition 2, from HLMJ [12]):
  ``(r * LB_PAA(q_m, s_m)^p)^(1/p)`` where ``(q_m, s_m)`` is the
  minimum-distance matching window pair and ``r`` the guaranteed number
  of disjoint windows inside any candidate;
* the **MSEQ-distance** (Definition 6): the p-norm combination of the
  per-priority-queue frontier distances within one equivalence class.

Everything here works in p-th-power space (``*_pow`` functions); rooted
convenience wrappers are provided for the public API.

Every bound has two forms: a scalar one (one candidate at a time, the
historical API) and a ``*_batch`` one that scores a whole block of
candidates per call — the form the engines use to prune candidate
windows and R*-tree entries without per-entry Python overhead.  Both
forms share the same gap construction and the same einsum reduction, so
a scalar call and the matching lane of a batch call are bit-for-bit
identical; ``tests/test_kernel_conformance.py`` enforces this against
the scalar oracles in :mod:`repro.core.reference`.

The PAA-space batch kernels (``LB_PAA``, ``MINDIST``, ``MAXDIST``, their
``*_znorm`` twins, ``batch_lower_bounds*``) also take a ``(W, f)`` stack
of window envelopes and return the ``(W, n)`` grid, element ``[w, b]``
bit for bit the one-window call's element ``b``: an index node scored
against every window of a query in one call.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.envelope import Envelope
from repro.exceptions import QueryError

_INF = math.inf


def _gaps_outside_envelope(
    lower: np.ndarray, upper: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per-element distance from ``values`` to the band ``[lower, upper]``.

    Broadcasts: ``values`` may be one sequence ``(n,)`` or a batch
    ``(B, n)`` against an ``(n,)`` envelope, or laid out by :func:`_cells`.
    """
    above = values - upper
    below = lower - values
    gaps = np.maximum(above, below)
    np.maximum(gaps, 0.0, out=gaps)
    return gaps


def _pow_sum(gaps: np.ndarray, p: float) -> float:
    """``sum(gaps ** p)`` in float64.

    The p == 2 fast path uses the same einsum reduction as
    :func:`_pow_sum_batch` (not BLAS ``dot``, whose summation order can
    differ by an ULP), so scalar and batched bounds stay bit-identical.
    """
    # Exact dispatch on the user-supplied norm order, not a computed float.
    if p == 2.0:
        return float(np.einsum("i,i->", gaps, gaps))
    return float(np.sum(gaps**p))


def _pow_sum_batch(gaps: np.ndarray, p: float) -> np.ndarray:
    """Row-wise ``sum(gaps ** p)`` of a ``(B, f)`` matrix, or of a
    ``(W, B, f)`` grid reduced as one ``(W * B, f)`` matrix."""
    rows = gaps.reshape(-1, gaps.shape[-1])
    # Exact dispatch on the user-supplied norm order, not a computed float.
    if p == 2.0:
        sums = np.einsum("ij,ij->i", rows, rows)
    else:
        sums = np.sum(rows**p, axis=1)
    return sums.reshape(gaps.shape[:-1])


def _cells(
    paa_lower: np.ndarray, paa_upper: np.ndarray, *entries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], Tuple[int, ...]]:
    """Envelope and entries laid out to meet cell by cell, and the cells.

    An ``(f,)`` envelope meets ``(n, f)`` entries as given.  A ``(W, f)``
    stack meets them on a flat ``(W, n * f)`` layout of the ``(W, n, f)``
    cells — envelopes tiled, entries flattened — so elementwise ops run
    along contiguous rows, not ``f``-long broadcast loops.
    """
    lower = np.asarray(paa_lower, dtype=np.float64)
    upper = np.asarray(paa_upper, dtype=np.float64)
    if lower.ndim != 2:
        return lower, upper, list(entries), entries[0].shape
    n, f = entries[0].shape[-2:]
    flat = [values.reshape(values.shape[:-2] + (n * f,)) for values in entries]
    return np.tile(lower, n), np.tile(upper, n), flat, (len(lower), n, f)


def _as_batch(rows: Sequence[Sequence[float]], label: str) -> np.ndarray:
    """Validate and coerce a batch argument to a float64 ``(B, n)`` array."""
    array = np.asarray(rows, dtype=np.float64)
    if array.ndim != 2:
        raise QueryError(f"{label} must be 2-D (batch, length), got shape {array.shape}")
    return array


def _rects(
    rect_lows: Sequence[Sequence[float]], rect_highs: Sequence[Sequence[float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce the two halves of a ``(B, n)`` rectangle batch."""
    lows = _as_batch(rect_lows, "rectangle lows")
    highs = _as_batch(rect_highs, "rectangle highs")
    if lows.shape != highs.shape:
        raise QueryError(
            f"rectangle halves differ in shape: {lows.shape} vs {highs.shape}"
        )
    return lows, highs


def lb_keogh_pow(envelope: Envelope, values: Sequence[float], p: float = 2.0) -> float:
    """``LB_Keogh(E(Q), S) ** p`` — the tight envelope bound of [13]."""
    array = np.asarray(values, dtype=np.float64)
    if array.size != len(envelope):
        raise QueryError(
            f"LB_Keogh needs equal lengths: envelope {len(envelope)}, "
            f"sequence {array.size}"
        )
    gaps = _gaps_outside_envelope(envelope.lower, envelope.upper, array)
    return _pow_sum(gaps, p)


def lb_keogh(envelope: Envelope, values: Sequence[float], p: float = 2.0) -> float:
    """Rooted ``LB_Keogh`` (the paper's Section 2 definition)."""
    return lb_keogh_pow(envelope, values, p) ** (1.0 / p)


def lb_keogh_pow_batch(
    envelope: Envelope, rows: Sequence[Sequence[float]], p: float = 2.0
) -> np.ndarray:
    """``LB_Keogh(E(Q), S_b) ** p`` for a batch of candidate sequences.

    Row ``b`` is bit-for-bit equal to ``lb_keogh_pow(envelope, rows[b],
    p)``.  Accumulates in float64 regardless of the input dtype.
    """
    array = _as_batch(rows, "candidate batch")
    if array.shape[1] != len(envelope):
        raise QueryError(
            f"LB_Keogh needs equal lengths: envelope {len(envelope)}, "
            f"batch rows {array.shape[1]}"
        )
    gaps = _gaps_outside_envelope(envelope.lower, envelope.upper, array)
    return _pow_sum_batch(gaps, p)


def lb_paa_pow(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    paa_values: np.ndarray,
    seg_len: int,
    p: float = 2.0,
) -> float:
    """``LB_PAA(P(E(Q)), P(S)) ** p`` (Zhu & Shasha [24]).

    Each PAA dimension summarises ``seg_len`` raw values; the power-mean
    inequality gives ``seg_len * |mean gap|^p <= sum |gap_i|^p`` per
    segment, hence the ``seg_len`` scaling keeps the bound below
    ``LB_Keogh ** p``.
    """
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    gaps = _gaps_outside_envelope(paa_lower, paa_upper, paa_values)
    return seg_len * _pow_sum(gaps, p)


def lb_paa(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    paa_values: np.ndarray,
    seg_len: int,
    p: float = 2.0,
) -> float:
    """Rooted ``LB_PAA``."""
    return lb_paa_pow(paa_lower, paa_upper, paa_values, seg_len, p) ** (1.0 / p)


def mindist_pow(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_low: np.ndarray,
    rect_high: np.ndarray,
    seg_len: int,
    p: float = 2.0,
) -> float:
    """``MINDIST(P(E(q)), MBR) ** p`` — Definition 6's MBR case.

    Per dimension this is the gap between the envelope interval
    ``[L_j, U_j]`` and the MBR interval ``[lo_j, hi_j]`` (zero when they
    overlap); it lower-bounds ``lb_paa_pow`` for every point inside the
    MBR, which makes best-first R*-tree descent admissible.
    """
    gap_above = rect_low - paa_upper  # MBR entirely above the envelope
    gap_below = paa_lower - rect_high  # MBR entirely below the envelope
    gaps = np.maximum(gap_above, gap_below)
    np.maximum(gaps, 0.0, out=gaps)
    return seg_len * _pow_sum(gaps, p)


def maxdist_pow(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_low: np.ndarray,
    rect_high: np.ndarray,
    seg_len: int,
    p: float = 2.0,
) -> float:
    """``MAXDIST(P(E(q)), MBR) ** p`` — upper bound over points in the MBR.

    The per-dimension gap to the envelope band is convex in the point
    coordinate, so its maximum over ``[lo_j, hi_j]`` is attained at an
    endpoint.  RU-COST's pivot selection (Section 4) uses
    ``[MINDIST, MAXDIST]`` ranges to approximate leaf-entry densities
    without expanding nodes.
    """
    gaps_at_low = _gaps_outside_envelope(paa_lower, paa_upper, rect_low)
    gaps_at_high = _gaps_outside_envelope(paa_lower, paa_upper, rect_high)
    gaps = np.maximum(gaps_at_low, gaps_at_high)
    return seg_len * _pow_sum(gaps, p)


def lb_paa_pow_batch(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    paa_rows: Sequence[Sequence[float]],
    seg_len: int,
    p: float = 2.0,
) -> np.ndarray:
    """``LB_PAA(P(E(Q)), P(S_b)) ** p`` for a batch of PAA points.

    Row ``b`` is bit-for-bit equal to ``lb_paa_pow(paa_lower, paa_upper,
    paa_rows[b], seg_len, p)``; a ``(W, f)`` envelope stack gives ``(W, n)``.
    """
    array = _as_batch(paa_rows, "PAA batch")
    return _paa_gap_pow(paa_lower, paa_upper, array, seg_len, p)


def _paa_gap_pow(
    paa_lower: np.ndarray, paa_upper: np.ndarray, points: np.ndarray,
    seg_len: int, p: float,
) -> np.ndarray:
    """``seg_len * sum(gap ** p)`` of ``(n, f)`` or ``(W, n, f)`` points."""
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    lower, upper, (values,), cells = _cells(paa_lower, paa_upper, points)
    gaps = _gaps_outside_envelope(lower, upper, values)
    return seg_len * _pow_sum_batch(gaps.reshape(cells), p)


def mindist_pow_batch(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_lows: Sequence[Sequence[float]],
    rect_highs: Sequence[Sequence[float]],
    seg_len: int,
    p: float = 2.0,
) -> np.ndarray:
    """``MINDIST(P(E(q)), MBR_b) ** p`` for a batch of rectangles.

    Row ``b`` is bit-for-bit equal to ``mindist_pow(...)`` on rectangle
    ``b``.  A *degenerate* rectangle (``low == high``, i.e. a leaf
    entry's PAA point) makes this identical — same subtractions, same
    reduction — to ``lb_paa_pow`` of that point, which is how
    :func:`batch_lower_bounds` scores mixed leaf/internal entry blocks
    with one kernel.  A ``(W, f)`` envelope stack returns ``(W, n)``.
    """
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    lows, highs = _rects(rect_lows, rect_highs)
    lower, upper, (lows, highs), cells = _cells(
        paa_lower, paa_upper, lows, highs
    )
    gap_above = lows - upper
    gap_below = lower - highs
    gaps = np.maximum(gap_above, gap_below)
    np.maximum(gaps, 0.0, out=gaps)
    return seg_len * _pow_sum_batch(gaps.reshape(cells), p)


def maxdist_pow_batch(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_lows: Sequence[Sequence[float]],
    rect_highs: Sequence[Sequence[float]],
    seg_len: int,
    p: float = 2.0,
) -> np.ndarray:
    """``MAXDIST(P(E(q)), MBR_b) ** p`` for a batch of rectangles.

    Row ``b`` is bit-for-bit equal to ``maxdist_pow(...)`` on rectangle
    ``b``; on a degenerate rectangle it equals the point's
    envelope-gap distance, i.e. ``lb_paa_pow`` of the point.  A
    ``(W, f)`` envelope stack returns ``(W, n)``.
    """
    if seg_len < 1:
        raise QueryError(f"seg_len must be >= 1, got {seg_len}")
    lows, highs = _rects(rect_lows, rect_highs)
    lower, upper, (lows, highs), cells = _cells(
        paa_lower, paa_upper, lows, highs
    )
    gaps_at_low = _gaps_outside_envelope(lower, upper, lows)
    gaps_at_high = _gaps_outside_envelope(lower, upper, highs)
    gaps = np.maximum(gaps_at_low, gaps_at_high)
    return seg_len * _pow_sum_batch(gaps.reshape(cells), p)


def mdmwp_pow_batch(min_pair_pows: Sequence[float], r: int) -> np.ndarray:
    """``MDMWP-distance ** p`` (Definition 2) for a batch of window pairs."""
    if r < 1:
        raise QueryError(f"MDMWP window count r must be >= 1, got {r}")
    return r * np.asarray(min_pair_pows, dtype=np.float64)


def batch_lower_bounds(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_lows: Sequence[Sequence[float]],
    rect_highs: Sequence[Sequence[float]],
    seg_len: int,
    p: float = 2.0,
    include_far: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Score a block of R*-tree entries against query-window envelopes.

    The engines' batched pruning entry point: given the PAA envelope of
    a query window — or a ``(W, f)`` stack of them, giving ``(W, n)``
    grids — and the stacked rectangles of a node's entries
    (leaf entries contribute their PAA point as a degenerate ``low ==
    high`` rectangle), returns the per-entry *near* bound (``MINDIST **
    p``, which for leaf points equals ``LB_PAA ** p`` bit for bit) and,
    when ``include_far`` is set, the *far* bound (``MAXDIST ** p``) used
    by cost-aware queue ordering.

    Both vectors line up index-for-index with the input rectangles, so
    callers can keep their existing per-entry push order and tie-break
    counters while paying one kernel call per node instead of one
    Python-level bound per entry.
    """
    near = mindist_pow_batch(
        paa_lower, paa_upper, rect_lows, rect_highs, seg_len, p
    )
    far: Optional[np.ndarray] = None
    if include_far:
        far = maxdist_pow_batch(
            paa_lower, paa_upper, rect_lows, rect_highs, seg_len, p
        )
    return near, far


# ---------------------------------------------------------------------------
# Z-normalized bounds (ROADMAP item 3; KV-match / UCR-suite style matching).
#
# Under `normalize=True` a candidate S with per-window stats (mu, sigma) is
# matched as (S - mu) / sigma against a z-normalized query.  The leaf-level
# bounds below transform the candidate exactly (same arithmetic as the
# verification path, so LB_Keogh stays float-sound against the normalized
# DTW); the PAA and MBR forms exploit that PAA is affine-equivariant
# (PAA((x - mu) / sigma) == (PAA(x) - mu) / sigma in real arithmetic) and
# carry a one-part-in-1e9 deflation that absorbs the float rounding of the
# affine transform, keeping the Lemma 1 chain sound in float space:
#
#   DTW_znorm >= LB_Keogh_znorm >= LB_PAA_znorm >= MINDIST_znorm
#
# Internal R*-tree nodes aggregate candidates with *different* stats, so
# their rectangles are transformed under the global [mu_lo, mu_hi] x
# [sigma_lo, sigma_hi] box of the store: per dimension the transform
# t(x) = (x - mu) / sigma is monotone in x and attains its extremes over
# the (mu, sigma) box at the box corners, so the 4-corner hull encloses
# every per-candidate transformed rectangle and MINDIST over it
# lower-bounds every candidate the subtree can contain.
# ---------------------------------------------------------------------------

#: Relative margins absorbing float rounding of the affine PAA / corner
#: transforms.  Deflation keeps lower bounds sound (never above the true
#: quantity); inflation keeps the MAXDIST upper bound sound.
_ZNORM_DEFLATE = 1.0 - 1e-9
_ZNORM_INFLATE = 1.0 + 1e-9


def _validate_stat_ranges(
    mu_range: Tuple[float, float], sigma_range: Tuple[float, float]
) -> Tuple[float, float, float, float]:
    """Unpack and sanity-check the global ``(mu, sigma)`` box."""
    mu_lo, mu_hi = float(mu_range[0]), float(mu_range[1])
    sigma_lo, sigma_hi = float(sigma_range[0]), float(sigma_range[1])
    if mu_hi < mu_lo:
        raise QueryError(f"mu_range is inverted: ({mu_lo}, {mu_hi})")
    if not sigma_lo > 0.0 or sigma_hi < sigma_lo:
        raise QueryError(
            f"sigma_range must be positive and ordered, got "
            f"({sigma_lo}, {sigma_hi})"
        )
    return mu_lo, mu_hi, sigma_lo, sigma_hi


def _znorm_rect_hull(
    lows: np.ndarray,
    highs: np.ndarray,
    mu_range: Tuple[float, float],
    sigma_range: Tuple[float, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Hull of ``(rect - mu) / sigma`` over the ``(mu, sigma)`` box."""
    mu_lo, mu_hi, sigma_lo, sigma_hi = _validate_stat_ranges(
        mu_range, sigma_range
    )
    corners = [
        (mu_lo, sigma_lo),
        (mu_lo, sigma_hi),
        (mu_hi, sigma_lo),
        (mu_hi, sigma_hi),
    ]
    hull_low = np.minimum.reduce([(lows - mu) / sig for mu, sig in corners])
    hull_high = np.maximum.reduce([(highs - mu) / sig for mu, sig in corners])
    return hull_low, hull_high


def lb_keogh_znorm_pow(
    envelope: Envelope,
    values: Sequence[float],
    mu: float,
    sigma: float,
    p: float = 2.0,
) -> float:
    """``LB_Keogh(E(Q_hat), (S - mu) / sigma) ** p``.

    ``envelope`` is the envelope of the *z-normalized* query; the
    candidate is transformed with exactly the arithmetic of
    :func:`repro.core.normalize.znormalize`, so this bound relates to
    the normalized-space DTW precisely as the raw ``lb_keogh_pow``
    relates to raw DTW — no margin needed.
    """
    if not sigma > 0.0:
        raise QueryError(f"sigma must be positive, got {sigma}")
    array = (np.asarray(values, dtype=np.float64) - mu) / sigma
    return lb_keogh_pow(envelope, array, p)


def lb_paa_znorm_pow_batch(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    paa_rows: Sequence[Sequence[float]],
    mus: np.ndarray,
    sigmas: np.ndarray,
    seg_len: int,
    p: float = 2.0,
) -> np.ndarray:
    """``LB_PAA`` of per-candidate z-normalized PAA points, deflated.

    Row ``b``'s stored raw PAA point is mapped through that candidate's
    own ``(mu_b, sigma_b)`` — exact by PAA affine-equivariance up to
    float rounding, which the deflation absorbs — then scored against
    the normalized query's PAA envelope.

    Against a ``(W, f)`` envelope stack the stats are ``(W, n)``: cell
    ``[w, b]`` transforms point ``b`` by ``(mus[w, b], sigmas[w, b])``.
    """
    array = _as_batch(paa_rows, "PAA batch")
    mus64 = np.asarray(mus, dtype=np.float64)
    sigmas64 = np.asarray(sigmas, dtype=np.float64)
    shape = np.shape(paa_lower)[:-1] + (array.shape[0],)
    if mus64.shape != shape or sigmas64.shape != shape:
        raise QueryError(
            f"per-row stats must have shape {shape}, got "
            f"{mus64.shape} and {sigmas64.shape}"
        )
    if not bool(np.all(sigmas64 > 0.0)):
        raise QueryError("sigmas must all be positive")
    norm_rows = (array - mus64[..., None]) / sigmas64[..., None]
    return _ZNORM_DEFLATE * _paa_gap_pow(
        paa_lower, paa_upper, norm_rows, seg_len, p
    )


def mindist_znorm_pow_batch(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_lows: Sequence[Sequence[float]],
    rect_highs: Sequence[Sequence[float]],
    mu_range: Tuple[float, float],
    sigma_range: Tuple[float, float],
    seg_len: int,
    p: float = 2.0,
) -> np.ndarray:
    """``MINDIST`` of raw MBRs seen through the global stats box.

    Each rectangle is enlarged to the corner hull of its image under
    every ``(mu, sigma)`` in the box, then scored with the standard
    MINDIST and deflated.  Enlarging the rectangle can only shrink
    MINDIST, so the result lower-bounds ``lb_paa_znorm_pow_batch`` of
    every candidate inside the subtree whose stats lie in the box.
    """
    lows, highs = _rects(rect_lows, rect_highs)
    hull_low, hull_high = _znorm_rect_hull(lows, highs, mu_range, sigma_range)
    return _ZNORM_DEFLATE * mindist_pow_batch(
        paa_lower, paa_upper, hull_low, hull_high, seg_len, p
    )


def maxdist_znorm_pow_batch(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_lows: Sequence[Sequence[float]],
    rect_highs: Sequence[Sequence[float]],
    mu_range: Tuple[float, float],
    sigma_range: Tuple[float, float],
    seg_len: int,
    p: float = 2.0,
) -> np.ndarray:
    """``MAXDIST`` over the same corner hull, inflated.

    Enlarging the rectangle can only grow MAXDIST, so this stays an
    upper bound on every in-box candidate's normalized ``LB_PAA``; it
    only feeds RU-COST's density ordering, never pruning.
    """
    lows, highs = _rects(rect_lows, rect_highs)
    hull_low, hull_high = _znorm_rect_hull(lows, highs, mu_range, sigma_range)
    return _ZNORM_INFLATE * maxdist_pow_batch(
        paa_lower, paa_upper, hull_low, hull_high, seg_len, p
    )


def batch_lower_bounds_znorm(
    paa_lower: np.ndarray,
    paa_upper: np.ndarray,
    rect_lows: Sequence[Sequence[float]],
    rect_highs: Sequence[Sequence[float]],
    mu_range: Tuple[float, float],
    sigma_range: Tuple[float, float],
    seg_len: int,
    p: float = 2.0,
    include_far: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Normalized analogue of :func:`batch_lower_bounds` for node blocks."""
    near = mindist_znorm_pow_batch(
        paa_lower,
        paa_upper,
        rect_lows,
        rect_highs,
        mu_range,
        sigma_range,
        seg_len,
        p,
    )
    far: Optional[np.ndarray] = None
    if include_far:
        far = maxdist_znorm_pow_batch(
            paa_lower,
            paa_upper,
            rect_lows,
            rect_highs,
            mu_range,
            sigma_range,
            seg_len,
            p,
        )
    return near, far


def mdmwp_pow(min_pair_pow: float, r: int) -> float:
    """``MDMWP-distance ** p`` (Definition 2): ``r * d(q_m, s_m)^p``.

    ``min_pair_pow`` is the p-th power of the minimum matching-window-pair
    distance; ``r`` is the guaranteed number of complete disjoint windows
    in any candidate, ``floor((Len(Q) + 1) / omega) - 1``.
    """
    if r < 1:
        raise QueryError(f"MDMWP window count r must be >= 1, got {r}")
    return r * min_pair_pow


def min_disjoint_windows(
    query_length: int, omega: int, data_stride: Optional[int] = None
) -> int:
    """Definition 2's ``r``, generalized to a data-window stride ``J``.

    The minimum number of *class* windows (disjoint, length ``omega``,
    pairwise ``omega`` apart) contained in any data subsequence of
    length ``Len(Q)``, regardless of alignment.  The worst alignment
    leaves ``J - 1`` samples before the first grid window, giving
    ``floor((Len(Q) - omega - J + 1) / omega) + 1``; with ``J == omega``
    (DualMatch) this is the paper's ``floor((Len(Q) + 1) / omega) - 1``.
    """
    if omega < 1:
        raise QueryError(f"omega must be >= 1, got {omega}")
    stride = omega if data_stride is None else data_stride
    if stride < 1:
        raise QueryError(f"data_stride must be >= 1, got {stride}")
    return (query_length - omega - stride + 1) // omega + 1


def mseq_distance_pow(frontier_pows: Iterable[float]) -> float:
    """``MSEQ-distance ** p`` (Definition 6).

    ``frontier_pows`` holds, for every priority queue of one equivalence
    class, the p-th power of the relevant term: the popped pair's own
    bound for the queue being consumed, and the current top-entry
    distances for the sibling queues.  The combination is a plain sum in
    power space.
    """
    total = 0.0
    for value in frontier_pows:
        if math.isinf(value):
            return _INF
        total += value
    return total


def root(value_pow: float, p: float = 2.0) -> float:
    """Convert a p-th-power distance back to distance space."""
    if math.isinf(value_pow):
        return _INF
    if value_pow < 0.0:
        # Guard against tiny negative values from float cancellation.
        value_pow = 0.0
    return value_pow ** (1.0 / p)
