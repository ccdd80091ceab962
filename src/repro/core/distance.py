"""Dynamic time warping under the Sakoe–Chiba band (Eq. 1 of the paper).

All internal comparisons in the library happen in *p-th-power space*
(:func:`dtw_pow`, and the ``*_pow`` lower bounds), because the pruning
logic constantly sums window-level distances; taking roots only at the API
boundary keeps the lower-bound chain exact and avoids needless ``pow``
round trips.  :func:`dtw_distance` is the user-facing rooted form.

Two kernels implement the same recurrence:

* a scalar row-by-row DP over Python floats, fastest for a single pair
  under a narrow band (it pays per cell, and abandons per row);
* a **band-layout anti-diagonal (wavefront) kernel**,
  :func:`dtw_pow_batch`, which runs a *batch* of candidates ("lanes")
  against one query.  Cells on one anti-diagonal ``i + j = d`` have no
  mutual dependencies, and inside the Sakoe–Chiba band a diagonal has at
  most ``rho + 1`` of them, all with band offset ``k = j - i`` of the
  parity of ``d``.  State is therefore kept *slot-major*: one
  ``(slots, lanes)`` array per parity of ``k``, ``rho + 2`` rows at
  most, every row contiguous along the lanes.  Diagonal ``d`` updates
  the array of its own parity in place — the ``(i-1, j-1)`` neighbour is
  the slot being overwritten, ``(i-1, j)`` and ``(i, j-1)`` are the
  other array shifted by one slot — in three ``out=`` ufunc calls
  (``min``, ``min``, ``add``) whatever the band or the batch.  Cell
  costs are gathered :data:`_DIAGONAL_BLOCK` diagonals at a time into
  one reused buffer by two strided subtractions over sliding windows of
  the (transposed, zero-padded) data and query.  No slot is wasted on a
  cell outside the band, and nothing of size ``n x band x lanes`` is
  ever materialised.

  Cells outside the *matrix* need no masking.  Those before it
  (``i < 0`` or ``j < 0``) can only be reached from other such cells,
  all ``inf`` from initialisation (the virtual ``(-1, -1) = 0`` feeds
  ``(0, 0)`` alone), so they stay ``inf`` whatever finite cost the zero
  padding gives them.  Those past it (``i >= n`` or ``j >= m``) may hold
  finite values, but dependencies only point toward smaller ``i`` and
  ``j``, so no in-matrix cell — and hence not the result — ever reads
  one.

:func:`dtw_pow` dispatches a single pair on the band width
(:data:`_WAVEFRONT_MIN_BAND`): the wavefront with one lane above it, the
scalar loop below.

Both kernels evaluate each DP cell with the identical float64 operations
(``cost + min(three neighbours)``; ``min`` is exact and ``+`` commutes),
so for the default ``p == 2`` norm (cost is ``gap * gap``) their outputs
are bit-for-bit equal.  For other ``p`` the per-cell cost goes through
``pow``, where NumPy's vectorized implementation may differ from libm by
1 ULP, so kernels agree to within 1e-9 relative instead;
``tests/test_kernel_conformance.py`` enforces both contracts against the
scalar oracle in :mod:`repro.core.reference`.

The implementation supports *early abandoning*: once no warping path can
finish below a caller-supplied threshold, the computation stops and
returns ``inf``.  The scalar kernel abandons when every cell of a DP row
exceeds the threshold; the wavefront kernel abandons a batch lane when
every cell of two *consecutive* anti-diagonals exceeds it (every
monotone path crosses at least one of any two consecutive
anti-diagonals, so both rules are sound).  Costs are non-negative, so
once two consecutive diagonals exceed the threshold every later one
does: the wavefront checks once per cost block and misses nothing but
the rest of that block.  Past-the-matrix cells take part in the check;
they can only delay an abandon, never cause one.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import QueryError

_INF = math.inf

#: Minimum Sakoe–Chiba band width (in DP cells per row) before one lane
#: of the wavefront kernel beats the scalar loop for a single pair.  The
#: wavefront pays three NumPy calls per anti-diagonal whatever the band;
#: the scalar loop pays per cell.  Measured at Len(Q) = 256 the two
#: cross at a band of 12 (1.6x for the wavefront at the paper's
#: rho = 5 %, band 25); shorter queries cross later, hence the margin.
#: Both kernels are bit-for-bit identical (p = 2), so the dispatch
#: affects speed only.
_WAVEFRONT_MIN_BAND = 16

#: Anti-diagonals whose cell costs the wavefront kernel gathers at a
#: time (even, so a block always starts on an even diagonal).  Bounds
#: the cost buffer to ``block x band x lanes`` floats and sets how often
#: abandoning is checked.
_DIAGONAL_BLOCK = 32


def _as_list(values: Sequence[float]) -> list:
    """Plain-float list view; scalar Python arithmetic beats numpy here.

    ``tolist()`` / ``float()`` upcast exactly, so float32 (or integer)
    inputs accumulate in float64 like everything else.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return values.tolist()
        return [float(v) for v in values.tolist()]
    return [float(v) for v in values]


def _reject_nan(array: np.ndarray, label: str) -> None:
    """NaN poisons every DP comparison silently; fail loudly instead."""
    if np.isnan(array).any():
        raise QueryError(f"{label} contains NaN")


def lp_distance(a: Sequence[float], b: Sequence[float], p: float = 2.0) -> float:
    """The L_p distance between equal-length sequences.

    ``DTW_rho`` degenerates to this when ``rho == 0``.
    """
    array_a = np.asarray(a, dtype=np.float64)
    array_b = np.asarray(b, dtype=np.float64)
    if array_a.shape != array_b.shape:
        raise QueryError(
            f"L_p distance needs equal lengths, got {array_a.shape} vs "
            f"{array_b.shape}"
        )
    gaps = np.abs(array_a - array_b)
    # Exact dispatch on the user-supplied norm order, not a computed float.
    if p == 2.0:
        return float(math.sqrt(float(np.dot(gaps, gaps))))
    return float(np.sum(gaps**p) ** (1.0 / p))


def _dtw_pow_scalar(
    ss: list,
    qs: list,
    rho: int,
    p: float,
    threshold_pow: float,
) -> float:
    """Row-by-row banded DP over plain Python floats (float64)."""
    n = len(qs)
    m = len(ss)
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


def dtw_pow_batch(
    batch: Sequence[Sequence[float]],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> np.ndarray:
    """``DTW_rho(S_b, Q) ** p`` for a batch of equal-length candidates.

    The band-layout wavefront kernel (see the module docstring): three
    in-place ufunc calls per anti-diagonal over slot-major
    ``(rho + 2, lanes)`` state, cell costs gathered a block of
    diagonals at a time.  Costs accumulate in float64 regardless of the
    input dtype.

    Parameters
    ----------
    batch:
        2-D array-like, one candidate sequence per row (all length
        ``m``).
    q, rho, p:
        As in :func:`dtw_pow`.
    threshold_pow:
        Early-abandon threshold in p-th-power space, shared by all
        lanes.  A lane is abandoned (its result becomes ``inf``) once
        every cell of two consecutive anti-diagonals exceeds it; the
        call returns early when every lane is.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(batch),)`` float64 vector of p-th-power DTW
        distances; ``inf`` marks abandoned lanes and band-infeasible
        problems.
    """
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    rows = np.ascontiguousarray(batch, dtype=np.float64)
    if rows.ndim != 2:
        raise QueryError(
            f"batch must be 2-D (candidates, length), got shape {rows.shape}"
        )
    qa = np.ascontiguousarray(q, dtype=np.float64)
    if qa.ndim != 1:
        raise QueryError(f"query must be 1-D, got shape {qa.shape}")
    lanes, m = rows.shape
    n = int(qa.size)
    if lanes == 0:
        return np.empty(0, dtype=np.float64)
    _reject_nan(rows, "batch")
    _reject_nan(qa, "query")
    if n == 0 and m == 0:
        return np.zeros(lanes, dtype=np.float64)
    if n == 0 or m == 0 or abs(n - m) > rho:
        return np.full(lanes, _INF, dtype=np.float64)

    # Exact dispatch on the user-supplied norm order, not a computed float.
    squared = p == 2.0
    limited = not math.isinf(threshold_pow)

    # A band wider than the matrix constrains nothing more.
    rho = min(rho, max(n, m) - 1)
    width = rho + 1

    # Zero-padded, lane-contiguous copies: data as (m + pads, lanes),
    # the query as a column.  Window ``c`` of either is the ``width``
    # consecutive samples one anti-diagonal needs, so a run of
    # same-parity diagonals is a *slice* of windows.  A pad sample
    # gives an out-of-matrix cell a finite cost; that is harmless (see
    # the module docstring) and keeps NaN out of the arithmetic.
    data = np.zeros((m + 2 * width, lanes), dtype=np.float64)
    data[width : width + m] = rows.T
    query = np.zeros(n + 2 * width, dtype=np.float64)
    query[width : width + n] = qa
    data_windows = sliding_window_view(data, width, axis=0).transpose(0, 2, 1)
    query_windows = sliding_window_view(query, width)[:, ::-1, None]

    # Slot-major state, one row per band offset k = j - i, split by the
    # parity of k: ``wide`` holds the rho + 1 offsets of rho's parity
    # (slot a is k = 2a - rho), ``narrow`` the rho others between two
    # permanent +inf pads (slot b is k = 2b - rho - 1).  Diagonal d
    # touches only offsets of its own parity, its (i-1, j) / (i, j-1)
    # neighbours are the other array shifted by one slot, and (i-1, j-1)
    # is the slot being overwritten.
    state = np.full((width + rho + 2, lanes), _INF, dtype=np.float64)
    wide, narrow = state[:width], state[width:]
    # The virtual cell (-1, -1) = 0 seeds the corner (0, 0).
    state[rho // 2 if rho % 2 == 0 else width + width // 2] = 0.0
    costs = np.empty((_DIAGONAL_BLOCK, width, lanes), dtype=np.float64)
    # Blocks start on even diagonals, so position t of every block has
    # the same parity and its operand views are built once:
    # (neighbour slots below, above, the slots updated, their costs).
    turn = rho % 2  # block position of the first ``wide`` diagonal
    steps: list = [None] * _DIAGONAL_BLOCK
    steps[turn::2] = [
        (narrow[:-1], narrow[1:], wide, cost) for cost in costs[turn::2]
    ]
    steps[1 - turn :: 2] = [
        (wide[:-1], wide[1:], narrow[1:-1], cost)
        for cost in costs[1 - turn :: 2, :rho]
    ]
    minimum, add = np.minimum, np.add
    total = n + m - 1
    stuck: Optional[np.ndarray] = None
    for first in range(0, total, _DIAGONAL_BLOCK):
        count = min(_DIAGONAL_BLOCK, total - first)
        live = costs[:count]
        for parity in (0, 1):
            # Diagonals first + parity, + 2, ...  Slot a of diagonal d
            # is the cell (i, j) = (c - odd + rho - a, c + a) with
            # c = ceil((d - rho) / 2), shifted by the padding: consecutive
            # same-parity diagonals read consecutive windows, so the run
            # is one subtraction.
            d = first + parity
            odd = (d - rho) & 1
            c = ((d - rho + odd) >> 1) + width
            runs = (count - parity + 1) // 2
            np.subtract(
                data_windows[c : c + runs],
                query_windows[c - odd : c - odd + runs],
                out=live[parity::2],
            )
        np.abs(live, out=live)
        if squared:
            np.multiply(live, live, out=live)
        else:
            np.power(live, p, out=live)
        for low, high, cell, cost in steps[:count]:
            minimum(low, cell, out=cell)
            minimum(high, cell, out=cell)
            add(cell, cost, out=cell)
        if limited:
            # ``state`` holds exactly the last two anti-diagonals.  Every
            # complete warping path crosses one of them, and once both
            # exceed the threshold every later diagonal does too, so a
            # check per block loses nothing but the rest of the block.
            stuck = state.min(axis=0) > threshold_pow
            if bool(stuck.all()):
                return np.full(lanes, _INF, dtype=np.float64)
    # The goal cell (n-1, m-1) has offset m - n on the last diagonal.
    goal = m - n + rho
    result = (wide[goal // 2] if goal % 2 == 0 else narrow[(goal + 1) // 2]).copy()
    if stuck is not None:
        result[stuck] = _INF
    return result


def dtw_pow_wavefront(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> float:
    """Single-pair wavefront DTW (the batch kernel with one lane)."""
    array = np.asarray(s, dtype=np.float64)
    if array.ndim != 1:
        raise QueryError(f"sequence must be 1-D, got shape {array.shape}")
    return float(
        dtw_pow_batch(
            array.reshape(1, -1), q, rho, p=p, threshold_pow=threshold_pow
        )[0]
    )


def dtw_pow(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> float:
    """``DTW_rho(S, Q) ** p`` with band constraint and early abandoning.

    Parameters
    ----------
    s, q:
        Data and query sequences.  The paper defines DTW for equal
        lengths; unequal lengths are accepted when the band still permits
        a complete path (``|len(s) - len(q)| <= rho``).  NaN values are
        rejected with :class:`~repro.exceptions.QueryError`.
    rho:
        Sakoe–Chiba warping width: matrix entry ``(i, j)`` is infinite
        when ``|i - j| > rho``.
    p:
        Norm order (the paper's ``p``; 2 by default).
    threshold_pow:
        Early-abandon threshold *in p-th-power space*.  When no path can
        finish at or below it, ``inf`` is returned immediately.

    Returns
    -------
    float
        The p-th power of the constrained DTW distance, or ``inf`` when
        abandoned / no path exists.

    Notes
    -----
    Dispatches between the scalar and wavefront kernels on the band
    width (:data:`_WAVEFRONT_MIN_BAND`); both produce bit-identical
    values, so the dispatch is purely a speed decision.
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

    band = min(2 * rho + 1, m)
    if band >= _WAVEFRONT_MIN_BAND:
        return dtw_pow_wavefront(s, q, rho, p=p, threshold_pow=threshold_pow)

    qs = _as_list(q)
    ss = _as_list(s)
    for value in qs:
        if value != value:
            raise QueryError("query contains NaN")
    for value in ss:
        if value != value:
            raise QueryError("sequence contains NaN")
    return _dtw_pow_scalar(ss, qs, rho, p, threshold_pow)


def dtw_distance(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold: Optional[float] = None,
) -> float:
    """The constrained DTW distance ``DTW_rho(S, Q)`` (rooted form).

    Parameters mirror :func:`dtw_pow`; ``threshold`` (if given) is in
    distance space and enables early abandoning.

    >>> dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], rho=1)
    0.0
    """
    threshold_pow = _INF if threshold is None else threshold**p
    value = dtw_pow(s, q, rho, p=p, threshold_pow=threshold_pow)
    if math.isinf(value):
        return _INF
    return value ** (1.0 / p)
