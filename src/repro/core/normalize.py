"""Online z-normalization for amplitude/offset-invariant matching.

Raw DTW distinguishes two occurrences of the same *shape* at different
offsets or amplitudes — exactly what stock-pattern and query-by-humming
workloads must not do.  The classical remedy (UCR suite, KV-match) is
to z-normalize every candidate window to zero mean and unit variance
and match in normalized space.  Doing that naively costs two passes
over every candidate; this module provides the **online** (rolling
cumulative-sum) kernel that prices the per-window mean and standard
deviation of *every* sliding position in one pass over the sequence.

Three layers:

* :func:`rolling_stats` — the kernel: per-window ``(mu, sigma)`` for
  all starts of one sequence, O(n) via shifted cumulative sums.  The
  naive two-pass scalar oracle lives in
  :func:`repro.core.reference.reference_rolling_stats`;
  ``tests/test_property_normalize.py`` holds them to <= 1e-9 agreement.
* :func:`znormalize` — apply ``(x - mu) / sigma`` (computing
  whole-array stats through the same kernel when none are given, so
  query and candidate normalization share one arithmetic).
* :class:`NormalizationContext` — the engine-facing plane:
  per-sequence precomputed stats vectors, scalar and batched lookup
  keyed by ``(sid, start)``, the ``(windows, records)`` lookup that
  transforms an index leaf's PAA points under every query window, and
  the global ``(mu, sigma)`` ranges that make R*-tree MBR bounds sound
  under per-candidate normalization.

Numerical contract
------------------
Every consumer of a candidate's stats — leaf lower bounds, LB_Keogh
verification, and the final DTW — reads the *same* precomputed vectors,
so there is no rolling-vs-direct drift inside one query: the lower
bound chain is evaluated and verified under identical ``(mu, sigma)``.
Windows with ``sigma <= SIGMA_FLOOR`` are treated as constant and
normalized with ``sigma = 1`` (the UCR-suite convention), which keeps
the transform defined and the bounds finite.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import QueryError
from repro.storage.sequences import SequenceStore

#: Below this a window's standard deviation is considered zero and the
#: window is normalized as a constant (``sigma_eff = 1``).  Mirrored by
#: the scalar oracle in :mod:`repro.core.reference`.
SIGMA_FLOOR = 1e-10


def rolling_stats(
    values: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-window ``(mu, sigma_eff)`` for every start of one sequence.

    Returns two float64 arrays of length ``size - window + 1`` (empty
    when the sequence is shorter than the window).  ``sigma_eff`` is the
    population standard deviation, floored to ``1.0`` for windows whose
    deviation falls at or below :data:`SIGMA_FLOOR`.

    The kernel subtracts the sequence's global mean before building the
    cumulative sums (a standard conditioning shift): the variance
    cancellation ``E[x^2] - E[x]^2`` then works on values centred near
    zero, so constant or near-constant windows inside a large-magnitude
    sequence do not manufacture spurious deviation.  Accumulation is
    float64 regardless of the input dtype.
    """
    if window < 1:
        raise QueryError(f"window must be >= 1, got {window}")
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise QueryError(f"values must be 1-D, got shape {x.shape}")
    count = int(x.size) - window + 1
    if count <= 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    shift = float(x.mean())
    centred = x - shift
    csum = np.concatenate(([0.0], np.cumsum(centred)))
    csum2 = np.concatenate(([0.0], np.cumsum(centred * centred)))
    mean_centred = (csum[window:] - csum[:count]) / window
    mean_sq = (csum2[window:] - csum2[:count]) / window
    var = mean_sq - mean_centred * mean_centred
    np.maximum(var, 0.0, out=var)
    sigma = np.sqrt(var)
    mu = shift + mean_centred
    sigma_eff = np.where(sigma > SIGMA_FLOOR, sigma, 1.0)
    return mu, sigma_eff


def znormalize(
    values: np.ndarray,
    mu: Optional[float] = None,
    sigma: Optional[float] = None,
) -> np.ndarray:
    """``(values - mu) / sigma`` in float64.

    With no stats given, the whole array's ``(mu, sigma_eff)`` are
    computed through :func:`rolling_stats` (window = full length), so a
    z-normalized query and a z-normalized candidate go through the same
    arithmetic.  Constant inputs normalize to all zeros.
    """
    x = np.asarray(values, dtype=np.float64)
    if mu is None or sigma is None:
        if x.size == 0:
            raise QueryError("cannot z-normalize an empty sequence")
        mus, sigmas = rolling_stats(x, int(x.size))
        mu = float(mus[0])
        sigma = float(sigmas[0])
    if not sigma > 0.0:
        raise QueryError(f"sigma must be positive, got {sigma}")
    return (x - mu) / sigma


class NormalizationContext:
    """Per-query candidate statistics for one database.

    Built once per normalized query (one pass over the store, same
    asymptotics as SeqScan's read phase but with no page I/O — it uses
    the zero-I/O peek path, so NUM_IO accounting only ever charges for
    pages an engine actually fetches).  Every lookup indexes the
    precomputed per-sequence vectors, which guarantees scalar and
    batched reads of the same ``(sid, start)`` return identical floats.
    """

    def __init__(self, store: SequenceStore, query_length: int) -> None:
        if query_length < 1:
            raise QueryError(
                f"query_length must be >= 1, got {query_length}"
            )
        self.query_length = query_length
        self._stats: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        mu_lo = np.inf
        mu_hi = -np.inf
        sigma_lo = np.inf
        sigma_hi = -np.inf
        for sid, values in store.iter_sequences():
            mus, sigmas = rolling_stats(values, query_length)
            self._stats[sid] = (mus, sigmas)
            if mus.size:
                mu_lo = min(mu_lo, float(mus.min()))
                mu_hi = max(mu_hi, float(mus.max()))
                sigma_lo = min(sigma_lo, float(sigmas.min()))
                sigma_hi = max(sigma_hi, float(sigmas.max()))
        if not np.isfinite(mu_lo):
            # No sequence holds a full window; bounds never fire, but
            # keep the ranges well-formed for the rect transform.
            mu_lo = mu_hi = 0.0
            sigma_lo = sigma_hi = 1.0
        #: Global ``[min, max]`` of candidate means across the store.
        self.mu_range: Tuple[float, float] = (mu_lo, mu_hi)
        #: Global ``[min, max]`` of effective candidate deviations.
        self.sigma_range: Tuple[float, float] = (sigma_lo, sigma_hi)

    def stats(self, sid: int, start: int) -> Tuple[float, float]:
        """``(mu, sigma_eff)`` of candidate ``(sid, start)``.

        Out-of-range candidates (negative start, window past the end,
        unknown sid) get the identity transform ``(0, 1)`` — sound,
        because every engine discards them at its bounds check before
        verification.
        """
        pair = self._stats.get(sid)
        if pair is None:
            return 0.0, 1.0
        mus, sigmas = pair
        if not 0 <= start < mus.size:
            return 0.0, 1.0
        return float(mus[start]), float(sigmas[start])

    def stats_array(
        self, sid: int, starts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`stats` over an int array of starts (any shape)."""
        starts = np.asarray(starts, dtype=np.int64)
        pair = self._stats.get(sid)
        if pair is None:
            return (
                np.zeros(starts.shape, dtype=np.float64),
                np.ones(starts.shape, dtype=np.float64),
            )
        mus, sigmas = pair
        valid = (starts >= 0) & (starts < mus.size)
        safe = np.where(valid, starts, 0)
        out_mu = np.where(valid, mus[safe], 0.0)
        out_sigma = np.where(valid, sigmas[safe], 1.0)
        return out_mu, out_sigma

    def grid_stats(
        self,
        sids: np.ndarray,
        window_indices: np.ndarray,
        sliding_offsets: np.ndarray,
        data_stride: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(mus, sigmas)``, ``(W, n)``, of the candidates a leaf implies.

        Record ``b`` under the query window at ``sliding_offsets[w]``
        implies start ``window_indices[b] * J - sliding_offsets[w]`` (the
        GeneralMatch alignment); read per sid through :meth:`stats_array`.
        """
        offsets = np.asarray(sliding_offsets, dtype=np.int64)
        starts = (
            np.asarray(window_indices, dtype=np.int64) * data_stride
            - offsets[:, None]
        )
        mus = np.empty(starts.shape, dtype=np.float64)
        sigmas = np.empty(starts.shape, dtype=np.float64)
        for sid in np.unique(sids).tolist():
            columns = sids == sid
            mus[:, columns], sigmas[:, columns] = self.stats_array(
                sid, starts[:, columns]
            )
        return mus, sigmas
