"""Index-level bounds of one query window against R*-tree entries.

The one place that decides *which* member of the RS005 bound chain
scores an index entry: leaf entries get ``LB_PAA``, internal entries
get ``MINDIST`` (and, for RU-COST's density estimates, ``MAXDIST``), and
the window's optional
:class:`~repro.core.normalize.WindowNormalizer` — chosen once per query
window, ``None`` on the raw path — selects the raw kernels or their
``*_znorm`` twins.  Every engine scores nodes through
:func:`score_node`, so the raw/z-norm split cannot drift between them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.lower_bounds import (
    batch_lower_bounds,
    batch_lower_bounds_znorm,
    lb_paa_pow,
    lb_paa_pow_batch,
    lb_paa_znorm_pow_batch,
)
from repro.core.normalize import WindowNormalizer
from repro.core.windows import QueryWindow
from repro.index.rstar import RStarNode
from repro.obs.tracer import Tracer


def score_node(
    node: RStarNode,
    window: QueryWindow,
    norm: Optional[WindowNormalizer],
    seg_len: int,
    p: float,
    tracer: Tracer,
    include_far: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(near, far)`` p-th-power bounds of every entry of ``node``.

    One batched kernel call per node; both vectors line up with
    ``node.entries``, so callers keep their storage-order push loops
    and per-survivor tie-break draws — queue contents are identical to
    scoring one entry at a time.  ``far`` is ``None`` unless
    ``include_far``, and always for a leaf node: a point's far bound
    is its near bound.
    """
    if not tracer.enabled:
        return _score(node, window, norm, seg_len, p, include_far)
    count = len(node.entries)
    with tracer.span("engine.lb_batch", n=count, leaf=node.is_leaf):
        scored = _score(node, window, norm, seg_len, p, include_far)
    tracer.metrics.histogram("lb.batch_size").observe(count)
    return scored


def _score(
    node: RStarNode,
    window: QueryWindow,
    norm: Optional[WindowNormalizer],
    seg_len: int,
    p: float,
    include_far: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    entries = node.entries
    lows = np.stack([entry.low for entry in entries])
    if node.is_leaf:
        if norm is None:
            near = lb_paa_pow_batch(
                window.paa_lower, window.paa_upper, lows, seg_len, p
            )
        else:
            # Per-candidate stats: each record's point transforms by
            # the (mu, sigma) of the candidate it implies.
            mus, sigmas = norm.leaf_stats(entry.record for entry in entries)
            near = lb_paa_znorm_pow_batch(
                window.paa_lower,
                window.paa_upper,
                lows,
                mus,
                sigmas,
                seg_len,
                p,
            )
        return near, None
    highs = np.stack([entry.high for entry in entries])
    if norm is None:
        return batch_lower_bounds(
            window.paa_lower,
            window.paa_upper,
            lows,
            highs,
            seg_len,
            p,
            include_far=include_far,
        )
    # An internal MBR aggregates candidates with different stats, so it
    # transforms under the store-wide (mu, sigma) box.
    return batch_lower_bounds_znorm(
        window.paa_lower,
        window.paa_upper,
        lows,
        highs,
        norm.mu_range,
        norm.sigma_range,
        seg_len,
        p,
        include_far=include_far,
    )


def score_point(
    window: QueryWindow,
    point: np.ndarray,
    stats: Optional[Tuple[float, float]],
    seg_len: int,
    p: float,
) -> float:
    """``LB_PAA ** p`` of one stored PAA point against ``window``.

    ``stats`` is the owning candidate's ``(mu, sigma)`` under
    normalized matching, ``None`` on the raw path.
    """
    if stats is None:
        return lb_paa_pow(
            window.paa_lower, window.paa_upper, point, seg_len, p
        )
    mu, sigma = stats
    return float(
        lb_paa_znorm_pow_batch(
            window.paa_lower,
            window.paa_upper,
            np.asarray(point, dtype=np.float64)[None, :],
            np.asarray([mu], dtype=np.float64),
            np.asarray([sigma], dtype=np.float64),
            seg_len,
            p,
        )[0]
    )
