"""Index-level bounds of one query window against R*-tree entries.

The one place that decides *which* member of the RS005 bound chain
scores an index entry: leaf entries get ``LB_PAA``, internal entries
get ``MINDIST`` (and, for RU-COST's density estimates, ``MAXDIST``), and
the window's optional
:class:`~repro.core.normalize.WindowNormalizer` — chosen once per query
window, ``None`` on the raw path — selects the raw kernels or their
``*_znorm`` twins.  Every engine reads and scores nodes through
:meth:`WindowProbe.expand`, so neither the raw/z-norm split nor the
fault and counter handling around a node read can drift between them.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.lower_bounds import (
    batch_lower_bounds,
    batch_lower_bounds_znorm,
    lb_paa_pow,
    lb_paa_pow_batch,
    lb_paa_znorm_pow_batch,
)
from repro.core.metrics import QueryStats
from repro.core.normalize import WindowNormalizer
from repro.core.windows import QueryWindow
from repro.exceptions import StorageError
from repro.index.rstar import RStarNode, RStarTree

#: ``near`` of a node that holds no entries (an emptied root).
_NO_BOUNDS = np.empty(0, dtype=np.float64)

#: What one node step yields: the node and its entries' ``(near, far)``.
Expansion = Tuple[RStarNode, np.ndarray, Optional[np.ndarray]]


class WindowProbe:
    """The node step of one query window: read, fault, count, score.

    Every index traversal — ``Φ_i``'s queues, HLMJ's global queue,
    PSM's join states, the range probe — advances by :meth:`expand`.
    Built once per query window (see
    :meth:`~repro.engines.base.CandidateEvaluator.probe`), so the
    window's :class:`~repro.core.normalize.WindowNormalizer` is chosen
    once, not per expansion.
    """

    def __init__(
        self,
        window: QueryWindow,
        tree: RStarTree,
        seg_len: int,
        p: float,
        stats: QueryStats,
        on_fault: Optional[Callable[[StorageError, int], None]] = None,
        norm: Optional[WindowNormalizer] = None,
        include_far: bool = False,
    ) -> None:
        self.window = window
        self.tree = tree
        self._seg_len = seg_len
        self._p = p
        self._stats = stats
        self._on_fault = on_fault
        #: When matching in z-normalized space: per-candidate stats for
        #: leaf entries, global stat ranges for internal-node MBRs.
        self._norm = norm
        self._include_far = include_far

    def expand(self, page_id: int) -> Optional[Expansion]:
        """Read one node (counted I/O) and bound all of its entries.

        Returns ``(node, near, far)``: p-th-power bounds from one
        batched kernel call, lined up with ``node.entries``, so callers
        keep their storage-order push loops and per-survivor tie-break
        draws — queue contents are identical to scoring one entry at a
        time.  ``far`` is ``None`` unless the probe was built with
        ``include_far``, and always for a leaf node: a point's far
        bound is its near bound.

        An unreadable node goes to ``on_fault(error, page_id)`` (the
        error propagates when there is no handler).  The handler either
        re-raises (``on_fault="raise"``) or records the fault and
        returns, in which case the subtree is dropped: ``None`` comes
        back and nothing is counted.
        """
        try:
            node = self.tree.read_node(page_id)
        except StorageError as error:
            if self._on_fault is None:
                raise
            self._on_fault(error, page_id)
            return None
        self._stats.node_expansions += 1
        count = len(node.entries)
        if not count:
            return node, _NO_BOUNDS, None
        tracer = self.tree.tracer
        if not tracer.enabled:
            return (node, *self._score(node))
        with tracer.span("engine.lb_batch", n=count, leaf=node.is_leaf):
            near, far = self._score(node)
        tracer.metrics.histogram("lb.batch_size").observe(count)
        return node, near, far

    def _score(
        self, node: RStarNode
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        window = self.window
        norm = self._norm
        entries = node.entries
        lows = np.stack([entry.low for entry in entries])
        if node.is_leaf:
            if norm is None:
                near = lb_paa_pow_batch(
                    window.paa_lower,
                    window.paa_upper,
                    lows,
                    self._seg_len,
                    self._p,
                )
            else:
                # Per-candidate stats: each record's point transforms by
                # the (mu, sigma) of the candidate it implies.
                mus, sigmas = norm.leaf_stats(
                    entry.record for entry in entries
                )
                near = lb_paa_znorm_pow_batch(
                    window.paa_lower,
                    window.paa_upper,
                    lows,
                    mus,
                    sigmas,
                    self._seg_len,
                    self._p,
                )
            return near, None
        highs = np.stack([entry.high for entry in entries])
        if norm is None:
            return batch_lower_bounds(
                window.paa_lower,
                window.paa_upper,
                lows,
                highs,
                self._seg_len,
                self._p,
                include_far=self._include_far,
            )
        # An internal MBR aggregates candidates with different stats, so
        # it transforms under the store-wide (mu, sigma) box.
        return batch_lower_bounds_znorm(
            window.paa_lower,
            window.paa_upper,
            lows,
            highs,
            norm.mu_range,
            norm.sigma_range,
            self._seg_len,
            self._p,
            include_far=self._include_far,
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
