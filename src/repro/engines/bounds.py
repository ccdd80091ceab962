"""Index-level bounds of a query's windows against R*-tree nodes.

The one place that decides *which* member of the RS005 bound chain
scores an index entry: leaf entries get ``LB_PAA``, internal entries
get ``MINDIST`` (and, for RU-COST's density estimates, ``MAXDIST``), and
the run's :class:`~repro.core.normalize.NormalizationContext` — ``None``
on the raw path — selects the raw kernels or their ``*_znorm`` twins.

Every engine advances by :meth:`WindowProbe.expand`, which reads the
node (counted, verified, fault-handled) on every expansion but scores it
once per query: against *every* window of the query's :class:`NodeGrid`,
at the first touch.  Neither the raw/z-norm split nor the fault and
counter handling around a node read can drift between engines.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.lower_bounds import (
    batch_lower_bounds,
    batch_lower_bounds_znorm,
    lb_paa_pow,
    lb_paa_pow_batch,
    lb_paa_znorm_pow_batch,
)
from repro.core.metrics import QueryStats
from repro.core.normalize import NormalizationContext
from repro.core.windows import QueryWindow
from repro.exceptions import StorageError
from repro.index.builder import DualMatchIndex
from repro.index.rstar import RStarNode

#: ``near`` of a node that holds no entries (an emptied root).
_NO_BOUNDS = np.empty(0, dtype=np.float64)

#: Windows per kernel call when a node is first scored: bounds the
#: ``(rows, n, f)`` gap temporaries of a many-window query.
_GRID_ROWS = 32

#: What one node step yields: the node and its entries' ``(near, far)``.
Expansion = Tuple[RStarNode, np.ndarray, Optional[np.ndarray]]

#: A node's bounds against some windows: ``(rows, n)`` near and far.
Scores = Tuple[np.ndarray, Optional[np.ndarray]]


class NodeGrid:
    """One query's node scores: each touched node once, every window.

    Built per query and ``include_far`` flag by ``CandidateEvaluator``,
    emptied when the run finishes, shared with no other query.  The memo
    is keyed by page id and checked against the node object the read
    returned, so a rewritten page is scored afresh.
    """

    def __init__(
        self,
        windows: Sequence[QueryWindow],
        index: DualMatchIndex,
        p: float,
        stats: QueryStats,
        on_fault: Optional[Callable[[StorageError, int], None]] = None,
        norm: Optional[NormalizationContext] = None,
        include_far: bool = False,
    ) -> None:
        self.windows = list(windows)
        self.tree = index.tree
        self.stats = stats
        #: What :meth:`WindowProbe.expand` does with an unreadable node.
        self.on_fault = on_fault
        self._seg_len = index.seg_len
        self._stride = index.data_stride
        self._p = p
        #: When matching in z-normalized space: per-candidate stats for
        #: leaf entries, global stat ranges for internal-node MBRs.
        self._norm = norm
        self._include_far = include_far
        self._lower = np.array([window.paa_lower for window in self.windows])
        self._upper = np.array([window.paa_upper for window in self.windows])
        self._offsets = np.array([window.sliding_offset for window in windows])
        self._row_of = {w.sliding_offset: row for row, w in enumerate(windows)}
        #: ``page id -> (node, near, far)`` of every node scored so far.
        self.memo: Dict[int, Expansion] = {}

    def probe(self, window: QueryWindow) -> "WindowProbe":
        """The node step of ``window``, one of this grid's windows."""
        return WindowProbe(self, self._row_of[window.sliding_offset])

    def scores(self, page_id: int, node: RStarNode) -> Expansion:
        """``node``'s ``(W, n)`` bounds: the memo's, or one kernel call's."""
        memo = self.memo.get(page_id)
        if memo is not None and memo[0] is node:
            return memo
        self.stats.node_scorings += 1
        tracer = self.tree.tracer
        count, windows = len(node.refs), len(self.windows)
        with tracer.span(
            "engine.lb_batch", n=count, leaf=node.is_leaf, windows=windows
        ):
            memo = self.memo[page_id] = (node, *self._score(node))
        if tracer.enabled:
            tracer.metrics.histogram("lb.batch_size").observe(windows * count)
        return memo

    def _score(self, node: RStarNode) -> Scores:
        kernel = self._kernel(node)
        shape = (len(self.windows), len(node.refs))
        near = np.empty(shape)
        far = None if node.is_leaf or not self._include_far else np.empty(shape)
        for first in range(0, shape[0], _GRID_ROWS):
            rows = slice(first, first + _GRID_ROWS)
            near[rows], block_far = kernel(rows)
            if far is not None:
                far[rows] = block_far
        return near, far

    def _kernel(self, node: RStarNode) -> Callable[[slice], Scores]:
        """``rows -> (near, far)``: ``node`` against those windows."""
        lows, highs = node.lows, node.highs
        lower, upper, norm = self._lower, self._upper, self._norm
        seg_len, p, include_far = self._seg_len, self._p, self._include_far
        if node.is_leaf:
            if norm is None:
                return lambda rows: (
                    lb_paa_pow_batch(
                        lower[rows], upper[rows], lows, seg_len, p
                    ),
                    None,
                )
            # Per-candidate stats: each record's point transforms by the
            # (mu, sigma) of the candidate it implies under each window.
            sids, window_indices = np.array(node.refs, dtype=np.int64).T
            mus, sigmas = norm.grid_stats(
                sids, window_indices, self._offsets, self._stride
            )
            return lambda rows: (
                lb_paa_znorm_pow_batch(
                    lower[rows], upper[rows], lows, mus[rows], sigmas[rows],
                    seg_len, p,
                ),
                None,
            )
        if norm is None:
            return lambda rows: batch_lower_bounds(
                lower[rows], upper[rows], lows, highs, seg_len, p,
                include_far=include_far,
            )
        # An internal MBR aggregates candidates with different stats, so
        # it transforms under the store-wide (mu, sigma) box.
        return lambda rows: batch_lower_bounds_znorm(
            lower[rows], upper[rows], lows, highs, norm.mu_range,
            norm.sigma_range, seg_len, p, include_far=include_far,
        )


class WindowProbe:
    """The node step of one query window: read, fault, count, slice.

    Every index traversal — ``Φ_i``'s queues, HLMJ's global queue,
    PSM's join states, the range probe — advances by :meth:`expand`.
    A probe is a window's row of the query's :class:`NodeGrid`; build it
    with :meth:`~repro.engines.base.CandidateEvaluator.probe`.
    """

    __slots__ = ("grid", "row", "window", "tree")

    def __init__(self, grid: NodeGrid, row: int) -> None:
        self.grid = grid
        self.row = row
        self.window = grid.windows[row]
        self.tree = grid.tree

    def expand(self, page_id: int) -> Optional[Expansion]:
        """Read one node (counted I/O) and bound all of its entries.

        Returns ``(node, near, far)``: this window's p-th-power bounds,
        one per row, lined up with ``node.refs``, so callers keep their
        storage-order push loops and per-survivor tie-break draws —
        queue contents are identical to scoring one entry at a time.
        ``far`` is ``None`` unless the grid was built with
        ``include_far``, and always for a leaf node: a point's far bound
        is its near bound.  Only the node's first expansion in the query
        scores it (for every window); every expansion reads and counts.

        An unreadable node goes to ``on_fault(error, page_id)`` (the
        error propagates when there is no handler).  The handler either
        re-raises (``on_fault="raise"``) or records the fault and
        returns, in which case the subtree is dropped: ``None`` comes
        back and nothing is counted or memoised.
        """
        grid = self.grid
        try:
            node = grid.tree.read_node(page_id, grid.stats)
        except StorageError as error:
            if grid.on_fault is None:
                raise
            grid.on_fault(error, page_id)
            return None
        grid.stats.node_expansions += 1
        if not node.refs:
            return node, _NO_BOUNDS, None
        _, near, far = grid.scores(page_id, node)
        return node, near[self.row], None if far is None else far[self.row]


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
