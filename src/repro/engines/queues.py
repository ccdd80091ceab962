"""Per-query-window priority queues for the ranked-union operators.

Each ``MSEQ_{i,j}`` gets one :class:`WindowQueue` — the "dynamically
generated and sorted list" of the paper's ranked-union view.  A queue
holds matching pairs of its query window with R*-tree nodes (scored by
MINDIST) and leaf entries (scored by ``LB_PAA``), in non-decreasing
p-th-power distance order.

Every entry also carries its MAXDIST (equal to the distance for leaf
entries): RU-COST's pivot selection approximates leaf-entry densities
from ``[MINDIST, MAXDIST]`` ranges without expanding nodes (Section 4).

The queue exposes exactly what the schedulers in
:mod:`repro.engines.scheduling` and :mod:`repro.engines.cost_density`
need: the current top, popping, node expansion with a pruning cap, a
sorted-prefix scan for lookahead, and the last-popped-leaf distance that
anchors the density denominators of Definitions 7 and 8.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.metrics import QueryStats
from repro.core.normalize import WindowNormalizer
from repro.core.windows import QueryWindow
from repro.engines.bounds import score_node
from repro.exceptions import StorageError
from repro.index.rstar import RStarNode, RStarTree

#: Signature of a fault handler: ``(error, page_id) -> None``.  The
#: handler either re-raises (``on_fault="raise"``) or records the fault
#: and returns, in which case the unreadable subtree is dropped.
FaultHandler = Callable[[StorageError, int], None]

NODE = 0
LEAF = 1

#: Heap entry: (dist_pow, tiebreak, kind, payload, maxdist_pow).
QueueEntry = Tuple[float, int, int, object, float]

_counter = itertools.count()


class WindowQueue:
    """Priority queue of matching pairs for one query window."""

    def __init__(
        self,
        window: QueryWindow,
        tree: RStarTree,
        seg_len: int,
        p: float,
        stats: QueryStats,
        on_fault: Optional[FaultHandler] = None,
        norm: Optional[WindowNormalizer] = None,
    ) -> None:
        self.window = window
        self._tree = tree
        self._seg_len = seg_len
        self._p = p
        self._stats = stats
        self._on_fault = on_fault
        #: When matching in z-normalized space: per-candidate stats for
        #: leaf entries, global stat ranges for internal-node MBRs.
        self._norm = norm
        self._heap: List[QueueEntry] = [
            (0.0, next(_counter), NODE, tree.root_page, math.inf)
        ]
        #: LB_PAA (p-th power) of the most recently popped leaf entry —
        #: ``le_p`` in Definitions 7 and 8.
        self.last_popped_leaf_pow = 0.0
        #: Top distance at the moment this queue was last selected; used
        #: by the max-delta default strategy.
        self.reference_top_pow = 0.0
        #: Bumped on every mutation so schedulers can cache per-version.
        self.version = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_empty(self) -> bool:
        return not self._heap

    def top_pow(self) -> float:
        """Distance of the entry to be popped next (``inf`` if empty)."""
        return self._heap[0][0] if self._heap else math.inf

    def pop(self) -> QueueEntry:
        """Pop the minimum entry, updating pop-side bookkeeping."""
        tracer = self._tree.tracer
        if tracer.enabled:
            # Depth *before* the pop: the queue pressure the scheduler
            # saw when it chose this queue.
            tracer.metrics.histogram("queue.depth").observe(len(self._heap))
        entry = heapq.heappop(self._heap)
        self.version += 1
        if entry[2] == LEAF:
            self.last_popped_leaf_pow = entry[0]
        return entry

    def _score_and_push(self, node: RStarNode, cap_pow: float) -> None:
        """Score all of a node's entries in one batched kernel call.

        Entries are pushed in storage order with tie-break counters
        consumed only for surviving entries, so heap contents (and every
        downstream pop order) are identical to scoring one entry at a
        time.
        """
        entries = node.entries
        if not entries:
            return
        near, far = score_node(
            node,
            self.window,
            self._norm,
            self._seg_len,
            self._p,
            self._tree.tracer,
            include_far=True,
        )
        near_pows = near.tolist()
        if far is None:
            # Leaf points: MAXDIST equals the distance itself.
            for entry, dist_pow in zip(entries, near_pows):
                if dist_pow > cap_pow:
                    continue
                heapq.heappush(
                    self._heap,
                    (dist_pow, next(_counter), LEAF, entry.record, dist_pow),
                )
            return
        for entry, dist_pow, far_pow in zip(entries, near_pows, far.tolist()):
            if dist_pow > cap_pow:
                continue
            heapq.heappush(
                self._heap,
                (dist_pow, next(_counter), NODE, entry.child_page, far_pow),
            )

    def expand_node(self, page_id: int, cap_pow: float = math.inf) -> None:
        """Read one node (counted I/O) and push its scored children.

        Children whose pair distance exceeds ``cap_pow`` — the headroom
        ``delta_cur^p`` minus the sibling-queue frontier (the push-time
        MSEQ prune of Section 3.2.2) — are dropped.

        An unreadable node is routed to the fault handler; when the
        handler returns (degrade policy) the node's subtree is dropped
        from this queue and the search continues on what is readable.
        """
        try:
            node = self._tree.read_node(page_id)
        except StorageError as error:
            if self._on_fault is None:
                raise
            self._on_fault(error, page_id)
            self.version += 1
            return
        self._stats.node_expansions += 1
        self._score_and_push(node, cap_pow)
        self.version += 1

    def expand_first_node(self, cap_pow: float = math.inf) -> bool:
        """Expand the nearest *node* entry in place (selective expansion).

        Used by RU-COST to refine ``LB_CDens`` without popping: the first
        node entry (in distance order) is removed and replaced by its
        children.  Returns ``False`` when the queue holds no node entry.
        """
        best: Optional[QueueEntry] = None
        for entry in self._heap:
            if entry[2] == NODE and (best is None or entry < best):
                best = entry
        if best is None:
            return False
        self._heap.remove(best)
        heapq.heapify(self._heap)
        self.expand_node(best[3], cap_pow)  # type: ignore[arg-type]
        return True

    def sorted_prefix(self, limit: int) -> List[QueueEntry]:
        """The ``limit`` nearest entries in distance order (no mutation)."""
        return heapq.nsmallest(limit, self._heap)

    def iter_entries(self) -> Iterator[QueueEntry]:
        """All enqueued entries, unordered (pivot estimation scans)."""
        return iter(self._heap)
