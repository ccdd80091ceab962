"""Per-query-window priority queues for the ranked-union operators.

Each ``MSEQ_{i,j}`` gets one :class:`WindowQueue` — the "dynamically
generated and sorted list" of the paper's ranked-union view.  A queue
holds matching pairs of its query window with R*-tree nodes (scored by
MINDIST) and leaf entries (scored by ``LB_PAA``), in non-decreasing
p-th-power distance order.

Every entry also carries its MAXDIST (equal to the distance for leaf
entries): RU-COST's pivot selection approximates leaf-entry densities
from ``[MINDIST, MAXDIST]`` ranges without expanding nodes (Section 4).

The queue exposes exactly what the two queue picks need, RU's
:func:`~repro.engines.ranked_union.max_delta` and RU-COST's
:class:`~repro.engines.cost_density.CostAwareDensityScheduler`: the
current top, popping, node expansion with a pruning cap, a sorted-prefix
scan for lookahead, and the last-popped-leaf distance that anchors the
density denominators of Definitions 7 and 8.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import List, Optional, Tuple

from repro.engines.bounds import WindowProbe

NODE = 0
LEAF = 1

#: Heap entry: (dist_pow, tiebreak, kind, payload, maxdist_pow).
QueueEntry = Tuple[float, int, int, object, float]

_counter = itertools.count()


class WindowQueue:
    """Priority queue of matching pairs for one query window."""

    def __init__(self, probe: WindowProbe) -> None:
        #: The node step of this queue's window; built with
        #: ``include_far`` for the MAXDIST of every node entry.
        self._probe = probe
        self.window = probe.window
        self._heap: List[QueueEntry] = [
            (0.0, next(_counter), NODE, probe.tree.root_page, math.inf)
        ]
        #: LB_PAA (p-th power) of the most recently popped leaf entry —
        #: ``le_p`` in Definitions 7 and 8.
        self.last_popped_leaf_pow = 0.0
        #: Top distance right after this queue was last popped; used by
        #: max-delta selection (RU).
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
        tracer = self._probe.tree.tracer
        if tracer.enabled:
            # Depth *before* the pop: the queue pressure the scheduler
            # saw when it chose this queue.
            tracer.metrics.histogram("queue.depth").observe(len(self._heap))
        entry = heapq.heappop(self._heap)
        self.version += 1
        if entry[2] == LEAF:
            self.last_popped_leaf_pow = entry[0]
        return entry

    def expand_node(self, page_id: int, cap_pow: float = math.inf) -> None:
        """Take one node step and push the node's scored children.

        Children whose pair distance exceeds ``cap_pow`` — the headroom
        ``delta_cur^p`` minus the sibling-queue frontier (the push-time
        MSEQ prune of Section 3.2.2) — are dropped.  Entries are pushed
        in storage order with tie-break counters consumed only for
        surviving entries, so heap contents (and every downstream pop
        order) are identical to scoring one entry at a time.

        An unreadable node's subtree is dropped from this queue (see
        :meth:`~repro.engines.bounds.WindowProbe.expand`) and the search
        continues on what is readable.
        """
        expanded = self._probe.expand(page_id)
        self.version += 1
        if expanded is None:
            return
        node, near, far = expanded
        if node.is_leaf:
            # Leaf points: MAXDIST equals the distance itself.
            for record, dist_pow in zip(node.refs, near.tolist()):
                if dist_pow > cap_pow:
                    continue
                heapq.heappush(
                    self._heap,
                    (dist_pow, next(_counter), LEAF, record, dist_pow),
                )
            return
        for child, dist_pow, far_pow in zip(
            node.refs, near.tolist(), far.tolist()
        ):
            if dist_pow > cap_pow:
                continue
            heapq.heappush(
                self._heap,
                (dist_pow, next(_counter), NODE, child, far_pow),
            )

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
