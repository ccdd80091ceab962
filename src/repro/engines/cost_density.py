"""RU-COST: cost-aware density-based scheduling with selective expansion.

Implements Section 4 of the paper.  For each priority queue the
*cost-aware density* (Definition 7) is::

              alpha * NUM_IO(le_1..le_h) + beta * h
    CDens = ------------------------------------------
              LB_PAA(le_h)  -  LB_PAA(le_p)

where ``le_1..le_h`` are the queue's next ``h`` leaf entries, ``le_p``
the last popped leaf entry, and ``NUM_IO`` counts candidate pages that
would miss the buffer: pages not in the query's own image of its pool
(Section 4's residence bitmap, ``QueryStats.pages_seen``), never read.
Other queries' reads of a shared pool therefore never move a schedule.
Popping from the *least dense* queue grows the MSEQ-distance fastest per
unit of I/O — the fix for the MDMWP scheduling problem.

Computing ``CDens`` exactly requires knowing the next ``h`` leaf
entries, which may hide behind unexpanded MBRs.  The scheduler therefore:

1. picks a **pivot** queue by a cheap density estimate built from the
   ``[MINDIST, MAXDIST]`` ranges already carried by queue entries
   (uniform-distribution assumption, as in the paper);
2. resolves the pivot's exact ``CDens`` (expanding only its own nodes);
3. for every other queue computes ``LB_CDens`` (Definition 8) from the
   *current* queue contents — a proven lower bound (Lemma 7) — and
   **selectively expands** only queues whose bound stays below the
   pivot's density, adopting any queue whose exact density beats the
   pivot.

RU-COST runs on constants: Definition 7's weights :data:`ALPHA` = 1 and
:data:`BETA` = 0, a lookahead ``h`` equal to the index blocking factor
(which the paper found uniformly stable), and two bounds on the
scheduler's own work, :data:`EXPANSIONS_PER_SELECT` and :data:`STICKY_POPS`.

Each ``Φ``'s ``SelectPriorityQueue()`` is RU-COST's
:meth:`CostAwareDensityScheduler.select` or RU's
:func:`~repro.engines.ranked_union.max_delta`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.lower_bounds import root
from repro.core.windows import candidate_in_bounds, candidate_start
from repro.engines.queues import LEAF, NODE, QueueEntry, WindowQueue
from repro.exceptions import ConfigurationError
from repro.index.rstar import LeafRecord
from repro.storage.sequences import SequenceStore

#: A density key: (density value, denominator).  Comparison is
#: lexicographic — the paper breaks zero-density ties on the smaller
#: denominator.
DensityKey = Tuple[float, float]

_WORST: DensityKey = (math.inf, math.inf)


#: Definition 7's weights: the paper's I/O-only cost (``alpha = 1``,
#: ``beta = 0``).
ALPHA = 1.0
BETA = 0.0

#: Node expansions the scheduler may perform per queue per select
#: call.  Bounds the scheduling overhead: at scale the expansions
#: amortise (expanded entries stay in the queue), while on small
#: workloads the *effective* lookahead simply shrinks below ``h``
#: instead of force-expanding every queue.
EXPANSIONS_PER_SELECT = 1

#: Pops consumed from a selected queue before densities are
#: re-evaluated (see :meth:`CostAwareDensityScheduler.select`).
STICKY_POPS = 12


class CostAwareDensityScheduler:
    """Selects the next queue to pop using cost-aware densities.

    One scheduler serves one ``Φ``'s fixed list of queues.
    """

    def __init__(
        self,
        store: SequenceStore,
        query_length: int,
        omega: int,
        blocking_factor: int,
        p: float,
        cap_for: Callable[[WindowQueue], float],
        pages_seen: Mapping[int, None],
    ) -> None:
        self._store = store
        #: The query's image of its buffer pool, which the pool keeps.
        self._pages_seen = pages_seen
        self._query_length = query_length
        self._omega = omega
        self._p = p
        self._cap_for = cap_for
        #: The lookahead ``h``: the index blocking factor.
        self._h = blocking_factor
        #: Per queue: its version, and per kind of value the ``h`` it
        #: was computed at and the value (a new ``h`` replaces it).
        self._memos: Dict[int, Tuple[int, Dict[str, tuple]]] = {}
        #: The queue the last fresh selection chose, and the pops it may
        #: still serve before densities are re-evaluated.
        self._current: WindowQueue | None = None
        self._remaining = 0
        # Candidate-page layout is immutable per (sid, window, offset).
        self._pages_cache: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def select(self, queues: Sequence[WindowQueue]) -> WindowQueue:
        """Choose the queue to pop next (Section 4's RU-COST policy).

        The choice is *sticky*: a chosen queue serves up to
        :data:`STICKY_POPS` pops before the densities, which drift
        slowly between pops, are evaluated again.
        """
        current = self._current
        if self._remaining and current is not None and not current.is_empty:
            self._remaining -= 1
            return current
        chosen = self._densest(queues)
        self._current = chosen
        self._remaining = STICKY_POPS - 1
        return chosen

    def _densest(self, queues: Sequence[WindowQueue]) -> WindowQueue:
        """A fresh selection: the pivot, refined by ``LB_CDens``."""
        live = [queue for queue in queues if not queue.is_empty]
        if not live:
            raise ConfigurationError("select() called with no live queues")
        if len(live) == 1:
            return live[0]
        h = self._h
        pivot = min(live, key=self._approx_density)
        pivot_key, resolved = self._exact_cdens(pivot, h)
        # Compare every queue at the lookahead the pivot actually
        # resolved within its expansion budget; on large workloads this
        # is ``h`` itself, on small ones it degrades gracefully.
        h_eff = max(1, min(h, resolved))
        improved = True
        while improved:
            improved = False
            for queue in live:
                if queue is pivot or queue.is_empty:
                    continue
                budget = EXPANSIONS_PER_SELECT
                while self._lb_cdens(queue, h_eff) < pivot_key:
                    if self._prefix_resolved(queue, h_eff):
                        exact_key, _resolved = self._exact_cdens(
                            queue, h_eff
                        )
                        if exact_key < pivot_key:
                            pivot, pivot_key = queue, exact_key
                            improved = True
                        break
                    if budget <= 0:
                        break
                    if not queue.expand_first_node(self._cap_for(queue)):
                        break
                    budget -= 1
                    if queue.is_empty:
                        break
        if pivot.is_empty:
            # Expansion pruning may have emptied the pivot; fall back to
            # any surviving queue with the best bound.
            survivors = [queue for queue in live if not queue.is_empty]
            if not survivors:
                return live[0]
            return min(
                survivors, key=lambda queue: self._lb_cdens(queue, h_eff)
            )
        return pivot

    # ------------------------------------------------------------------
    # NUM_IO — candidate pages missing from the query's image
    # ------------------------------------------------------------------

    def _candidate_pages(
        self, record: LeafRecord, sliding_offset: int
    ) -> Tuple[int, ...]:
        key = (record.sid, record.window_index, sliding_offset)
        cached = self._pages_cache.get(key)
        if cached is not None:
            return cached
        start = candidate_start(
            record.window_index, sliding_offset, self._omega
        )
        if not candidate_in_bounds(
            start, self._query_length, self._store.length(record.sid)
        ):
            pages: Tuple[int, ...] = ()
        else:
            pages = tuple(
                self._store.pages_for_range(
                    record.sid, start, self._query_length
                )
            )
        self._pages_cache[key] = pages
        return pages

    def _num_io(
        self, leaves: Sequence[QueueEntry], sliding_offset: int
    ) -> int:
        pages: Set[int] = set()
        for _dist, _seq, _kind, payload, _far in leaves:
            pages.update(
                self._candidate_pages(payload, sliding_offset)
            )  # type: ignore[arg-type]
        seen = self._pages_seen
        return sum(1 for page in pages if page not in seen)

    # ------------------------------------------------------------------
    # Density computations
    # ------------------------------------------------------------------

    def _memo(self, queue: WindowQueue) -> Dict[str, tuple]:
        """``queue``'s memo, emptied once the queue changed version."""
        held = self._memos.get(id(queue))
        if held is None or held[0] != queue.version:
            held = (queue.version, {})
            self._memos[id(queue)] = held
        return held[1]

    def _density(
        self,
        queue: WindowQueue,
        priced: Sequence[QueueEntry],
        count: int,
        hth_pow: float,
    ) -> DensityKey:
        """``alpha * NUM_IO(priced) + beta * count`` over the spread from
        the last popped leaf to the ``h``-th leaf at ``hth_pow``.

        Definitions 7 and 8 differ only in the leaves priced and count.
        """
        offset = queue.window.sliding_offset
        cost = ALPHA * self._num_io(priced, offset) + BETA * count
        denominator = root(hth_pow, self._p) - root(
            queue.last_popped_leaf_pow, self._p
        )
        if denominator <= 1e-12:
            # Zero spread: infinitely dense unless also zero cost, in
            # which case the smallest-denominator tie-break applies.
            return (math.inf, 0.0) if cost > 0 else (0.0, 0.0)
        return (cost / denominator, denominator)

    def _scan_prefix(
        self, queue: WindowQueue, h: int
    ) -> Tuple[List[QueueEntry], bool, List[QueueEntry]]:
        """Scan sorted entries until ``h`` leaves are seen.

        Returns ``(leaves, saw_node_before_hth_leaf, pre_node_leaves)``
        where ``pre_node_leaves`` are leaves ordered before the first
        node entry (Definition 8's ``le'_1..le'_{m-1}``).  With fewer
        than ``h`` leaves the whole queue was scanned, so ``saw_node``
        then says whether the queue holds any node entry.
        """
        held = self._memo(queue).get("prefix")
        if held is not None and held[0] == h:
            return held[1]
        limit = max(2 * h, 8)
        while True:
            prefix = queue.sorted_prefix(limit)
            leaves: List[QueueEntry] = []
            pre_node_leaves: List[QueueEntry] = []
            saw_node = False
            for entry in prefix:
                if entry[2] == NODE:
                    saw_node = True
                else:
                    leaves.append(entry)
                    if not saw_node:
                        pre_node_leaves.append(entry)
                    if len(leaves) == h:
                        break
            if len(leaves) == h or len(prefix) >= len(queue):
                break
            limit *= 2
        result = (leaves, saw_node, pre_node_leaves)
        self._memo(queue)["prefix"] = (h, result)
        return result

    def _prefix_resolved(self, queue: WindowQueue, h: int) -> bool:
        """True when no node entry hides among the next ``h`` leaves."""
        return not self._scan_prefix(queue, h)[1]

    def _exact_cdens(
        self, queue: WindowQueue, h: int
    ) -> Tuple[DensityKey, int]:
        """Definition 7 under the expansion budget.

        Expands the queue's own nearest nodes (counted I/O, at most
        :data:`EXPANSIONS_PER_SELECT`) until the top-``h`` leaf entries
        are in the clear or the budget runs out, then evaluates the
        density over the leaves actually resolved.  Returns the density
        key and the resolved leaf count (the effective lookahead).
        """
        held = self._memo(queue).get("exact")
        if held is not None and held[0] == h:
            return held[1]
        budget = EXPANSIONS_PER_SELECT
        while budget > 0 and not self._prefix_resolved(queue, h):
            if not queue.expand_first_node(self._cap_for(queue)):
                break
            budget -= 1
            if queue.is_empty:
                break
        # Leaves before the first remaining node are the pops whose
        # order is already final (Lemma 7's argument).
        leaves, saw_node, pre_node_leaves = self._scan_prefix(queue, h)
        resolved = pre_node_leaves if saw_node else leaves
        key = (
            self._density(queue, resolved, len(resolved), resolved[-1][0])
            if resolved
            else _WORST
        )
        result = (key, len(resolved))
        self._memo(queue)["exact"] = (h, result)
        return result

    def _lb_cdens(self, queue: WindowQueue, h: int) -> DensityKey:
        """Definition 8 — a lower bound on :meth:`_exact_cdens` (Lemma 7)."""
        held = self._memo(queue).get("lb")
        if held is not None and held[0] == h:
            return held[1]
        leaves, saw_node, pre_node_leaves = self._scan_prefix(queue, h)
        if len(leaves) < h and saw_node:
            # The h-th leaf is unknown and could be arbitrarily far, so
            # the only safe lower bound is zero density (expansion
            # pressure); the per-select expansion budget keeps this from
            # degenerating into full expansion.
            key: DensityKey = (0.0, math.inf)
        elif not leaves:
            key = _WORST
        else:
            key = self._density(queue, pre_node_leaves, h, leaves[-1][0])
        self._memo(queue)["lb"] = (h, key)
        return key

    # ------------------------------------------------------------------
    # Pivot approximation (no expansion, no I/O)
    # ------------------------------------------------------------------

    def _approx_density(self, queue: WindowQueue) -> float:
        """Estimate density from [MINDIST, MAXDIST] ranges.

        Every node entry is assumed to hold ``h`` leaf entries spread
        uniformly over its distance range (the paper's uniformity
        assumption); leaf entries count as themselves.  The estimated
        distance of the ``h``-th leaf gives the density denominator; the
        numerator is the pessimistic ``alpha * h + beta * h``.
        """
        held = self._memo(queue).get("approx")
        if held is not None:
            return held[1]
        h = self._h
        # Only the nearest entries can shape the h-th-leaf estimate; a
        # bounded prefix keeps the estimator O(h log n) per refresh.
        prefix = queue.sorted_prefix(max(4 * h, 16))
        ranges: List[Tuple[float, float, float]] = []
        for dist_pow, _seq, kind, _payload, far_pow in prefix:
            low = root(dist_pow, self._p)
            high = low if kind == LEAF else root(far_pow, self._p)
            count = 1.0 if kind == LEAF else float(h)
            ranges.append((low, high, count))
        estimate = self._estimate_hth_distance(ranges, h)
        anchor = root(queue.last_popped_leaf_pow, self._p)
        spread = estimate - anchor
        if spread <= 1e-12:
            value = math.inf
        else:
            value = (ALPHA * h + BETA * h) / spread
        self._memo(queue)["approx"] = (h, value)
        return value

    @staticmethod
    def _estimate_hth_distance(
        ranges: List[Tuple[float, float, float]], h: int
    ) -> float:
        """Distance at which the expected leaf count reaches ``h``.

        ``ranges`` holds ``(low, high, expected_count)`` triples with
        counts assumed uniform over ``[low, high]``.
        """
        if not ranges:
            return math.inf
        # Sweep the endpoints in distance order from the lowest one,
        # keeping the total density (count per unit distance) of the
        # ranges active at the sweep position.  An event is
        # ``(position, 0, count)`` for a point mass, first on a tie, or
        # ``(position, 1, density delta)`` for a range's end.
        events: List[Tuple[float, int, float]] = []
        for low, high, count in ranges:
            if high <= low or not math.isfinite(high):
                # Degenerate or unbounded range (e.g. the root entry,
                # whose MAXDIST is unknown): treat the expected leaves
                # as sitting at the lower edge — conservative for pivot
                # selection.
                events.append((low, 0, count))
                continue
            density = count / (high - low)
            events.append((low, 1, density))
            events.append((high, 1, -density))
        events.sort()

        mass = 0.0
        density = 0.0
        position = events[0][0]
        for target, is_range, value in events:
            if density > 0.0 and target > position:
                gained = density * (target - position)
                if mass + gained >= h:
                    return position + (h - mass) / density
                mass += gained
            position = target
            if is_range:
                density += value
            else:
                mass += value
            if mass >= h:
                return position
        return position
