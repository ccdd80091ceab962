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
#: re-evaluated (see :class:`~repro.engines.scheduling.CostAwareStrategy`).
STICKY_POPS = 12


class CostAwareDensityScheduler:
    """Selects the next queue to pop using cost-aware densities."""

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
        # Per-queue caches keyed by id(queue); values carry the queue
        # version (and lookahead) they were computed under.
        self._lb_cache: Dict[int, Tuple[int, int, DensityKey]] = {}
        self._exact_cache: Dict[int, Tuple[int, int, DensityKey, int]] = {}
        self._approx_cache: Dict[int, Tuple[int, float]] = {}
        self._prefix_cache: Dict[int, Tuple[int, int, tuple]] = {}
        # Candidate-page layout is immutable per (sid, window, offset).
        self._pages_cache: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def select(self, queues: Sequence[WindowQueue]) -> WindowQueue:
        """Choose the queue to pop next (Section 4's RU-COST policy)."""
        live = [queue for queue in queues if not queue.is_empty]
        if not live:
            raise ConfigurationError("select() called with no live queues")
        if len(live) == 1:
            return live[0]
        h = self._h
        pivot = min(live, key=self._approx_density)
        pivot_key, resolved = self._exact_cdens_resolved(pivot, h)
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
                        exact_key = self._exact_cdens(queue, h_eff)
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

    def _density_key(self, cost: float, denominator: float) -> DensityKey:
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
        node entry (Definition 8's ``le'_1..le'_{m-1}``).
        """
        cached = self._prefix_cache.get(id(queue))
        if (
            cached is not None
            and cached[0] == queue.version
            and cached[1] == h
        ):
            return cached[2]  # type: ignore[return-value]
        result = self._scan_prefix_uncached(queue, h)
        self._prefix_cache[id(queue)] = (queue.version, h, result)
        return result

    def _scan_prefix_uncached(
        self, queue: WindowQueue, h: int
    ) -> Tuple[List[QueueEntry], bool, List[QueueEntry]]:
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
                        return leaves, saw_node, pre_node_leaves
            if len(prefix) >= len(queue):
                return leaves, saw_node, pre_node_leaves
            limit *= 2

    def _prefix_resolved(self, queue: WindowQueue, h: int) -> bool:
        """True when no node entry hides among the next ``h`` leaves."""
        leaves, saw_node, _pre = self._scan_prefix(queue, h)
        if len(leaves) < h:
            # Fewer than h leaves known; resolved only if no nodes remain.
            return not any(
                entry[2] == NODE for entry in queue.iter_entries()
            )
        return not saw_node

    def _density_from_leaves(
        self, queue: WindowQueue, leaves: Sequence[QueueEntry]
    ) -> DensityKey:
        if not leaves:
            return _WORST
        offset = queue.window.sliding_offset
        cost = ALPHA * self._num_io(leaves, offset) + BETA * len(leaves)
        denominator = root(leaves[-1][0], self._p) - root(
            queue.last_popped_leaf_pow, self._p
        )
        return self._density_key(cost, denominator)

    def _exact_cdens_resolved(
        self, queue: WindowQueue, h: int
    ) -> Tuple[DensityKey, int]:
        """Definition 7 under the expansion budget.

        Expands the queue's own nearest nodes (counted I/O, at most
        :data:`EXPANSIONS_PER_SELECT`) until the top-``h`` leaf entries
        are in the clear or the budget runs out, then evaluates the
        density over the leaves actually resolved.  Returns the density
        key and the resolved leaf count (the effective lookahead).
        """
        cached = self._exact_cache.get(id(queue))
        if (
            cached is not None
            and cached[0] == queue.version
            and cached[1] == h
        ):
            return cached[2], cached[3]
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
        key = self._density_from_leaves(queue, resolved)
        self._exact_cache[id(queue)] = (
            queue.version,
            h,
            key,
            len(resolved),
        )
        return key, len(resolved)

    def _exact_cdens(self, queue: WindowQueue, h: int) -> DensityKey:
        """Density over the resolvable lookahead (budgeted Definition 7)."""
        key, _resolved = self._exact_cdens_resolved(queue, h)
        return key

    def _lb_cdens(self, queue: WindowQueue, h: int) -> DensityKey:
        """Definition 8 — a lower bound on :meth:`_exact_cdens` (Lemma 7)."""
        cached = self._lb_cache.get(id(queue))
        if (
            cached is not None
            and cached[0] == queue.version
            and cached[1] == h
        ):
            return cached[2]
        leaves, _saw_node, pre_node_leaves = self._scan_prefix(queue, h)
        if len(leaves) < h and any(
            entry[2] == NODE for entry in queue.iter_entries()
        ):
            # The h-th leaf is unknown and could be arbitrarily far, so
            # the only safe lower bound is zero density (expansion
            # pressure); the per-select expansion budget keeps this from
            # degenerating into full expansion.
            key: DensityKey = (0.0, math.inf)
        elif not leaves:
            key = _WORST
        else:
            offset = queue.window.sliding_offset
            cost = ALPHA * self._num_io(pre_node_leaves, offset) + BETA * h
            denominator = root(leaves[-1][0], self._p) - root(
                queue.last_popped_leaf_pow, self._p
            )
            key = self._density_key(cost, denominator)
        self._lb_cache[id(queue)] = (queue.version, h, key)
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
        cached = self._approx_cache.get(id(queue))
        if cached is not None and cached[0] == queue.version:
            return cached[1]
        h = self._h
        # Only the nearest entries can shape the h-th-leaf estimate; a
        # bounded prefix keeps the estimator O(h log n) per refresh.
        prefix = queue.sorted_prefix(max(4 * h, 16))
        ranges: List[Tuple[float, float, float]] = []
        for dist_pow, _seq, kind, _payload, far_pow in prefix:
            low = root(dist_pow, self._p)
            high = low if kind == LEAF else root(far_pow, self._p)
            count = 1.0 if kind == LEAF else float(self._h)
            ranges.append((low, high, count))
        estimate = self._estimate_hth_distance(ranges, h)
        anchor = root(queue.last_popped_leaf_pow, self._p)
        spread = estimate - anchor
        if spread <= 1e-12:
            value = math.inf
        else:
            value = (ALPHA * h + BETA * h) / spread
        self._approx_cache[id(queue)] = (queue.version, value)
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
        # Sweep over endpoints, maintaining the total density (count per
        # unit distance) of the ranges active at the sweep position.
        events: List[Tuple[float, float]] = []  # (position, density delta)
        point_mass: List[Tuple[float, float]] = []  # degenerate ranges
        for low, high, count in ranges:
            if high <= low or not math.isfinite(high):
                # Degenerate or unbounded range (e.g. the root entry,
                # whose MAXDIST is unknown): treat the expected leaves
                # as sitting at the lower edge — conservative for pivot
                # selection.
                point_mass.append((low, count))
                continue
            density = count / (high - low)
            events.append((low, density))
            events.append((high, -density))
        events.sort()
        point_mass.sort()

        mass = 0.0
        density = 0.0
        position = events[0][0] if events else point_mass[0][0]
        event_index = 0
        point_index = 0
        while event_index < len(events) or point_index < len(point_mass):
            next_event = (
                events[event_index][0]
                if event_index < len(events)
                else math.inf
            )
            next_point = (
                point_mass[point_index][0]
                if point_index < len(point_mass)
                else math.inf
            )
            target = min(next_event, next_point)
            if density > 0.0 and target > position:
                gained = density * (target - position)
                if mass + gained >= h:
                    return position + (h - mass) / density
                mass += gained
            position = max(position, target)
            if next_point <= next_event:
                mass += point_mass[point_index][1]
                point_index += 1
            else:
                density += events[event_index][1]
                event_index += 1
            if mass >= h:
                return position
        return position
