"""A from-scratch R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990).

The paper stores each disjoint data window, PAA-transformed into an
``f``-dimensional point, as a leaf entry of an R*-tree whose nodes occupy
one disk page each.  This implementation follows the published R*
heuristics:

* **ChooseSubtree** — minimum overlap enlargement at the level above the
  leaves, minimum area enlargement higher up (ties on area, then fan-in).
* **Split** — axis chosen by minimum total margin over the candidate
  distributions; distribution chosen by minimum overlap, then area.
* **Forced reinsertion** — on first overflow per level per insertion, the
  30 % of entries farthest from the node center are removed and
  re-inserted, improving packing.

A node is columns — ``lows``, ``highs`` and ``refs``, one row per entry
(:class:`RStarNode`) — so every heuristic above, every query-time bound
and the on-disk format work on its arrays directly.  Nodes live in pages
of the shared :class:`~repro.storage.pager.Pager`; query-time node reads
go through the buffer pool (counted), while build
runs offline through :meth:`Pager.peek` (the paper also excludes index
construction from its query metrics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.metrics import QueryStats
from repro.exceptions import ConfigurationError, IndexError_
from repro.index import geometry
from repro.index.geometry import Rect
from repro.obs.tracer import Tracer
from repro.storage.buffer import BufferPool
from repro.storage.page import PageKind, index_entries_per_page
from repro.storage.pager import Pager

REINSERT_FRACTION = 0.3
MIN_FILL_FRACTION = 0.4


class LeafRecord(NamedTuple):
    """Payload of a leaf entry: which disjoint window the point encodes."""

    sid: int
    window_index: int


@dataclass
class RStarNode:
    """A tree node as columns; ``level`` 0 means leaf.

    Row ``i`` is one entry: the MBR ``(lows[i], highs[i])`` and
    ``refs[i]``, a child page id on an internal node or a
    :class:`LeafRecord` on a leaf.  A leaf's entries are points, so its
    ``highs`` is its ``lows``.
    """

    level: int
    lows: np.ndarray
    highs: np.ndarray
    refs: list

    @classmethod
    def leaf(cls, points: np.ndarray, records: list) -> "RStarNode":
        """A leaf over ``(n, f)`` points; its ``highs`` is its ``lows``."""
        return cls(0, points, points, records)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> Rect:
        if not self.refs:
            raise IndexError_("cannot take the MBR of an empty node")
        return self.lows.min(axis=0), self.highs.max(axis=0)

    def take(self, rows) -> "RStarNode":
        """A new node of the same level holding ``rows``, in that order
        (an index array, a boolean mask or a slice)."""
        refs = [self.refs[i] for i in np.arange(len(self.refs))[rows]]
        if self.is_leaf:
            return RStarNode.leaf(self.lows[rows], refs)
        return RStarNode(self.level, self.lows[rows], self.highs[rows], refs)

    def keep(self, rows) -> None:
        """Shrink this node, in place, to ``rows`` in the given order."""
        kept = self.take(rows)
        self.lows, self.highs, self.refs = kept.lows, kept.highs, kept.refs

    def append(self, low: np.ndarray, high: np.ndarray, ref) -> None:
        """Add one row at the end."""
        self.lows = np.concatenate([self.lows, low[None, :]])
        self.highs = (
            self.lows
            if self.is_leaf
            else np.concatenate([self.highs, high[None, :]])
        )
        self.refs.append(ref)

    def ref_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``refs`` as int64 ``children, record_sids, record_windows``;
        ``-1`` marks the columns a row's kind does not use."""
        unused = np.full(len(self.refs), -1, dtype=np.int64)
        if not self.is_leaf:
            return np.asarray(self.refs, dtype=np.int64), unused, unused
        records = np.asarray(self.refs, dtype=np.int64).reshape(-1, 2)
        return unused, records[:, 0], records[:, 1]


class RStarTree:
    """R*-tree over ``dimensions``-dimensional points.

    Parameters
    ----------
    pager:
        Shared page store; every node occupies one page.
    buffer:
        Buffer pool used for counted query-time node reads.
    dimensions:
        Dimensionality of indexed points (the PAA feature count ``f``).
    max_entries:
        Node fan-out.  Defaults to the page-geometry fan-out
        (:func:`~repro.storage.page.index_entries_per_page`), which the
        paper calls the *blocking factor*.
    """

    def __init__(
        self,
        pager: Pager,
        buffer: BufferPool,
        dimensions: int,
        max_entries: Optional[int] = None,
    ) -> None:
        if dimensions < 1:
            raise ConfigurationError(
                f"dimensions must be >= 1, got {dimensions}"
            )
        self._pager = pager
        self._buffer = buffer
        self.dimensions = dimensions
        self.max_entries = (
            index_entries_per_page(dimensions, pager.page_size)
            if max_entries is None
            else max_entries
        )
        if self.max_entries < 4:
            raise ConfigurationError(
                f"max_entries must be >= 4, got {self.max_entries}"
            )
        self.min_entries = max(2, int(self.max_entries * MIN_FILL_FRACTION))
        self._size = 0
        root = RStarNode.leaf(np.empty((0, dimensions)), [])
        # Offline construction (pre-seal, pre-WAL by definition).
        self.root_page = self._pager.allocate(PageKind.INDEX_LEAF, root)  # repro: ignore[RS009]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def blocking_factor(self) -> int:
        """Entries per index page — RU-COST's default lookahead ``h``."""
        return self.max_entries

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return self._peek(self.root_page).level + 1

    @property
    def tracer(self) -> "Tracer":
        """The buffer pool's tracer (one observability plane per store)."""
        return self._buffer.tracer

    def read_node(
        self, page_id: int, stats: Optional[QueryStats] = None
    ) -> RStarNode:
        """Query-time node read through the buffer pool (counted I/O,
        charged to ``stats``, the reading query's counters).

        The ``index.probe`` span is read off the buffer pool's tracer so
        a tracer attached after construction (``db.set_tracer``) still
        covers every probe; any ``buffer.fetch`` the probe misses into
        nests inside it.
        """
        tracer = self._buffer.tracer
        if tracer.enabled:
            with tracer.span("index.probe", page=page_id):
                return self._buffer.get(page_id, stats)
        return self._buffer.get(page_id, stats)

    def _peek(self, page_id: int) -> RStarNode:
        """Offline node read (no I/O accounting) for build paths."""
        return self._pager.peek(page_id)

    def _write_back(self, page_id: int) -> None:
        """Persist an in-place node mutation on a *sealed* pager.

        During offline build the pager is unsealed and checksums do not
        exist yet, so this is a no-op there (keeping build-time write
        counters byte-identical to the pre-ingest library).  After
        ``seal()`` every node mutation must write through so the page's
        checksum stays current — otherwise the next verified read would
        report phantom corruption.
        """
        if self._pager.sealed:
            # Structure maintenance beneath insert()/delete(); the
            # mutation intent is WAL-logged at the IngestSession layer.
            self._pager.write(page_id, self._peek(page_id))  # repro: ignore[RS009]

    def _free_page(self, page_id: int) -> None:
        """Release a condensed-away node page (and its buffer frame)."""
        self._buffer.invalidate(page_id)
        # Structure maintenance beneath delete(); WAL-logged upstream.
        self._pager.free(page_id)  # repro: ignore[RS009]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float], record: LeafRecord) -> None:
        """Insert one point with its record (R* insert with reinsertion)."""
        array = self._point(point)
        self._insert_row(array, array, record, 0, reinserted_levels=set())
        self._size += 1

    def _point(self, point: Sequence[float]) -> np.ndarray:
        array = np.ascontiguousarray(point, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise IndexError_(
                f"point shape {array.shape} does not match index "
                f"dimensionality ({self.dimensions},)"
            )
        return array

    def _insert_row(
        self,
        low: np.ndarray,
        high: np.ndarray,
        ref: object,
        target_level: int,
        reinserted_levels: Set[int],
    ) -> None:
        path = self._choose_path((low, high), target_level)
        node_page = path[-1]
        self._peek(node_page).append(low, high, ref)
        self._write_back(node_page)
        self._handle_overflow(path, reinserted_levels)

    def _choose_path(self, rect: Rect, target_level: int) -> List[int]:
        """Page ids from the root down to the chosen node at target level."""
        path = [self.root_page]
        node = self._peek(self.root_page)
        while node.level > target_level:
            path.append(node.refs[self._choose_subtree(node, rect)])
            node = self._peek(path[-1])
        return path

    #: R*'s published optimisation: evaluate overlap enlargement only for
    #: the entries with the smallest area enlargement.
    _OVERLAP_CANDIDATES = 32

    def _choose_subtree(self, node: RStarNode, rect: Rect) -> int:
        """The row of ``node`` whose subtree should receive ``rect``."""
        lows, highs = node.lows, node.highs
        grown_lows = np.minimum(lows, rect[0])
        grown_highs = np.maximum(highs, rect[1])
        areas = np.prod(highs - lows, axis=1)
        enlargements = np.prod(grown_highs - grown_lows, axis=1) - areas

        if node.level > 1:
            # Minimise area enlargement; break ties on smaller area.
            return int(np.lexsort((areas, enlargements))[0])

        # Children are leaves: minimise overlap enlargement among the
        # least-enlarging candidates, breaking ties on enlargement, area.
        candidate_order = np.lexsort((areas, enlargements))
        candidates = candidate_order[: self._OVERLAP_CANDIDATES]
        best_index = int(candidates[0])
        best_key = None
        for raw_index in candidates:
            index = int(raw_index)
            before = self._total_overlap(
                lows[index], highs[index], lows, highs, index
            )
            after = self._total_overlap(
                grown_lows[index], grown_highs[index], lows, highs, index
            )
            key = (
                after - before,
                float(enlargements[index]),
                float(areas[index]),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    @staticmethod
    def _total_overlap(
        low: np.ndarray,
        high: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        skip_index: int,
    ) -> float:
        inter_low = np.maximum(low, lows)
        inter_high = np.minimum(high, highs)
        sides = np.clip(inter_high - inter_low, 0.0, None)
        volumes = np.prod(sides, axis=1)
        return float(np.sum(volumes) - volumes[skip_index])

    def _handle_overflow(
        self, path: List[int], reinserted_levels: Set[int]
    ) -> None:
        """Walk the path bottom-up, splitting or reinserting overflowed
        nodes and refreshing ancestor MBRs."""
        for depth in range(len(path) - 1, -1, -1):
            node_page = path[depth]
            node = self._peek(node_page)
            if len(node.refs) > self.max_entries:
                is_root = node_page == self.root_page
                if not is_root and node.level not in reinserted_levels:
                    reinserted_levels.add(node.level)
                    self._reinsert(node_page, path[:depth], reinserted_levels)
                else:
                    self._split(node_page, path[:depth])
            if depth > 0:
                self._refresh_parent_mbr(path[depth - 1], node_page)

    def _refresh_parent_mbr(self, parent_page: int, child_page: int) -> None:
        parent = self._peek(parent_page)
        child = self._peek(child_page)
        if not child.refs or child_page not in parent.refs:
            return
        row = parent.refs.index(child_page)
        parent.lows[row], parent.highs[row] = child.mbr()
        self._write_back(parent_page)

    def _reinsert(
        self,
        node_page: int,
        ancestor_path: List[int],
        reinserted_levels: Set[int],
    ) -> None:
        node = self._peek(node_page)
        node_rect = node.mbr()
        count = max(1, int(len(node.refs) * REINSERT_FRACTION))
        # Farthest-from-center rows leave the node ("far reinsert"); the
        # stable sort keeps storage order among equal distances.
        distances = [
            geometry.center_distance_sq(rect, node_rect)
            for rect in zip(node.lows, node.highs)
        ]
        order = np.argsort(distances, kind="stable")
        evicted = node.take(order[-count:])
        node.keep(order[:-count])
        # Structure maintenance beneath insert(); WAL-logged upstream.
        self._pager.write(node_page, node)  # repro: ignore[RS009]
        # Refresh ancestors before reinserting so choose-subtree sees
        # tightened MBRs.
        for depth in range(len(ancestor_path) - 1, -1, -1):
            child = (
                ancestor_path[depth + 1]
                if depth + 1 < len(ancestor_path)
                else node_page
            )
            self._refresh_parent_mbr(ancestor_path[depth], child)
        self._reinsert_rows(evicted, reinserted_levels)

    def _reinsert_rows(
        self, orphans: RStarNode, reinserted_levels: Set[int]
    ) -> None:
        """Insert every row of a detached node back at its level."""
        for low, high, ref in zip(orphans.lows, orphans.highs, orphans.refs):
            self._insert_row(low, high, ref, orphans.level, reinserted_levels)

    def _split(self, node_page: int, ancestor_path: List[int]) -> None:
        node = self._peek(node_page)
        ordering, split_at = self._choose_split(node.lows, node.highs)
        sibling = node.take(ordering[split_at:])
        node.keep(ordering[:split_at])
        kind = PageKind.INDEX_LEAF if node.is_leaf else PageKind.INDEX_INTERNAL
        # Structure maintenance beneath insert(); WAL-logged upstream.
        sibling_page = self._pager.allocate(kind, sibling)  # repro: ignore[RS009]
        self._pager.write(node_page, node)  # repro: ignore[RS009]
        if node_page == self.root_page:
            new_root = self._parent_node(
                node.level + 1, [node_page, sibling_page]
            )
            self.root_page = self._pager.allocate(  # repro: ignore[RS009]
                PageKind.INDEX_INTERNAL, new_root
            )
            return
        parent_page = ancestor_path[-1]
        low_b, high_b = sibling.mbr()
        self._peek(parent_page).append(low_b, high_b, sibling_page)
        self._refresh_parent_mbr(parent_page, node_page)
        # Parent overflow, if any, is handled by the caller's bottom-up walk.

    def _parent_node(self, level: int, pages: List[int]) -> RStarNode:
        """A node at ``level`` with one row per child page: its MBR."""
        lows = np.empty((len(pages), self.dimensions), dtype=np.float64)
        highs = np.empty_like(lows)
        for row, page_id in enumerate(pages):
            lows[row], highs[row] = self._peek(page_id).mbr()
        return RStarNode(level, lows, highs, list(pages))

    def _choose_split(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """R* split: margin-minimal axis, then overlap-minimal distribution.

        Returns a row ordering and the split position: rows
        ``ordering[:split_at]`` stay, the rest move to a sibling.  All
        candidate distributions along an ordering share prefix/suffix
        MBRs, so they are evaluated with running min/max scans instead of
        repeated unions.
        """
        m = self.min_entries
        count = lows.shape[0]

        best_axis = 0
        best_axis_margin = None
        for axis in range(self.dimensions):
            margin_sum = 0.0
            for ordering in self._axis_orderings(lows, highs, axis):
                margin_sum += self._ordering_margin_sum(
                    lows[ordering], highs[ordering], m
                )
            if best_axis_margin is None or margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis

        best_key = None
        best_split: Optional[Tuple[np.ndarray, int]] = None
        for ordering in self._axis_orderings(lows, highs, best_axis):
            ordered_lows = lows[ordering]
            ordered_highs = highs[ordering]
            prefix_low, prefix_high, suffix_low, suffix_high = (
                self._running_mbrs(ordered_lows, ordered_highs)
            )
            for split_at in range(m, count - m + 1):
                rect_a = (prefix_low[split_at - 1], prefix_high[split_at - 1])
                rect_b = (suffix_low[split_at], suffix_high[split_at])
                key = (
                    geometry.overlap_area(rect_a, rect_b),
                    geometry.area(rect_a) + geometry.area(rect_b),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_split = (ordering, split_at)
        assert best_split is not None
        return best_split

    @staticmethod
    def _axis_orderings(
        lows: np.ndarray, highs: np.ndarray, axis: int
    ) -> List[np.ndarray]:
        return [np.argsort(lows[:, axis]), np.argsort(highs[:, axis])]

    @classmethod
    def _ordering_margin_sum(
        cls, ordered_lows: np.ndarray, ordered_highs: np.ndarray, m: int
    ) -> float:
        count = ordered_lows.shape[0]
        prefix_low, prefix_high, suffix_low, suffix_high = cls._running_mbrs(
            ordered_lows, ordered_highs
        )
        total = 0.0
        for split_at in range(m, count - m + 1):
            total += float(
                np.sum(prefix_high[split_at - 1] - prefix_low[split_at - 1])
            )
            total += float(np.sum(suffix_high[split_at] - suffix_low[split_at]))
        return total

    @staticmethod
    def _running_mbrs(
        ordered_lows: np.ndarray, ordered_highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Prefix and suffix running MBRs along one ordering."""
        prefix_low = np.minimum.accumulate(ordered_lows, axis=0)
        prefix_high = np.maximum.accumulate(ordered_highs, axis=0)
        suffix_low = np.minimum.accumulate(ordered_lows[::-1], axis=0)[::-1]
        suffix_high = np.maximum.accumulate(ordered_highs[::-1], axis=0)[::-1]
        return prefix_low, prefix_high, suffix_low, suffix_high

    # ------------------------------------------------------------------
    # Deletion (classic R-tree CondenseTree with R* reinsertion)
    # ------------------------------------------------------------------

    def delete(self, point: Sequence[float], record: LeafRecord) -> bool:
        """Remove one leaf record; returns ``False`` when absent.

        Follows Guttman's delete: locate the leaf holding the record,
        remove the entry, then **CondenseTree** — ancestors that fall
        below the minimum fill are eliminated bottom-up, their surviving
        entries re-inserted at their original level (via the R* insert
        path, so reinsertion may trigger splits/forced reinserts), and
        an internal root left with a single child collapses, shrinking
        the tree.  Condensed-away node pages are freed.
        """
        array = self._point(point)
        path = self._find_leaf(self.root_page, array, record)
        if path is None:
            return False
        leaf_page = path[-1]
        leaf = self._peek(leaf_page)
        leaf.keep(~self._record_rows(leaf, array, record))
        self._write_back(leaf_page)
        self._condense(path)
        self._shrink_root()
        self._size -= 1
        return True

    @staticmethod
    def _record_rows(
        leaf: RStarNode, array: np.ndarray, record: LeafRecord
    ) -> np.ndarray:
        """Mask of the leaf rows holding ``record`` at point ``array``."""
        same_record = np.fromiter(
            (ref == record for ref in leaf.refs), dtype=bool,
            count=len(leaf.refs),
        )
        return same_record & np.all(leaf.lows == array, axis=1)

    def _find_leaf(
        self, page_id: int, array: np.ndarray, record: LeafRecord
    ) -> Optional[List[int]]:
        """Root-to-leaf page path of the row holding ``record``."""
        node = self._peek(page_id)
        if node.is_leaf:
            found = self._record_rows(node, array, record).any()
            return [page_id] if found else None
        inside = np.all(node.lows <= array, axis=1) & np.all(
            array <= node.highs, axis=1
        )
        for row in np.flatnonzero(inside):
            below = self._find_leaf(node.refs[row], array, record)
            if below is not None:
                return [page_id, *below]
        return None

    def _condense(self, path: List[int]) -> None:
        """Eliminate underfull nodes bottom-up, reinserting orphans."""
        orphans: List[RStarNode] = []
        for depth in range(len(path) - 1, 0, -1):
            node_page = path[depth]
            parent_page = path[depth - 1]
            node = self._peek(node_page)
            if len(node.refs) < self.min_entries:
                parent = self._peek(parent_page)
                parent.keep([ref != node_page for ref in parent.refs])
                self._write_back(parent_page)
                if node.refs:
                    orphans.append(node)
                self._free_page(node_page)
            else:
                self._refresh_parent_mbr(parent_page, node_page)
        reinserted: Set[int] = set()
        for orphan in orphans:
            self._reinsert_rows(orphan, reinserted)

    def _shrink_root(self) -> None:
        """Collapse an internal root down to its single surviving child."""
        while True:
            root = self._peek(self.root_page)
            if root.is_leaf:
                return
            if len(root.refs) == 1:
                old_root = self.root_page
                self.root_page = root.refs[0]
                self._free_page(old_root)
                continue
            if not root.refs:
                # Every subtree condensed away: become an empty leaf.
                root.level = 0
                root.highs = root.lows
                self._write_back(self.root_page)
            return

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        points: Sequence[Sequence[float]],
        records: Sequence[LeafRecord],
    ) -> None:
        """Build the tree from scratch with STR packing.

        Sort-Tile-Recursive (Leutenegger et al.) sorts points into
        spatial tiles and packs them into full leaves, then builds the
        upper levels bottom-up.  Orders of magnitude faster than
        repeated insertion for large static loads (the paper builds its
        indexes offline too) and produces well-clustered nodes.

        Only valid on an empty tree.
        """
        if self._size:
            raise IndexError_("bulk_load requires an empty tree")
        array = np.ascontiguousarray(points, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != self.dimensions:
            raise IndexError_(
                f"points shape {array.shape} does not match index "
                f"dimensionality {self.dimensions}"
            )
        if array.shape[0] != len(records):
            raise IndexError_(
                f"{array.shape[0]} points but {len(records)} records"
            )
        if array.shape[0] == 0:
            return
        order = self._str_order(array)
        leaf_pages: List[int] = []
        for chunk in self._balanced_chunks(order.tolist()):
            node = RStarNode.leaf(
                array[chunk], [records[index] for index in chunk]
            )
            # Offline bulk load (pre-seal, pre-WAL by definition).
            leaf_pages.append(self._pager.allocate(PageKind.INDEX_LEAF, node))  # repro: ignore[RS009]
        self._size = array.shape[0]

        level = 0
        pages = leaf_pages
        while len(pages) > 1:
            level += 1
            parents: List[int] = []
            for chunk in self._balanced_chunks(pages):
                node = self._parent_node(level, chunk)
                parents.append(
                    self._pager.allocate(PageKind.INDEX_INTERNAL, node)  # repro: ignore[RS009]
                )
            pages = parents
        self.root_page = pages[0]

    def _str_order(self, array: np.ndarray) -> np.ndarray:
        """Point permutation following the STR tiling."""
        count = array.shape[0]
        num_leaves = max(1, -(-count // self.max_entries))
        order = np.arange(count)

        def tile(indices: np.ndarray, dim: int) -> List[np.ndarray]:
            if dim == self.dimensions - 1:
                return [indices[np.argsort(array[indices, dim])]]
            remaining = self.dimensions - dim
            leaves_here = max(1, -(-indices.size // self.max_entries))
            slabs = max(1, round(leaves_here ** (1.0 / remaining)))
            ordered = indices[np.argsort(array[indices, dim])]
            slab_size = -(-ordered.size // slabs)
            pieces: List[np.ndarray] = []
            for start in range(0, ordered.size, slab_size):
                pieces.extend(
                    tile(ordered[start : start + slab_size], dim + 1)
                )
            return pieces

        if num_leaves == 1:
            return order
        return np.concatenate(tile(order, 0))

    def _balanced_chunks(self, items: List) -> List[List]:
        """Split into chunks of at most ``max_entries``, keeping the
        last chunk at least ``min_entries`` long by rebalancing."""
        capacity = self.max_entries
        chunks = [
            items[start : start + capacity]
            for start in range(0, len(items), capacity)
        ]
        if len(chunks) > 1 and len(chunks[-1]) < self.min_entries:
            needed = self.min_entries - len(chunks[-1])
            chunks[-1] = chunks[-2][-needed:] + chunks[-1]
            chunks[-2] = chunks[-2][:-needed]
        return chunks

    # ------------------------------------------------------------------
    # Offline traversals (tests, stats)
    # ------------------------------------------------------------------

    def _iter_nodes(self) -> Iterator[RStarNode]:
        """Every node, depth first, without I/O accounting."""
        stack = [self.root_page]
        while stack:
            node = self._peek(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(node.refs)

    def iter_leaves(self) -> Iterator[RStarNode]:
        """Yield every leaf node without I/O accounting."""
        return (node for node in self._iter_nodes() if node.is_leaf)

    def node_count(self) -> int:
        """Total number of nodes (offline walk)."""
        return sum(1 for _node in self._iter_nodes())

    def check_invariants(self) -> None:
        """Validate structure: columns, MBR containment, fill, levels.

        Raises :class:`IndexError_` on the first violation.  Used heavily
        by unit and property tests, and by ``repro scrub``.
        """
        root = self._peek(self.root_page)
        self._check_node(self.root_page, root, is_root=True)

    def _check_node(
        self, page_id: int, node: RStarNode, is_root: bool
    ) -> None:
        count = len(node.refs)
        if node.lows.shape != (count, self.dimensions) or (
            node.highs.shape != node.lows.shape
        ):
            raise IndexError_(
                f"node {page_id} columns disagree: lows {node.lows.shape}, "
                f"highs {node.highs.shape}, {count} refs"
            )
        if not is_root and count < self.min_entries:
            raise IndexError_(
                f"node {page_id} underfull: {count} < {self.min_entries}"
            )
        if count > self.max_entries:
            raise IndexError_(
                f"node {page_id} overfull: {count} > {self.max_entries}"
            )
        if is_root and not node.is_leaf and count < 2:
            raise IndexError_("internal root must have >= 2 entries")
        records = [isinstance(ref, LeafRecord) for ref in node.refs]
        if node.is_leaf:
            if not all(records):
                raise IndexError_(
                    f"leaf node {page_id} holds a non-record entry"
                )
            if not np.array_equal(node.highs, node.lows):
                raise IndexError_(
                    f"leaf node {page_id} highs differ from its lows"
                )
            return
        if any(records):
            raise IndexError_(f"internal node {page_id} holds a record entry")
        for row, child_page in enumerate(node.refs):
            child = self._peek(child_page)
            if child.level != node.level - 1:
                raise IndexError_(
                    f"level mismatch: node {page_id} level {node.level} -> "
                    f"child {child_page} level {child.level}"
                )
            child_low, child_high = child.mbr()
            if np.any(child_low < node.lows[row]) or np.any(
                child_high > node.highs[row]
            ):
                raise IndexError_(
                    f"entry MBR of node {page_id} does not contain child "
                    f"{child_page}"
                )
            self._check_node(child_page, child, is_root=False)
