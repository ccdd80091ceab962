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

Nodes live in pages of the shared :class:`~repro.storage.pager.Pager`;
query-time node reads go through the buffer pool (counted), while build
runs offline through :meth:`Pager.peek` (the paper also excludes index
construction from its query metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

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
class Entry:
    """One slot of a node: an MBR plus either a child page or a record."""

    low: np.ndarray
    high: np.ndarray
    child_page: Optional[int] = None
    record: Optional[LeafRecord] = None

    @property
    def rect(self) -> Rect:
        return self.low, self.high


@dataclass
class RStarNode:
    """A tree node; ``level`` 0 means leaf."""

    level: int
    entries: List[Entry] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> Rect:
        if not self.entries:
            raise IndexError_("cannot take the MBR of an empty node")
        return geometry.union_all(entry.rect for entry in self.entries)


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
        root = RStarNode(level=0)
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

    def read_node(self, page_id: int) -> RStarNode:
        """Query-time node read through the buffer pool (counted I/O).

        The ``index.probe`` span is read off the buffer pool's tracer so
        a tracer attached after construction (``db.set_tracer``) still
        covers every probe; any ``buffer.fetch`` the probe misses into
        nests inside it.
        """
        tracer = self._buffer.tracer
        if tracer.enabled:
            with tracer.span("index.probe", page=page_id):
                return self._buffer.get(page_id)
        return self._buffer.get(page_id)

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
        array = np.ascontiguousarray(point, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise IndexError_(
                f"point shape {array.shape} does not match index "
                f"dimensionality ({self.dimensions},)"
            )
        entry = Entry(low=array, high=array, record=record)
        self._insert_entry(entry, target_level=0, reinserted_levels=set())
        self._size += 1

    def _insert_entry(
        self, entry: Entry, target_level: int, reinserted_levels: Set[int]
    ) -> None:
        path = self._choose_path(entry.rect, target_level)
        node_page = path[-1]
        node = self._peek(node_page)
        node.entries.append(entry)
        self._write_back(node_page)
        self._handle_overflow(path, reinserted_levels)

    def _choose_path(self, rect: Rect, target_level: int) -> List[int]:
        """Page ids from the root down to the chosen node at target level."""
        path = [self.root_page]
        node = self._peek(self.root_page)
        while node.level > target_level:
            chosen = self._choose_subtree(node, rect)
            path.append(chosen.child_page)  # type: ignore[arg-type]
            node = self._peek(chosen.child_page)  # type: ignore[arg-type]
        return path

    #: R*'s published optimisation: evaluate overlap enlargement only for
    #: the entries with the smallest area enlargement.
    _OVERLAP_CANDIDATES = 32

    def _choose_subtree(self, node: RStarNode, rect: Rect) -> Entry:
        lows = np.stack([entry.low for entry in node.entries])
        highs = np.stack([entry.high for entry in node.entries])
        grown_lows = np.minimum(lows, rect[0])
        grown_highs = np.maximum(highs, rect[1])
        areas = np.prod(highs - lows, axis=1)
        enlargements = np.prod(grown_highs - grown_lows, axis=1) - areas

        if node.level > 1:
            # Minimise area enlargement; break ties on smaller area.
            order = np.lexsort((areas, enlargements))
            return node.entries[int(order[0])]

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
        return node.entries[best_index]

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
            if len(node.entries) > self.max_entries:
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
        if not child.entries:
            return
        low, high = child.mbr()
        for entry in parent.entries:
            if entry.child_page == child_page:
                entry.low = low
                entry.high = high
                self._write_back(parent_page)
                return

    def _reinsert(
        self,
        node_page: int,
        ancestor_path: List[int],
        reinserted_levels: Set[int],
    ) -> None:
        node = self._peek(node_page)
        node_rect = node.mbr()
        count = max(1, int(len(node.entries) * REINSERT_FRACTION))
        # Farthest-from-center entries leave the node ("far reinsert").
        node.entries.sort(
            key=lambda entry: geometry.center_distance_sq(
                entry.rect, node_rect
            )
        )
        evicted = node.entries[-count:]
        del node.entries[-count:]
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
        for entry in evicted:
            self._insert_entry(entry, node.level, reinserted_levels)

    def _split(self, node_page: int, ancestor_path: List[int]) -> None:
        node = self._peek(node_page)
        group_a, group_b = self._choose_split(node.entries)
        node.entries = group_a
        sibling = RStarNode(level=node.level, entries=group_b)
        kind = PageKind.INDEX_LEAF if node.is_leaf else PageKind.INDEX_INTERNAL
        # Structure maintenance beneath insert(); WAL-logged upstream.
        sibling_page = self._pager.allocate(kind, sibling)  # repro: ignore[RS009]
        self._pager.write(node_page, node)  # repro: ignore[RS009]
        if node_page == self.root_page:
            new_root = RStarNode(level=node.level + 1)
            low_a, high_a = node.mbr()
            low_b, high_b = sibling.mbr()
            new_root.entries = [
                Entry(low=low_a, high=high_a, child_page=node_page),
                Entry(low=low_b, high=high_b, child_page=sibling_page),
            ]
            self.root_page = self._pager.allocate(  # repro: ignore[RS009]
                PageKind.INDEX_INTERNAL, new_root
            )
            return
        parent_page = ancestor_path[-1]
        parent = self._peek(parent_page)
        low_b, high_b = sibling.mbr()
        parent.entries.append(
            Entry(low=low_b, high=high_b, child_page=sibling_page)
        )
        self._refresh_parent_mbr(parent_page, node_page)
        # Parent overflow, if any, is handled by the caller's bottom-up walk.

    def _choose_split(
        self, entries: List[Entry]
    ) -> Tuple[List[Entry], List[Entry]]:
        """R* split: margin-minimal axis, then overlap-minimal distribution.

        All candidate distributions along an ordering share prefix/suffix
        MBRs, so they are evaluated with running min/max scans instead of
        repeated unions.
        """
        m = self.min_entries
        lows = np.stack([entry.low for entry in entries])
        highs = np.stack([entry.high for entry in entries])
        count = len(entries)

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
        ordering, split_at = best_split
        group_a = [entries[int(i)] for i in ordering[:split_at]]
        group_b = [entries[int(i)] for i in ordering[split_at:]]
        return group_a, group_b

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
        array = np.ascontiguousarray(point, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise IndexError_(
                f"point shape {array.shape} does not match index "
                f"dimensionality ({self.dimensions},)"
            )
        path = self._find_leaf(self.root_page, array, record)
        if path is None:
            return False
        leaf_page = path[-1]
        leaf = self._peek(leaf_page)
        leaf.entries = [
            entry
            for entry in leaf.entries
            if not (
                entry.record == record and np.array_equal(entry.low, array)
            )
        ]
        self._write_back(leaf_page)
        self._condense(path)
        self._shrink_root()
        self._size -= 1
        return True

    def _find_leaf(
        self, page_id: int, array: np.ndarray, record: LeafRecord
    ) -> Optional[List[int]]:
        """Root-to-leaf page path of the entry holding ``record``."""
        node = self._peek(page_id)
        if node.is_leaf:
            for entry in node.entries:
                if entry.record == record and np.array_equal(
                    entry.low, array
                ):
                    return [page_id]
            return None
        for entry in node.entries:
            low, high = entry.rect
            if np.all(low <= array) and np.all(array <= high):
                below = self._find_leaf(entry.child_page, array, record)  # type: ignore[arg-type]
                if below is not None:
                    return [page_id, *below]
        return None

    def _condense(self, path: List[int]) -> None:
        """Eliminate underfull nodes bottom-up, reinserting orphans."""
        orphans: List[Tuple[int, List[Entry]]] = []
        for depth in range(len(path) - 1, 0, -1):
            node_page = path[depth]
            parent_page = path[depth - 1]
            node = self._peek(node_page)
            if len(node.entries) < self.min_entries:
                parent = self._peek(parent_page)
                parent.entries = [
                    entry
                    for entry in parent.entries
                    if entry.child_page != node_page
                ]
                self._write_back(parent_page)
                if node.entries:
                    orphans.append((node.level, list(node.entries)))
                self._free_page(node_page)
            else:
                self._refresh_parent_mbr(parent_page, node_page)
        reinserted: Set[int] = set()
        for level, entries in orphans:
            for entry in entries:
                self._insert_entry(
                    entry, target_level=level, reinserted_levels=reinserted
                )

    def _shrink_root(self) -> None:
        """Collapse an internal root down to its single surviving child."""
        while True:
            root = self._peek(self.root_page)
            if root.is_leaf:
                return
            if len(root.entries) == 1:
                child_page = root.entries[0].child_page
                old_root = self.root_page
                self.root_page = child_page  # type: ignore[assignment]
                self._free_page(old_root)
                continue
            if not root.entries:
                # Every subtree condensed away: become an empty leaf.
                root.level = 0
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
            entries = [
                Entry(
                    low=array[index],
                    high=array[index],
                    record=records[index],
                )
                for index in chunk
            ]
            node = RStarNode(level=0, entries=entries)
            # Offline bulk load (pre-seal, pre-WAL by definition).
            leaf_pages.append(self._pager.allocate(PageKind.INDEX_LEAF, node))  # repro: ignore[RS009]
        self._size = array.shape[0]

        level = 0
        pages = leaf_pages
        while len(pages) > 1:
            level += 1
            parents: List[int] = []
            for chunk in self._balanced_chunks(pages):
                entries = []
                for child_page in chunk:
                    low, high = self._peek(child_page).mbr()
                    entries.append(
                        Entry(low=low, high=high, child_page=child_page)
                    )
                node = RStarNode(level=level, entries=entries)
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

    def iter_leaf_entries(self) -> Iterator[Entry]:
        """Yield every leaf entry without I/O accounting."""
        stack = [self.root_page]
        while stack:
            node = self._peek(stack.pop())
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(
                    entry.child_page
                    for entry in node.entries
                    if entry.child_page is not None
                )

    def node_count(self) -> int:
        """Total number of nodes (offline walk)."""
        count = 0
        stack = [self.root_page]
        while stack:
            node = self._peek(stack.pop())
            count += 1
            if not node.is_leaf:
                stack.extend(
                    entry.child_page
                    for entry in node.entries
                    if entry.child_page is not None
                )
        return count

    def check_invariants(self) -> None:
        """Validate structure: MBR containment, fill factors, levels.

        Raises :class:`IndexError_` on the first violation.  Used heavily
        by unit and property tests.
        """
        root = self._peek(self.root_page)
        self._check_node(self.root_page, root, is_root=True)

    def _check_node(
        self, page_id: int, node: RStarNode, is_root: bool
    ) -> None:
        if not is_root and len(node.entries) < self.min_entries:
            raise IndexError_(
                f"node {page_id} underfull: {len(node.entries)} < "
                f"{self.min_entries}"
            )
        if len(node.entries) > self.max_entries:
            raise IndexError_(
                f"node {page_id} overfull: {len(node.entries)} > "
                f"{self.max_entries}"
            )
        if is_root and not node.is_leaf and len(node.entries) < 2:
            raise IndexError_("internal root must have >= 2 entries")
        for entry in node.entries:
            if node.is_leaf:
                if entry.record is None or entry.child_page is not None:
                    raise IndexError_(
                        f"leaf node {page_id} holds a non-record entry"
                    )
                continue
            if entry.child_page is None:
                raise IndexError_(
                    f"internal node {page_id} holds a record entry"
                )
            child = self._peek(entry.child_page)
            if child.level != node.level - 1:
                raise IndexError_(
                    f"level mismatch: node {page_id} level {node.level} -> "
                    f"child {entry.child_page} level {child.level}"
                )
            child_low, child_high = child.mbr()
            if np.any(child_low < entry.low) or np.any(
                child_high > entry.high
            ):
                raise IndexError_(
                    f"entry MBR of node {page_id} does not contain child "
                    f"{entry.child_page}"
                )
            self._check_node(entry.child_page, child, is_root=False)
