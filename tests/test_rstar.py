"""Unit tests for the R*-tree (repro.index.rstar)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, IndexError_
from repro.index.rstar import LeafRecord, RStarNode, RStarTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager


def make_tree(dimensions=2, max_entries=8):
    pager = Pager(page_size=4096)
    buffer = BufferPool(pager, capacity_pages=16)
    tree = RStarTree(
        pager, buffer, dimensions=dimensions, max_entries=max_entries
    )
    return pager, buffer, tree


def insert_grid(tree, count, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((count, tree.dimensions))
    for index, point in enumerate(points):
        tree.insert(point, LeafRecord(sid=0, window_index=index))
    return points


def leaf_windows(tree):
    """Window index of every leaf row."""
    return {
        record.window_index
        for leaf in tree.iter_leaves()
        for record in leaf.refs
    }


class TestConstruction:
    def test_empty_tree(self):
        _pager, _buffer, tree = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.node_count() == 1

    def test_fanout_from_page_geometry(self):
        pager = Pager(page_size=4096)
        buffer = BufferPool(pager, 4)
        tree = RStarTree(pager, buffer, dimensions=4)
        assert tree.max_entries == 53
        assert tree.blocking_factor == 53

    def test_rejects_bad_config(self):
        pager = Pager()
        buffer = BufferPool(pager, 4)
        with pytest.raises(ConfigurationError):
            RStarTree(pager, buffer, dimensions=0)
        with pytest.raises(ConfigurationError):
            RStarTree(pager, buffer, dimensions=2, max_entries=3)


class TestInsertion:
    def test_all_records_present_after_inserts(self):
        _pager, _buffer, tree = make_tree()
        insert_grid(tree, 200)
        assert leaf_windows(tree) == set(range(200))
        assert len(tree) == 200

    def test_invariants_hold_after_growth(self):
        _pager, _buffer, tree = make_tree()
        insert_grid(tree, 300)
        tree.check_invariants()
        assert tree.height >= 3

    def test_duplicate_points_allowed(self):
        _pager, _buffer, tree = make_tree()
        point = np.array([0.5, 0.5])
        for index in range(50):
            tree.insert(point, LeafRecord(sid=1, window_index=index))
        tree.check_invariants()
        assert len(tree) == 50

    def test_sequential_correlated_inserts(self):
        # Time-series PAA points arrive in correlated order; the R*
        # heuristics must still produce a valid tree.
        _pager, _buffer, tree = make_tree()
        for index in range(150):
            point = np.array([index * 0.01, np.sin(index * 0.1)])
            tree.insert(point, LeafRecord(sid=0, window_index=index))
        tree.check_invariants()

    def test_dimension_mismatch_rejected(self):
        _pager, _buffer, tree = make_tree(dimensions=3)
        with pytest.raises(IndexError_):
            tree.insert(np.zeros(2), LeafRecord(0, 0))

    def test_node_count_grows_with_splits(self):
        _pager, _buffer, tree = make_tree(max_entries=4)
        insert_grid(tree, 60)
        assert tree.node_count() > 10
        tree.check_invariants()


class TestBulkLoad:
    def test_str_pack_preserves_records_and_invariants(self):
        _pager, _buffer, tree = make_tree(max_entries=8)
        rng = np.random.default_rng(1)
        points = rng.random((500, 2))
        records = [LeafRecord(0, i) for i in range(500)]
        tree.bulk_load(points, records)
        tree.check_invariants()
        assert len(tree) == 500
        assert leaf_windows(tree) == set(range(500))

    def test_bulk_load_single_leaf(self):
        _pager, _buffer, tree = make_tree(max_entries=8)
        tree.bulk_load(np.zeros((3, 2)), [LeafRecord(0, i) for i in range(3)])
        assert tree.height == 1
        tree.check_invariants()

    def test_bulk_load_empty_is_noop(self):
        _pager, _buffer, tree = make_tree()
        tree.bulk_load(np.zeros((0, 2)), [])
        assert len(tree) == 0

    def test_bulk_load_requires_empty_tree(self):
        _pager, _buffer, tree = make_tree()
        tree.insert(np.zeros(2), LeafRecord(0, 0))
        with pytest.raises(IndexError_):
            tree.bulk_load(np.zeros((2, 2)), [LeafRecord(0, 1)] * 2)

    def test_bulk_load_validates_shapes(self):
        _pager, _buffer, tree = make_tree(dimensions=3)
        with pytest.raises(IndexError_):
            tree.bulk_load(np.zeros((4, 2)), [LeafRecord(0, 0)] * 4)
        with pytest.raises(IndexError_):
            tree.bulk_load(np.zeros((4, 3)), [LeafRecord(0, 0)] * 3)

    def test_str_leaves_are_spatially_tight(self):
        # STR packing should produce far less leaf overlap than a
        # random-order insertion pile-up: compare total leaf MBR area.
        rng = np.random.default_rng(2)
        points = rng.random((400, 2))
        records = [LeafRecord(0, i) for i in range(400)]

        _p1, _b1, packed = make_tree(max_entries=8)
        packed.bulk_load(points, records)

        def leaf_area_sum(tree):
            total = 0.0
            stack = [tree.root_page]
            while stack:
                node = tree._pager.peek(stack.pop())
                if node.is_leaf:
                    low, high = node.mbr()
                    total += float(np.prod(high - low))
                else:
                    stack.extend(node.refs)
            return total

        assert leaf_area_sum(packed) < 2.0  # unit square, tight tiles

    def test_multi_level_bulk_load(self):
        _pager, _buffer, tree = make_tree(max_entries=4)
        rng = np.random.default_rng(3)
        count = 300
        tree.bulk_load(
            rng.random((count, 2)), [LeafRecord(0, i) for i in range(count)]
        )
        assert tree.height >= 3
        tree.check_invariants()


class TestReads:
    def test_read_node_counts_io(self):
        pager, buffer, tree = make_tree()
        insert_grid(tree, 50)
        buffer.clear()
        pager.stats.reset()
        tree.read_node(tree.root_page)
        assert pager.stats.physical_reads == 1
        tree.read_node(tree.root_page)  # buffered now
        assert pager.stats.physical_reads == 1

    def test_mbrs_contain_children_everywhere(self):
        _pager, _buffer, tree = make_tree(max_entries=5)
        points = insert_grid(tree, 120, seed=3)
        tree.check_invariants()  # includes containment checks
        # Every point is inside the root MBR.
        root = tree.read_node(tree.root_page)
        low, high = root.mbr()
        assert np.all(points >= low - 1e-12)
        assert np.all(points <= high + 1e-12)


class TestNodeColumns:
    def test_mbr_spans_every_row(self):
        node = RStarNode(
            1,
            np.array([[0.0, 0.0], [5.0, 5.0], [-1.0, 2.0]]),
            np.array([[1.0, 1.0], [6.0, 6.0], [0.0, 3.0]]),
            [3, 4, 5],
        )
        low, high = node.mbr()
        assert low.tolist() == [-1.0, 0.0]
        assert high.tolist() == [6.0, 6.0]

    def test_mbr_of_empty_node_rejected(self):
        with pytest.raises(IndexError_):
            RStarNode.leaf(np.empty((0, 2)), []).mbr()

    def test_leaf_highs_is_lows(self):
        _pager, _buffer, inserted = make_tree(max_entries=4)
        insert_grid(inserted, 60)
        _pager, _buffer, packed = make_tree(max_entries=4)
        packed.bulk_load(
            np.random.default_rng(4).random((60, 2)),
            [LeafRecord(0, i) for i in range(60)],
        )
        for tree in (inserted, packed):
            leaves = list(tree.iter_leaves())
            assert sum(len(leaf.refs) for leaf in leaves) == 60
            assert all(leaf.highs is leaf.lows for leaf in leaves)

    def test_take_and_append_keep_the_leaf_share(self):
        leaf = RStarNode.leaf(
            np.arange(6.0).reshape(3, 2), [LeafRecord(0, i) for i in range(3)]
        )
        taken = leaf.take(np.array([2, 0]))
        assert taken.lows.tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert taken.refs == [(0, 2), (0, 0)]
        taken.append(np.array([9.0, 9.0]), np.array([9.0, 9.0]), (0, 7))
        assert taken.highs is taken.lows and len(taken.refs) == 3
        assert leaf.lows.shape == (3, 2)  # the source is untouched


class TestInvariantColumns:
    """``check_invariants`` (and so ``repro scrub``) reads the columns."""

    @pytest.fixture()
    def tree(self):
        _pager, _buffer, tree = make_tree(max_entries=4)
        insert_grid(tree, 40)
        tree.check_invariants()
        return tree

    def test_columns_of_different_length(self, tree):
        leaf = next(tree.iter_leaves())
        leaf.refs = leaf.refs[:-1]
        with pytest.raises(IndexError_, match="columns disagree"):
            tree.check_invariants()

    def test_leaf_highs_differ_from_lows(self, tree):
        leaf = next(tree.iter_leaves())
        # Lowered, so the parent's MBR still contains the leaf's.
        leaf.highs = leaf.lows - 1e-3
        with pytest.raises(IndexError_, match="highs differ"):
            tree.check_invariants()
