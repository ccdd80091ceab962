"""Unit tests for DualMatch index construction (repro.index.builder)."""

import numpy as np
import pytest

from repro.core.paa import paa
from repro.exceptions import ConfigurationError
from repro.index import builder
from repro.index.builder import build_index, iter_window_entries
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore


def make_store(lengths, seed=0, page_size=512):
    pager = Pager(page_size=page_size)
    buffer = BufferPool(pager, capacity_pages=8)
    store = SequenceStore(pager, buffer)
    rng = np.random.default_rng(seed)
    for sid, length in enumerate(lengths):
        store.add_sequence(sid, rng.standard_normal(length).cumsum())
    return store


class TestIterWindowEntries:
    @pytest.mark.parametrize(
        "stride, first_window, label_is_offset",
        [(16, 0, False), (4, 3, False), (1, 0, True), (1, 5, True)],
    )
    def test_equals_per_window_paa_bit_for_bit(
        self, monkeypatch, stride, first_window, label_is_offset
    ):
        # A block of 7 windows makes every case cross block boundaries.
        monkeypatch.setattr(builder, "_WINDOW_BLOCK", 7)
        values = np.random.default_rng(3).standard_normal(150).cumsum()
        got = list(
            iter_window_entries(
                9, values, 16, 4, stride, first_window=first_window
            )
        )
        windows = range(first_window, (150 - 16) // stride + 1)
        assert [(r.sid, r.window_index) for _, r in got] == [
            (9, w) for w in windows
        ]
        # Only under stride 1 (PSM's index) is a record's grid position
        # also the start offset of the window it labels.
        assert label_is_offset == all(
            point.tobytes()
            == paa(values[r.window_index : r.window_index + 16], 4).tobytes()
            for point, r in got
        )
        for (point, _), w in zip(got, windows):
            expected = paa(values[w * stride : w * stride + 16], 4)
            assert point.tobytes() == expected.tobytes()

    def test_short_sequence_has_no_windows(self):
        assert list(iter_window_entries(0, np.zeros(15), 16, 4, 16)) == []


class TestBuildIndex:
    def test_window_count(self):
        store = make_store([100, 64, 63])
        index = build_index(store, omega=16, features=4)
        # 100//16 + 64//16 + 63//16 = 6 + 4 + 3.
        assert index.num_indexed_windows == 13
        index.tree.check_invariants()

    def test_leaf_points_are_window_paa(self):
        store = make_store([64])
        index = build_index(store, omega=16, features=4)
        for leaf in index.tree.iter_leaves():
            for low, record in zip(leaf.lows, leaf.refs):
                window = store.peek_subsequence(
                    record.sid, record.window_index * 16, 16
                )
                np.testing.assert_allclose(low, paa(window, 4))

    def test_window_values_accessor(self):
        store = make_store([64])
        index = build_index(store, omega=16, features=4)
        record = next(index.tree.iter_leaves()).refs[0]
        values = index.window_values(record)
        assert values.size == 16

    def test_seg_len(self):
        store = make_store([64])
        index = build_index(store, omega=16, features=4)
        assert index.seg_len == 4

    def test_describe_fields(self):
        store = make_store([200, 200])
        index = build_index(store, omega=16, features=4)
        info = index.describe()
        assert info["sequences"] == 2
        assert info["indexed_windows"] == 24
        assert info["tree_height"] >= 1
        assert info["total_values"] == 400

    def test_invalid_omega(self):
        store = make_store([64])
        with pytest.raises(ConfigurationError):
            build_index(store, omega=0, features=4)

    def test_omega_must_divide_by_features(self):
        store = make_store([64])
        with pytest.raises(ConfigurationError):
            build_index(store, omega=10, features=4)

    def test_sequence_shorter_than_window_contributes_nothing(self):
        store = make_store([8, 64])
        index = build_index(store, omega=16, features=4)
        sids = {
            record.sid
            for leaf in index.tree.iter_leaves()
            for record in leaf.refs
        }
        assert sids == {1}
