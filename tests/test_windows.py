"""Unit tests for windowing and MSEQ partitioning (repro.core.windows)."""

import numpy as np
import pytest

from repro.core.windows import (
    QueryWindowSet,
    candidate_in_bounds,
    candidate_start,
)
from repro.exceptions import QueryTooShortError


class TestCandidateArithmetic:
    def test_paper_lemma3_offsets(self):
        # 0-based form of the Lemma 3 proof: data window m matched by
        # sliding window at offset j implies start = m*omega - j.
        assert candidate_start(4, 0, 4) == 16
        assert candidate_start(4, 3, 4) == 13

    def test_bounds(self):
        assert candidate_in_bounds(0, 11, 27)
        assert candidate_in_bounds(16, 11, 27)
        assert not candidate_in_bounds(17, 11, 27)
        assert not candidate_in_bounds(-1, 11, 27)


class TestQueryWindowSet:
    @pytest.fixture()
    def window_set(self):
        # The paper's running example: Len(Q)=11 (well, scaled to be
        # PAA-compatible we use omega=4, f=2), omega=4 -> 8 sliding
        # windows in 4 equivalence classes of 2.
        rng = np.random.default_rng(0)
        return QueryWindowSet.from_query(
            rng.standard_normal(11), omega=4, features=2, rho=1
        )

    def test_window_and_class_counts_match_paper_example(self, window_set):
        assert len(window_set.windows) == 8
        assert window_set.num_classes == 4
        assert [len(cls) for cls in window_set.classes] == [2, 2, 2, 2]

    def test_class_membership_is_offset_mod_omega(self, window_set):
        for window in window_set.windows:
            assert window.mseq_class == window.sliding_offset % 4
            assert window.mseq_position == window.sliding_offset // 4

    def test_class_of(self, window_set):
        assert window_set.class_of(6) is window_set.classes[2]

    def test_paa_windows_use_full_query_envelope(self):
        # Window envelopes must be slices of the full envelope: the
        # first element of window at offset 2 sees query[2-rho].
        q = np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        ws = QueryWindowSet.from_query(q, omega=4, features=4, rho=1)
        window = ws.windows[1]  # offset 1: envelope upper[1] sees q[0]
        assert window.paa_upper[0] == 10.0

    def test_too_short_query_rejected(self):
        with pytest.raises(QueryTooShortError):
            QueryWindowSet.from_query(
                np.zeros(6), omega=4, features=2, rho=1
            )

    def test_minimum_length_accepted(self):
        ws = QueryWindowSet.from_query(
            np.zeros(7), omega=4, features=2, rho=1
        )
        # Classes 0..3 hold windows at offsets 0..3 (one each).
        assert [len(cls) for cls in ws.classes] == [1, 1, 1, 1]

    def test_seg_len(self, window_set):
        assert window_set.seg_len == 2
        assert window_set.length == 11
