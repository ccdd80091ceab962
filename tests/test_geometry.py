"""Unit tests for MBR arithmetic (repro.index.geometry)."""

import numpy as np
import pytest

from repro.exceptions import UsageError
from repro.index import geometry


def rect(low, high):
    return np.asarray(low, dtype=float), np.asarray(high, dtype=float)


class TestBasics:
    def test_area_and_margin(self):
        r = rect([0, 0], [2, 3])
        assert geometry.area(r) == 6.0
        assert geometry.margin(r) == 5.0

    def test_union(self):
        low, high = geometry.union(rect([0, 0], [1, 1]), rect([2, -1], [3, 0]))
        assert low.tolist() == [0.0, -1.0]
        assert high.tolist() == [3.0, 1.0]

    def test_union_all(self):
        merged = geometry.union_all(
            [rect([0, 0], [1, 1]), rect([5, 5], [6, 6]), rect([-1, 2], [0, 3])]
        )
        assert merged[0].tolist() == [-1.0, 0.0]
        assert merged[1].tolist() == [6.0, 6.0]

    def test_union_all_empty_rejected(self):
        with pytest.raises(UsageError):
            geometry.union_all([])


class TestEnlargementOverlap:
    def test_enlargement_zero_when_contained(self):
        big = rect([0, 0], [10, 10])
        small = rect([1, 1], [2, 2])
        assert geometry.enlargement(big, small) == 0.0

    def test_enlargement_positive_when_growing(self):
        r = rect([0, 0], [1, 1])
        other = rect([2, 0], [3, 1])
        assert geometry.enlargement(r, other) == pytest.approx(2.0)

    def test_overlap_area(self):
        a = rect([0, 0], [2, 2])
        b = rect([1, 1], [3, 3])
        assert geometry.overlap_area(a, b) == 1.0

    def test_disjoint_overlap_zero(self):
        a = rect([0, 0], [1, 1])
        b = rect([2, 2], [3, 3])
        assert geometry.overlap_area(a, b) == 0.0

    def test_touching_edges_overlap_zero(self):
        a = rect([0, 0], [1, 1])
        b = rect([1, 0], [2, 1])
        assert geometry.overlap_area(a, b) == 0.0


class TestCentersAndDistances:
    def test_center(self):
        assert geometry.center(rect([0, 0], [2, 4])).tolist() == [1.0, 2.0]

    def test_center_distance_sq(self):
        a = rect([0, 0], [2, 2])
        b = rect([3, 4], [3, 4])
        assert geometry.center_distance_sq(a, b) == pytest.approx(
            (3 - 1) ** 2 + (4 - 1) ** 2
        )
