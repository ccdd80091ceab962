"""Unit tests for MBR arithmetic (repro.index.geometry)."""

import numpy as np
import pytest

from repro.index import geometry


def rect(low, high):
    return np.asarray(low, dtype=float), np.asarray(high, dtype=float)


class TestBasics:
    def test_area(self):
        assert geometry.area(rect([0, 0], [2, 3])) == 6.0


class TestEnlargementOverlap:
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
