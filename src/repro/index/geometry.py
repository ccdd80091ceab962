"""Minimum bounding rectangle arithmetic.

Rectangles are plain ``(low, high)`` pairs of 1-D float64 numpy arrays;
keeping them unboxed keeps the R*-tree's split heuristics cheap.  All
functions are pure.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

Rect = Tuple[np.ndarray, np.ndarray]


def area(rect: Rect) -> float:
    """Product of side lengths (0 for degenerate rectangles)."""
    return float(np.prod(rect[1] - rect[0]))


def overlap_area(a: Rect, b: Rect) -> float:
    """Area of the intersection (0 when disjoint)."""
    low = np.maximum(a[0], b[0])
    high = np.minimum(a[1], b[1])
    sides = high - low
    if np.any(sides <= 0.0):
        return 0.0
    return float(np.prod(sides))


def center(rect: Rect) -> np.ndarray:
    """Geometric center of a rectangle."""
    return (rect[0] + rect[1]) * 0.5


def center_distance_sq(a: Rect, b: Rect) -> float:
    """Squared distance between rectangle centers (reinsert ordering)."""
    gap = center(a) - center(b)
    return float(np.dot(gap, gap))
