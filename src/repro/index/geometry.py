"""Minimum bounding rectangle arithmetic.

Rectangles are plain ``(low, high)`` pairs of 1-D float64 numpy arrays;
keeping them unboxed keeps the R*-tree's split heuristics cheap.  All
functions are pure.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.exceptions import UsageError

Rect = Tuple[np.ndarray, np.ndarray]


def union(a: Rect, b: Rect) -> Rect:
    """Smallest rectangle covering both inputs."""
    return np.minimum(a[0], b[0]), np.maximum(a[1], b[1])


def union_all(rects: Iterable[Rect]) -> Rect:
    """Smallest rectangle covering every input (at least one required)."""
    iterator = iter(rects)
    try:
        low, high = next(iterator)
    except StopIteration:
        raise UsageError(
            "union_all needs at least one rectangle"
        ) from None
    low = low.copy()
    high = high.copy()
    for other_low, other_high in iterator:
        np.minimum(low, other_low, out=low)
        np.maximum(high, other_high, out=high)
    return low, high


def area(rect: Rect) -> float:
    """Product of side lengths (0 for degenerate rectangles)."""
    return float(np.prod(rect[1] - rect[0]))


def margin(rect: Rect) -> float:
    """Sum of side lengths — the R* split criterion's "perimeter"."""
    return float(np.sum(rect[1] - rect[0]))


def enlargement(rect: Rect, addition: Rect) -> float:
    """Area growth of ``rect`` needed to also cover ``addition``."""
    grown_low = np.minimum(rect[0], addition[0])
    grown_high = np.maximum(rect[1], addition[1])
    return float(np.prod(grown_high - grown_low)) - area(rect)


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
