"""Query envelopes (Definition 1 of the paper).

The envelope of a query ``Q`` under warping width ``rho`` is the pair of
sequences ``L`` and ``U`` where ``L[i]`` / ``U[i]`` are the minimum /
maximum of ``Q[i-rho : i+rho]`` (clamped at the ends).  Envelopes are what
make LB_Keogh/LB_PAA valid lower bounds for banded DTW (Lemma 1).

The sliding min/max is computed in O(n) with monotonic deques.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import QueryError


@dataclass(frozen=True)
class Envelope:
    """The envelope ``E(Q)`` — read-only lower and upper bound sequences."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if self.lower.shape != self.upper.shape:
            raise QueryError(
                f"envelope halves differ in shape: {self.lower.shape} vs "
                f"{self.upper.shape}"
            )

    def __len__(self) -> int:
        return int(self.lower.size)

    def slice(self, start: int, length: int) -> "Envelope":
        """The envelope restricted to ``[start, start + length)``.

        Sliding query windows use slices of the *full-query* envelope —
        window boundary elements keep seeing neighbours outside the
        window, exactly as the paper's ``E(q_i)`` notation implies.
        """
        if start < 0 or start + length > len(self):
            raise QueryError(
                f"envelope slice [{start}, {start + length}) out of bounds "
                f"for length {len(self)}"
            )
        return Envelope(
            lower=self.lower[start : start + length],
            upper=self.upper[start : start + length],
        )


def _sliding_extreme(values: np.ndarray, rho: int, take_max: bool) -> np.ndarray:
    """O(n) sliding max (or min) over the window ``[i - rho, i + rho]``."""
    n = values.size
    out = np.empty(n, dtype=np.float64)
    window: deque = deque()  # indices; values monotone along the deque
    data = values.tolist()

    def dominated(candidate: float, incumbent: float) -> bool:
        return candidate >= incumbent if take_max else candidate <= incumbent

    # The window for output i is [i - rho, i + rho]; process arrivals in
    # order, emitting output i once index i + rho has arrived.
    for arriving in range(n + rho):
        if arriving < n:
            value = data[arriving]
            while window and dominated(value, data[window[-1]]):
                window.pop()
            window.append(arriving)
        emit = arriving - rho
        if 0 <= emit < n:
            while window[0] < emit - rho:
                window.popleft()
            out[emit] = data[window[0]]
    return out


def query_envelope(q: Sequence[float], rho: int) -> Envelope:
    """Build ``E(Q)`` for warping width ``rho``.

    >>> env = query_envelope([1.0, 5.0, 2.0], rho=1)
    >>> env.upper.tolist()
    [5.0, 5.0, 5.0]
    >>> env.lower.tolist()
    [1.0, 1.0, 2.0]
    """
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    array = np.ascontiguousarray(q, dtype=np.float64)
    if array.ndim != 1 or array.size == 0:
        raise QueryError(
            f"query must be a non-empty 1-D sequence, got shape {array.shape}"
        )
    if rho == 0:
        lower = array.copy()
        upper = array.copy()
    else:
        lower = _sliding_extreme(array, rho, take_max=False)
        upper = _sliding_extreme(array, rho, take_max=True)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return Envelope(lower=lower, upper=upper)


def envelope_batch(
    rows: Sequence[Sequence[float]], rho: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Envelopes for a batch of equal-length sequences at once.

    Returns ``(lower, upper)`` arrays of shape ``(B, n)``; row ``b`` is
    exactly ``query_envelope(rows[b], rho)`` (min/max are
    order-insensitive, so the vectorized sliding window is bit-exact
    against the deque-based single-sequence path).

    Implemented with a strided sliding-window view over ±inf-padded
    rows: O(n * min(2 rho + 1, n)) work but no Python-level loop, which
    beats the deque for batches even at moderate ``rho``.
    """
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    array = np.ascontiguousarray(rows, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] == 0:
        raise QueryError(
            f"batch must be 2-D with non-empty rows, got shape {array.shape}"
        )
    if rho == 0:
        return array.copy(), array.copy()
    # Window [i - rho, i + rho] clamps at the ends; padding with the
    # identity element of each extreme keeps the window width fixed.
    span = 2 * rho + 1
    pad = ((0, 0), (rho, rho))
    padded = np.pad(array, pad, constant_values=np.inf)
    lower = np.lib.stride_tricks.sliding_window_view(padded, span, axis=1).min(
        axis=2
    )
    padded = np.pad(array, pad, constant_values=-np.inf)
    upper = np.lib.stride_tricks.sliding_window_view(padded, span, axis=1).max(
        axis=2
    )
    return lower, upper
