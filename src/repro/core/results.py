"""Match records and the top-k collector shared by all engines.

Distances are tracked internally in p-th-power space (consistent with the
rest of the library); :class:`Match` exposes both forms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import QueryError


@dataclass(frozen=True, order=True)
class Match:
    """One ranked result: a data subsequence and its DTW distance.

    Ordering is by ``(distance, sid, start)`` so result lists are stable
    under ties.
    """

    distance: float
    sid: int
    start: int
    length: int

    @property
    def end(self) -> int:
        """Exclusive end offset of the matched subsequence."""
        return self.start + self.length

    def key(self) -> Tuple[int, int]:
        """Identity of the underlying subsequence."""
        return (self.sid, self.start)


class TopKCollector:
    """Maintains the best ``k`` matches seen so far and ``delta_cur``.

    ``delta_cur`` — the paper's name for the DTW distance of the current
    k-th best subsequence — is the pruning threshold every engine compares
    lower bounds against.  It is ``inf`` until ``k`` matches have been
    collected.

    The collector works in *p-th-power space*: :meth:`offer_pow` takes and
    :attr:`threshold_pow` returns powered distances, avoiding root
    round-trips inside engine hot loops.
    """

    def __init__(self, k: int, p: float = 2.0) -> None:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self._k = k
        self._p = p
        # Max-heap via negated powered distance; ties broken on (sid,
        # start) so behaviour is deterministic.
        self._heap: List[Tuple[float, int, int, int]] = []

    @property
    def k(self) -> int:
        return self._k

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self._k

    @property
    def threshold_pow(self) -> float:
        """``delta_cur ** p`` — infinite until ``k`` matches exist."""
        if len(self._heap) < self._k:
            return math.inf
        return -self._heap[0][0]

    @property
    def threshold(self) -> float:
        """``delta_cur`` in distance space."""
        pow_value = self.threshold_pow
        if math.isinf(pow_value):
            return math.inf
        return pow_value ** (1.0 / self._p)

    def offer_pow(self, distance_pow: float, sid: int, start: int) -> bool:
        """Offer a match with a powered distance; returns acceptance.

        A match is accepted when the collector is not yet full or it
        precedes the current k-th best under the **total order**
        ``(distance, sid, start)``.  Resolving equal-distance ties by
        ``(sid, start)`` — rather than in favour of the incumbent —
        makes the collected set a pure function of the offered
        candidates, independent of arrival order, so per-shard
        collectors merged by :mod:`repro.shard` agree byte-for-byte
        with a single-process run even when duplicated sequences
        produce exact distance ties.  Pruning semantics are unchanged:
        :attr:`threshold_pow` never moves on an equal-distance
        replacement, so ``<=`` prunes match the paper's algorithms.
        """
        if math.isinf(distance_pow):
            return False
        entry = (-distance_pow, -sid, -start, 0)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
            return True
        # Min-heap of negated keys: the root is the (distance, sid,
        # start)-maximal — i.e. worst — retained match.  Replace it iff
        # the newcomer strictly precedes it in the total order.
        if entry <= self._heap[0]:
            return False
        heapq.heapreplace(self._heap, entry)
        return True

    def matches(self, length: int) -> List[Match]:
        """The collected matches, best first, with rooted distances."""
        ordered = sorted(
            (-neg_pow, -neg_sid, -neg_start)
            for neg_pow, neg_sid, neg_start, _ in self._heap
        )
        return [
            Match(
                distance=pow_value ** (1.0 / self._p),
                sid=sid,
                start=start,
                length=length,
            )
            for pow_value, sid, start in ordered
        ]


class RangeCollector:
    """Collects every match within a fixed ``epsilon`` (range queries).

    Offers the same ``threshold_pow`` / :meth:`offer_pow` /
    :meth:`matches` surface as :class:`TopKCollector`, so one candidate
    cascade serves both query kinds; the threshold never moves and the
    result set is unbounded.
    """

    def __init__(self, epsilon: float, p: float = 2.0) -> None:
        self._p = p
        #: ``epsilon ** p`` — the constant pruning threshold.
        self.threshold_pow = epsilon**p
        self._found: List[Tuple[float, int, int]] = []

    def offer_pow(self, distance_pow: float, sid: int, start: int) -> bool:
        """Keep the match iff it lies within ``epsilon``."""
        if distance_pow > self.threshold_pow:
            return False
        self._found.append((distance_pow, sid, start))
        return True

    def matches(self, length: int) -> List[Match]:
        """Everything collected, best first, with rooted distances."""
        return sorted(
            Match(
                distance=distance_pow ** (1.0 / self._p),
                sid=sid,
                start=start,
                length=length,
            )
            for distance_pow, sid, start in self._found
        )
