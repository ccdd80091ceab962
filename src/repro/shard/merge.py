"""Merging per-shard answers back into one exact result.

This is the paper's multi-way ranked union (`∪_r`, Lemma 6) applied one
level up: each shard runs the full single-process operator tree over
its own sequences, and this module merges the per-shard outputs.  The
exactness argument is the same as for the in-process union:

* **Top-k** — a shard's local top-k contains every *global* top-k
  member stored on that shard (local competition is a subset of global
  competition, so the local threshold is never tighter than the global
  one; nor is the fan-out's shared
  :class:`~repro.control.KthBound`, the k-th distance of ``k`` real
  matches, and it only dismisses strictly above itself).
  Concatenating per-shard top-ks and keeping the ``k`` smallest
  under the total order ``(distance, sid, start)`` therefore yields
  exactly the unsharded answer, ties included.
* **Streams** — per-shard
  :class:`~repro.engines.ranked_union.MatchStream` emission is
  nondecreasing in that total order, so a k-way heap over the stream
  heads emits the global ranked sequence, also nondecreasing.
* **Certificates** — when shard ``i`` is interrupted, its certificate
  ``c_i`` lower-bounds every candidate it left unexamined; candidates
  on completed shards were all examined.  Any unexamined candidate
  anywhere therefore has true distance ``>= min_i c_i`` — the global
  certificate is the min over per-shard certificates (completed shards
  contribute ``inf``), exactly the "min over alive frontiers" rule the
  in-process union uses.  A shard lost wholesale (worker crash under
  the degrade policy) has certified nothing, so it contributes ``0.0``
  — the merged result stays honest by claiming no exactness at all
  below the surviving shards' answers.

Merged :class:`~repro.core.metrics.QueryStats` are *sums* over shards
(``wall_time_s`` included — it measures aggregate work, not latency);
the per-shard breakdown rides along in the result's ``shard_stats`` so
callers and tests can check that per-shard NUM_IO adds up to the merged
counter.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import single_query
from repro.core.metrics import QueryStats
from repro.core.results import Match
from repro.engines.base import (
    FaultEvent,
    FaultReport,
    PartialResult,
    RankedStream,
    SearchResult,
    prefix_certificate,
)
from repro.engines.ranked_union import MatchStream

#: Interrupt reason recorded when an entire shard failed and the
#: degrade policy kept the query alive on the survivors.
REASON_SHARD_LOST = "shard:lost"


@dataclass(frozen=True)
class LostShard:
    """One shard that produced no answer at all (worker crash/unreadable)."""

    shard: int
    detail: str


def _merged_fault_report(
    outcomes: Sequence[Tuple[int, SearchResult]],
    lost: Sequence[LostShard],
) -> Optional[FaultReport]:
    events: List[FaultEvent] = []
    suppressed = 0
    for shard, outcome in outcomes:
        if outcome.fault_report is not None:
            events.extend(outcome.fault_report.events)
            suppressed += outcome.fault_report.suppressed
    for loss in lost:
        events.append(
            FaultEvent(error="ShardLost", detail=loss.detail)
        )
    if not events and suppressed == 0:
        return None
    return FaultReport(events=events, suppressed=suppressed)


def merge_search_results(
    outcomes: Sequence[Tuple[int, SearchResult]],
    k: Optional[int],
    lost: Sequence[LostShard] = (),
) -> SearchResult:
    """Compose per-shard (shard, result) pairs into the global answer.

    ``k=None`` merges without truncation (range search).  The result
    carries the per-shard counters in ``shard_stats``.  It is a
    :class:`~repro.engines.base.PartialResult` when any shard was
    interrupted or lost: the ``certificate`` composes shard-wise (min
    over per-shard certificates; a lost shard contributes 0.0) and keeps
    that class's contract — every unexamined candidate anywhere in the
    sharded store has true distance at or above it.
    """
    matches: List[Match] = []
    stats = QueryStats()
    shard_stats: Dict[int, QueryStats] = {}
    reasons: List[str] = []
    certificate = math.inf
    for shard, outcome in outcomes:
        matches.extend(outcome.matches)
        stats.merge(outcome.stats)
        shard_stats[shard] = outcome.stats
        if isinstance(outcome, PartialResult):
            certificate = min(certificate, outcome.certificate)
            if outcome.reason and outcome.reason not in reasons:
                reasons.append(outcome.reason)
    matches.sort()
    if k is not None:
        matches = matches[:k]
    report = _merged_fault_report(outcomes, lost)
    degraded = report is not None
    if lost:
        certificate = 0.0
        if REASON_SHARD_LOST not in reasons:
            reasons.append(REASON_SHARD_LOST)
    merged = SearchResult(
        matches=matches,
        stats=stats,
        degraded=degraded,
        fault_report=report,
        shard_stats=shard_stats,
    )
    if not reasons and math.isinf(certificate):
        return merged
    stats.interrupted = max(stats.interrupted, 1)
    return PartialResult(
        **vars(merged),
        reason=",".join(sorted(reasons)),
        certificate=certificate,
    )


@single_query
class ShardedMatchStream(RankedStream):
    """K-way ranked-union merge over per-shard match streams.

    The sharded analogue of
    :class:`~repro.engines.ranked_union.MatchStream`: iterate
    for up to ``k`` globally ranked matches (nondecreasing in
    ``(distance, sid, start)``); after the stream ends — naturally,
    via :meth:`close`, or because shards were interrupted or ``lost``
    — :attr:`result` is the
    :func:`merge_search_results` composition of the per-shard stream
    results over the emitted prefix, so the same post-hoc diagnostics
    are available, plus the per-shard :attr:`shard_stats` breakdown.
    """

    def __init__(
        self,
        streams: Sequence[Tuple[int, MatchStream]],
        k: int,
        lost: Sequence[LostShard] = (),
    ) -> None:
        self._streams = list(streams)
        self._k = k
        self._lost = lost
        self._emitted = 0
        #: (distance, sid, start, shard position) heap of stream heads.
        self._heads: List[Tuple[float, int, int, int, Match]] = []
        for position in range(len(self._streams)):
            self._pull(position)

    def _pull(self, position: int) -> None:
        """Advance one shard stream and push its new head, if any."""
        _, stream = self._streams[position]
        try:
            head = next(stream)
        except StopIteration:
            return
        heapq.heappush(
            self._heads,
            (head.distance, head.sid, head.start, position, head),
        )

    def __next__(self) -> Match:
        if self.result is not None:
            raise StopIteration
        if self._emitted >= self._k or not self._heads:
            self._finalize()
            raise StopIteration
        _, _, _, position, head = heapq.heappop(self._heads)
        self._pull(position)
        self._emitted += 1
        return head

    @property
    def shard_stats(self) -> Dict[int, QueryStats]:
        """Per-shard counters (empty until the stream ends)."""
        return {} if self.result is None else self.result.shard_stats

    def _finalize(self) -> None:
        outcomes: List[Tuple[int, SearchResult]] = []
        for shard, stream in self._streams:
            stream.close()
            assert stream.result is not None
            outcomes.append((shard, stream.result))
        # Per-shard emission is nondecreasing, so the first ``emitted``
        # of the merged per-shard prefixes are exactly what was yielded.
        result = merge_search_results(
            outcomes, k=self._emitted, lost=self._lost
        )
        if isinstance(result, PartialResult):
            # Heads pulled from a shard but never yielded sit at or
            # above the last yielded distance.
            result.certificate = prefix_certificate(
                result.certificate, result.matches
            )
        self.result = result
