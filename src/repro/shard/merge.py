"""One ranked union over every shard, and merging per-shard answers.

This is the paper's multi-way ranked union (`∪_r`, Def. 5, Lemma 6)
applied across shards: every shard run of one fan-out offers to **one**
collector, so each ``Φ_i`` prunes against one ``delta_cur``.  For
``ru`` / ``ru-cost`` the union is literal: :class:`UnionFanOut` puts
every live shard's ``Φ_i`` under **one** union, driven in the calling
thread.  Each ``Φ_i`` keeps its own shard's index, buffer pool,
``QueryStats`` and ``CandidateEvaluator``.  The union always advances
the child with the least ``CLB`` and stops once every child's bound
exceeds ``delta_cur``, so the answer is the unsharded top-k, ties
included, and a stream emits straight from the union in nondecreasing
``(distance, sid, start)`` order.  The other methods and range queries
run one whole search per shard, one shard after another in the calling
thread (:meth:`~repro.shard.database.ShardedDatabase._fan_out`), into
the same kind of shared collector.  Either way the answer is the
collector's and :func:`merge_search_results` composes the rest:

* **Certificates** — when shard ``i`` is interrupted, its certificate
  ``c_i`` lower-bounds every candidate it left unexamined; candidates
  on completed shards were all examined.  Any unexamined candidate
  anywhere therefore has true distance ``>= min_i c_i`` — the global
  certificate is the min over per-shard certificates (completed shards
  contribute ``inf``), exactly the "min over alive frontiers" rule the
  in-process union uses.  A shard lost wholesale (a crash under the
  degrade policy) has certified nothing, so it contributes ``0.0`` —
  the merged result stays honest by claiming no exactness at all below
  the surviving shards' answers.
* **Top-k** — given per-shard top-ks, keeping the ``k`` smallest of
  their concatenation under the total order ``(distance, sid, start)``
  yields the global top-k, ties included.  No fan-out needs this any
  more (each shares one collector); the end-to-end bench times it on a
  captured sharded answer.

Merged :class:`~repro.core.metrics.QueryStats` are *sums* over shards
(``wall_time_s`` included — it measures aggregate work, not latency: a
shard's time is what it spent in its own union steps and deferred
drains, or its whole run when the shards run one after another, so
the sum stays within the caller's latency); the
per-shard breakdown rides along in the result's ``shard_stats`` so
callers and tests can check that per-shard NUM_IO adds up to the merged
counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import single_query
from repro.control import ExecutionControl
from repro.core.metrics import QueryStats
from repro.core.results import Match, TopKCollector
from repro.core.windows import QueryWindowSet
from repro.engines.base import (
    FaultEvent,
    FaultReport,
    PartialResult,
    QueryRun,
    QuerySpec,
    SearchResult,
)
from repro.engines.operators import Status, StepResult
from repro.engines.ranked_union import MatchStream, PhiOperator, UnionOperator
from repro.exceptions import ExecutionInterrupted, StorageError
from repro.index.builder import DualMatchIndex

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

    ``k=None`` merges without truncation; the fan-outs pass it and set
    the answer from their shared collector.  ``k`` keeps the ``k`` best
    matches: only the frozen end-to-end bench passes it, to time the
    merge of per-shard top-ks.  The result carries the per-shard
    counters in ``shard_stats``.  It is a
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




@dataclass
class _Shard:
    """One live shard of a :class:`UnionFanOut`: its index and its run.

    ``over`` is set once the shard's run has ended early: a storage
    error lost it, or, under ``on_fault="raise"``, ended the query.
    """

    number: int
    index: DualMatchIndex
    run: QueryRun
    over: bool = False


class _ShardPhi(PhiOperator):
    """A ``Φ_i`` of one shard under a fan-out's union.

    Each step runs inside its shard's run, so the shard's root span is
    current and the step's time is the shard's.  Once its shard's run is
    over it reports EOR.
    """

    def __init__(
        self, fan_out: "UnionFanOut", shard: _Shard, **fields: Any
    ) -> None:
        super().__init__(**fields)
        self._fan_out = fan_out
        self._shard = shard

    def get_next(self) -> StepResult:
        step = self._fan_out.advance(self._shard, super().get_next)
        return (Status.EOR, None) if step is None else step


@single_query
class UnionFanOut:
    """A ranked-union spec on every live shard, as one union.

    ``sources`` are the live shards' ``(number, index)`` pairs in shard
    order, and ``lost`` the shards already lost before the run.  Every
    shard gets a :class:`~repro.engines.base.QueryRun` under its own
    :meth:`~repro.control.ExecutionControl.derive` of ``control``.  The
    runs share ``window_set`` and one collector, and the union is built
    over all of their ``Φ_i``, shard by shard.

    The union checkpoints through :meth:`checkpoint`, which checkpoints
    every live shard's control.  The deadline and the token are shared.
    A budget cap binds each shard's own counters, so the first shard
    over its cap ends the whole union.  Every shard's control records
    the union frontier, so the merged certificate of an interrupted
    fan-out is that frontier, or the smallest pending deferred bound of
    any shard if that is lower.

    A storage error escaping a shard's step or drain follows
    ``spec.on_fault``: ``"raise"`` finishes the other shards' runs and
    propagates it, ``"degrade"`` drops the shard, whose children then
    report EOR and whose certificate is ``0.0``.  Matches it verified
    before it was lost stay in the answer.

    A :class:`ShardedMatchStream` advances the union inside
    ``with fan_out:``, once per pull, as it would a
    :class:`~repro.engines.base.QueryRun`; each step enters its own
    shard's run (:meth:`advance`).  Each shard's RU-COST scheduler
    prices pages by its own run's image of its shard's pool, so
    fan-outs on one database run side by side.
    """

    def __init__(
        self,
        sources: Sequence[Tuple[int, DualMatchIndex]],
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
        window_set: QueryWindowSet,
        lost: Sequence[LostShard],
        engine: str,
    ) -> None:
        self.spec = spec
        self.window_set = window_set
        self._lost = list(lost)
        #: Limited checkpoints record trace events, which belong under
        #: the shard's root span: only then is a checkpoint worth
        #: entering the shard's run for.
        self._traced_checkpoints = control.tracer.enabled and control.limited
        self._collector = TopKCollector(spec.k, p=spec.p)
        self._shards = [
            _Shard(
                number,
                index,
                QueryRun(
                    index, query, spec, control.derive(), engine,
                    window_set=window_set, collector=self._collector,
                ),
            )
            for number, index in sources
        ]
        self.union = UnionOperator(
            [
                _ShardPhi(
                    self,
                    shard,
                    class_index=class_index,
                    window_set=window_set,
                    index=shard.index,
                    evaluator=shard.run.evaluator,
                    spec=spec,
                    method=spec.method,
                )
                for shard in self._shards
                for class_index in range(window_set.num_classes)
                if window_set.classes[class_index]
            ],
            self,
            self._collector,
        )

    def advance(
        self, shard: _Shard, step: Callable[[], Any]
    ) -> Optional[Any]:
        """``step()`` inside ``shard``'s run; ``None`` once it is over."""
        if shard.over:
            return None
        try:
            with shard.run:
                return step()
        except StorageError as error:
            # The error closed the shard's root on its way out.
            shard.over = True
            if self.spec.on_fault != "degrade":
                for other in self._shards:
                    if not other.over:
                        other.over = True
                        other.run.finish([])
                raise
            self._lost.append(
                LostShard(shard=shard.number, detail=str(error))
            )
            return None

    def checkpoint(self, frontier_pow: Optional[float] = None) -> None:
        """The union's checkpoint: every live shard's limits, each
        recording ``frontier_pow`` for its certificate."""
        for shard in self._shards:
            if shard.over:
                continue
            if self._traced_checkpoints:
                with shard.run:
                    shard.run.control.checkpoint(frontier_pow)
            else:
                shard.run.control.checkpoint(frontier_pow)

    def search(self) -> SearchResult:
        """Run the union to EOR, drain every shard's deferred buffer, and
        return the merged top-k."""
        interrupt: Optional[ExecutionInterrupted] = None
        with self:
            try:
                while self.union.get_next()[0] != Status.EOR:
                    pass
                for shard in self._shards:
                    self.advance(shard, shard.run.evaluator.finalize)
            except ExecutionInterrupted as signal:
                interrupt = signal
        return self.finish(
            self._collector.matches(self.window_set.length), interrupt
        )

    def __enter__(self) -> "UnionFanOut":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def finish(
        self,
        matches: List[Match],
        interrupt: Optional[ExecutionInterrupted] = None,
    ) -> SearchResult:
        """Close every live shard's run and merge them around ``matches``."""
        outcomes = [
            (shard.number, shard.run.finish([], interrupt))
            for shard in self._shards
            if not shard.over
        ]
        result = merge_search_results(outcomes, k=None, lost=self._lost)
        result.matches = matches
        return result


@single_query
class ShardedMatchStream(MatchStream):
    """A sharded ranked stream: emits straight from a
    :class:`UnionFanOut`'s union.

    Iterate for up to ``k`` globally ranked matches (nondecreasing in
    ``(distance, sid, start)``).  After the stream ends — naturally, via
    :meth:`close`, or because it was interrupted or shards were lost —
    :attr:`result` is the fan-out's merged result over the emitted
    prefix, with the per-shard :attr:`shard_stats` breakdown.
    """

    def __init__(self, fan_out: UnionFanOut) -> None:
        self._open(fan_out, fan_out.union)

    @property
    def shard_stats(self) -> Dict[int, QueryStats]:
        """Per-shard counters (empty until the stream ends)."""
        return {} if self.result is None else self.result.shard_stats
