"""The ranked-union framework — the paper's contribution (Section 3).

A ranked subsequence matching query is evaluated as a **ranked union**
over ``ω`` subqueries, one per matching subsequence equivalence class
(MSEQ).  Two operators follow the extended iterator model:

* :class:`PhiOperator` (``Φ_i``) owns one priority queue per query
  window of its class and produces candidates for that class.  Every
  consumption step yields either a fully-evaluated candidate (TUPLE) or
  a refreshed **MSEQ-distance** lower bound (LB) — the sum, in p-th
  power space, of the per-queue frontier distances (Definition 6,
  admissible by Lemma 4).
* :class:`UnionOperator` (``∪_r``) repeatedly advances the child with
  the smallest current lower bound (optimal by Lemma 6) and stops as
  soon as every child's bound exceeds ``delta_cur`` — the paper's
  termination rule, made strict so that a tie at the k-th distance goes
  by ``(sid, start)``.  The children's bounds and frontiers sit in two
  lazy heaps, so one step costs O(log children), limited query or not,
  and every checkpoint reports the exact frontier.

:class:`RankedUnion` alone runs that tree, for one database and for N
shards alike: it puts the ``Φ_i`` of every source (one database's
index, or every live shard's) under one ``∪_r``, and either
runs it to EOR (:meth:`RankedUnion.search`, a ``knn`` query) or hands
it to a :class:`MatchStream`, which pulls it one ``GetNext()`` at a
time.  The query's ``method`` selects every ``Φ_i``'s
``SelectPriorityQueue()`` policy: ``"ru"`` is the paper's **RU**
(:func:`max_delta`), ``"ru-cost"`` is **RU-COST**
(:meth:`~repro.engines.cost_density.CostAwareDensityScheduler.select`).
Every other query (``seqscan``, ``hlmj``, ``hlmj-wg``, ``psm`` and
every range query) runs its batch engine on every source in turn,
each to exhaustion, through :func:`run_in_turn`.

Under either driver, every source's run offers to **one** collector, so
each prunes against one ``delta_cur`` and the answer is the
single-source top-k, ties included.  :func:`merge_search_results`
composes the sources' runs into one result:

* **Certificates** — when source ``i`` is interrupted, its certificate
  ``c_i`` lower-bounds every candidate it left unexamined; candidates
  on completed sources were all examined.  Any unexamined candidate
  anywhere therefore has true distance ``>= min_i c_i`` — the global
  certificate is the min over per-source certificates (completed
  sources contribute ``inf``), exactly the "min over alive frontiers"
  rule the union uses.  A source lost wholesale (a crash under the
  degrade policy) has certified nothing, so it contributes ``0.0`` —
  the merged result stays honest by claiming no exactness at all below
  the surviving sources' answers.
* **Top-k** — given per-source top-ks, keeping the ``k`` smallest of
  their concatenation under the total order ``(distance, sid, start)``
  yields the global top-k, ties included.  No fan-out needs this any
  more (each shares one collector); the end-to-end bench times it on a
  captured sharded answer.

Merged :class:`~repro.core.metrics.QueryStats` are *sums* over sources
(``wall_time_s`` included — it measures aggregate work, not latency: a
source's time is what it spent in its own union steps and deferred
drains plus its share of the union's own work, so the sum is the time
spent driving the union and stays within the caller's latency); the
per-source breakdown rides along in the result's ``shard_stats``.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.concurrency import single_query
from repro.control import ExecutionControl
from repro.core.metrics import QueryStats
from repro.core.results import Match, RangeCollector, TopKCollector
from repro.core.windows import (
    QueryWindowSet,
    candidate_in_bounds,
    candidate_start,
)
from repro.engines.base import (
    CandidateEvaluator,
    Collector,
    Engine,
    FaultEvent,
    FaultReport,
    PartialResult,
    QueryRun,
    QuerySpec,
    SearchResult,
    prefix_certificate,
)
from repro.engines.cost_density import CostAwareDensityScheduler
from repro.engines.operators import (
    ExtendedIterator,
    RankedTuple,
    Status,
    StepResult,
)
from repro.engines.queues import NODE, WindowQueue
from repro.exceptions import ExecutionInterrupted, StorageError
from repro.index.builder import DualMatchIndex
from repro.index.rstar import LeafRecord
from repro.obs import QueryProfile

_INF = math.inf

#: Interrupt reason recorded when a source failed wholesale and the
#: degrade policy kept the query alive on the survivors.
REASON_SHARD_LOST = "shard:lost"


@dataclass(frozen=True)
class LostShard:
    """One source that produced no answer at all (crash/unreadable).

    ``stats`` and ``fault_report`` are the counters and faults of the run
    the source had begun before a storage error ended it, else ``None``.
    """

    shard: int
    detail: str
    stats: Optional[QueryStats] = None
    fault_report: Optional[FaultReport] = None


def _merged_fault_report(
    outcomes: Sequence[Tuple[int, SearchResult]],
    lost: Sequence[LostShard],
) -> Optional[FaultReport]:
    events: List[FaultEvent] = []
    suppressed = 0
    reports = [outcome.fault_report for _, outcome in outcomes]
    for report in reports + [loss.fault_report for loss in lost]:
        if report is not None:
            events.extend(report.events)
            suppressed += report.suppressed
    events.extend(
        FaultEvent(error="ShardLost", detail=loss.detail) for loss in lost
    )
    if not events and suppressed == 0:
        return None
    return FaultReport(events=events, suppressed=suppressed)


def merge_search_results(
    outcomes: Sequence[Tuple[int, SearchResult]],
    k: Optional[int],
    lost: Sequence[LostShard] = (),
) -> SearchResult:
    """Compose per-source (number, result) pairs into the global answer.

    ``k=None`` merges without truncation; the drivers pass it and set
    the answer from their shared collector.  ``k`` keeps the ``k`` best
    matches: only the frozen end-to-end bench passes it, to time the
    merge of per-shard top-ks.  The result carries the per-source
    counters in ``shard_stats`` (a lost source's too, when it had begun
    a run: they are summed into ``stats`` like any other), and the one
    run's ``profile`` when there is one run.  It is a
    :class:`~repro.engines.base.PartialResult` when any source was
    interrupted or lost: the ``certificate`` composes source-wise (min
    over per-source certificates; a lost source contributes 0.0) and
    keeps that class's contract — every unexamined candidate anywhere
    has true distance at or above it.
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
    for loss in lost:
        if loss.stats is not None:
            stats.merge(loss.stats)
            shard_stats[loss.shard] = loss.stats
    report = _merged_fault_report(outcomes, lost)
    degraded = report is not None
    if lost:
        certificate = 0.0
        if REASON_SHARD_LOST not in reasons:
            reasons.append(REASON_SHARD_LOST)
    profile: Optional[QueryProfile] = None
    if len(outcomes) == 1:
        profile = outcomes[0][1].profile
    merged = SearchResult(
        matches=matches,
        stats=stats,
        degraded=degraded,
        fault_report=report,
        profile=profile,
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


def _lost_run(number: int, run: QueryRun, error: StorageError) -> LostShard:
    """The loss rule, for either driver: a source whose run a storage
    error ended under ``on_fault="degrade"`` is lost with the counters and
    faults of the work it did (the error already closed its spans)."""
    run.stats.wall_time_s = run.busy_s
    run.stats.checkpoints = run.control.checkpoints
    run.evaluator.release()
    report = run.evaluator.fault_report or None
    return LostShard(number, str(error), run.stats, report)


def run_in_turn(
    sources: Sequence[Tuple[int, Engine]],
    spec: QuerySpec,
    control: ExecutionControl,
    window_set: QueryWindowSet,
    lost: Sequence[LostShard] = (),
) -> SearchResult:
    """A batch spec's engine on every source in turn, each to
    exhaustion, in the calling thread.

    ``sources`` and ``lost`` are as for :class:`RankedUnion`, with an
    engine in place of each index.  Each run has its own
    :meth:`~repro.control.ExecutionControl.derive` of ``control``; all
    share ``window_set`` and one collector, so a later source prunes
    against every match the ones before it verified.  A storage error
    escaping a run follows the loss rule of :class:`RankedUnion`.
    """
    collector: Collector = (
        RangeCollector(spec.epsilon, p=spec.p)
        if spec.kind == "range"
        else TopKCollector(spec.k, p=spec.p)
    )
    lost = list(lost)
    outcomes: List[Tuple[int, SearchResult]] = []
    for number, engine in sources:
        run = QueryRun(
            engine.index, spec, control.derive(), engine.name,
            window_set=window_set, collector=collector,
        )
        interrupt: Optional[ExecutionInterrupted] = None
        try:
            with run:
                try:
                    engine._run(window_set, run.evaluator, spec)
                    run.drain()
                except ExecutionInterrupted as signal:
                    interrupt = signal
        except StorageError as error:
            if spec.on_fault != "degrade":
                raise
            lost.append(_lost_run(number, run, error))
            continue
        outcomes.append((number, run.finish([], interrupt)))
    result = merge_search_results(outcomes, k=None, lost=lost)
    result.matches = collector.matches(window_set.length)
    return result


def _cap_pow(threshold_pow: float, sibling_pow: float) -> float:
    """Push-time pruning headroom: ``delta^p`` minus the sibling frontier.

    Handles the infinities explicitly: with no threshold yet everything
    is admitted; with an exhausted sibling queue nothing new can join the
    top-k, so everything is pruned.
    """
    if sibling_pow == _INF:
        return -_INF
    if threshold_pow == _INF:
        return _INF
    return threshold_pow - sibling_pow


def _sum_tops(
    queues: Sequence[WindowQueue], exclude: Optional[WindowQueue] = None
) -> float:
    """Sum of the queue tops in queue order, skipping ``exclude``.

    A ``Φ_i``'s frontier, or with a queue excluded the Lemma 4 sibling
    terms of a candidate popped from it.
    """
    total = 0.0
    for queue in queues:
        if queue is exclude:
            continue
        top = queue.top_pow()
        if top == _INF:
            return _INF
        total += top
    return total


def _caps(
    queues: Sequence[WindowQueue], evaluator: CandidateEvaluator
) -> Callable[[WindowQueue], float]:
    """RU-COST's push-time cap for one of ``queues``: a closure, as the
    scheduler holding its ``Φ_i`` would make a reference cycle."""
    return lambda queue: _cap_pow(
        evaluator.threshold_pow, _sum_tops(queues, queue)
    )


def max_delta(queues: Sequence[WindowQueue]) -> WindowQueue:
    """RU's ``SelectPriorityQueue()``, after Güntzer et al. [10]: the
    queue whose top grew the most since it was last popped (the first
    on a tie)."""
    best = queues[0]
    best_delta = -_INF
    for queue in queues:
        delta = queue.top_pow() - queue.reference_top_pow
        if delta > best_delta:
            best_delta = delta
            best = queue
    return best


class PhiOperator(ExtendedIterator):
    """``Φ_i`` — the ranked subsequence matching subquery operator."""

    def __init__(
        self,
        class_index: int,
        window_set: QueryWindowSet,
        index: DualMatchIndex,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
        method: str = "ru",
    ) -> None:
        self.class_index = class_index
        self._index = index
        self._evaluator = evaluator
        self._query_length = window_set.length
        self.queues = [
            WindowQueue(evaluator.probe(window, include_far=True))
            for window in window_set.classes[class_index]
        ]
        #: ``candMinQ_Φ``: fully evaluated candidates awaiting emission,
        #: as (dtw_pow, sid, start).
        self._cand_heap: List[tuple] = []
        #: ``SelectPriorityQueue()``: which queue the next step pops.
        self._select = max_delta
        if method == "ru-cost":
            self._select = CostAwareDensityScheduler(
                store=index.store,
                query_length=window_set.length,
                omega=index.data_stride,
                blocking_factor=index.tree.blocking_factor,
                p=spec.p,
                cap_for=_caps(self.queues, evaluator),
                pages_seen=evaluator.stats.pages_seen,
            ).select

        #: ``MSEQ-dist_next`` as of the latest step.  The queues change
        #: only inside :meth:`get_next`, which re-sums it once per step.
        self._frontier = _sum_tops(self.queues)

    # -- lower bounds ---------------------------------------------------

    def frontier_pow(self) -> float:
        """``MSEQ-dist_next``: sum of all queue tops (Definition 6).

        Infinite when any queue has run dry — every candidate of this
        class then has already been generated, pruned, or provably
        excluded, so no *new* candidate can appear.
        """
        return self._frontier

    def current_lower_bound_pow(self) -> float:
        """``CLB_i``: cheapest thing this operator can still produce."""
        frontier = self._frontier
        if self._cand_heap:
            return min(self._cand_heap[0][0], frontier)
        return frontier

    # -- iterator protocol ------------------------------------------------

    def get_next(self) -> StepResult:
        frontier = self._frontier
        if self._cand_heap and self._cand_heap[0][0] <= frontier:
            return Status.TUPLE, self._pop_candidate()
        if frontier == _INF:
            if self._cand_heap:
                return Status.TUPLE, self._pop_candidate()
            return Status.EOR, None

        queue = self._select(self.queues)
        # A cost-aware expansion may have pruned the queue empty between
        # selection bookkeeping and the pop; it may still have moved
        # other tops, so the frontier is re-summed either way.
        if not queue.is_empty:
            self._pop(queue)
        self._frontier = _sum_tops(self.queues)
        return Status.LB, self.current_lower_bound_pow()

    def _pop(self, queue: WindowQueue) -> None:
        dist_pow, _seq, kind, payload, _far = queue.pop()
        self._evaluator.stats.heap_pops += 1
        tracer = self._evaluator.tracer
        if tracer.enabled:
            with tracer.span(
                "engine.heap_pop",
                cls=self.class_index,
                kind="node" if kind == NODE else "leaf",
            ):
                self._advance_popped(queue, dist_pow, kind, payload)
        else:
            self._advance_popped(queue, dist_pow, kind, payload)
        # Max-delta's reference point; RU-COST never reads it.
        queue.reference_top_pow = queue.top_pow()

    def _advance_popped(
        self, queue: WindowQueue, dist_pow: float, kind: int, payload: object
    ) -> None:
        """Process one popped entry: expand a node or consume a leaf."""
        sibling_pow = _sum_tops(self.queues, queue)
        if kind == NODE:
            queue.expand_node(
                payload,  # type: ignore[arg-type]
                _cap_pow(self._evaluator.threshold_pow, sibling_pow),
            )
        else:
            self._consume_leaf_pair(
                queue,
                dist_pow,
                sibling_pow,
                payload,  # type: ignore[arg-type]
            )

    def _consume_leaf_pair(
        self,
        queue: WindowQueue,
        dist_pow: float,
        sibling_pow: float,
        record: LeafRecord,
    ) -> None:
        start = candidate_start(
            record.window_index,
            queue.window.sliding_offset,
            self._index.data_stride,
        )
        if not candidate_in_bounds(
            start,
            self._query_length,
            self._index.store.length(record.sid),
        ):
            return
        bound_pow = (
            _INF if sibling_pow == _INF else dist_pow + sibling_pow
        )
        result_pow = self._evaluator.submit(record.sid, start, bound_pow)
        if (
            result_pow is not None
            and result_pow <= self._evaluator.threshold_pow
        ):
            heapq.heappush(
                self._cand_heap, (result_pow, record.sid, start)
            )

    def _pop_candidate(self) -> RankedTuple:
        distance_pow, sid, start = heapq.heappop(self._cand_heap)
        return RankedTuple(distance_pow=distance_pow, sid=sid, start=start)


class UnionOperator(ExtendedIterator):
    """``∪_r`` — the multi-way ranked union operator.

    Each child's ``CLB`` and frontier sit in a heap of
    ``(value, child index)`` entries, so picking the child, testing the
    stop rule and reporting the frontier cost O(log children) per step.
    Only the child just advanced can change either value, so a step
    pushes at most one entry per heap; an entry whose value is no longer
    its child's is dropped when it surfaces.  Ties go to the lowest child
    index, as a left-to-right ``min`` would.  A child at EOR reports
    ``inf`` for both, so it is never picked and never lowers the
    frontier.

    ``control`` — one run's control, or the :class:`RankedUnion` that
    checkpoints every source's — is checkpointed, with the frontier,
    once per loop of
    :meth:`get_next`; ``collector`` holds ``delta_cur``, the k-th
    distance of every candidate the children have verified.
    """

    def __init__(
        self,
        children: Sequence[PhiOperator],
        control: Union[ExecutionControl, "RankedUnion"],
        collector: Collector,
    ) -> None:
        self._children = children
        self._control = control
        self._collector = collector
        #: ``CLB`` and frontier per child as last reported.
        self._clbs = [0.0] * len(children)
        self._frontiers = [child.frontier_pow() for child in children]
        self._clb_heap = [(0.0, index) for index in range(len(children))]
        self._frontier_heap = sorted(
            (frontier, index)
            for index, frontier in enumerate(self._frontiers)
        )
        #: ``candMinQ_∪r``: tuples received from children, by distance.
        self._cand_heap: List[tuple] = []

    @staticmethod
    def _least(
        heap: List[Tuple[float, int]], values: List[float]
    ) -> Tuple[float, int]:
        """``(value, index)`` of the child with the least value."""
        while heap:
            value, index = heap[0]
            if values[index] == value:
                return value, index
            heapq.heappop(heap)
        return _INF, -1

    @staticmethod
    def _report(
        heap: List[Tuple[float, int]],
        values: List[float],
        index: int,
        value: float,
    ) -> None:
        """Record child ``index``'s new ``value`` (stale entries stay)."""
        if value != values[index]:
            values[index] = value
            heapq.heappush(heap, (value, index))

    def frontier_pow(self) -> float:
        """Lower bound on any candidate not yet *generated* by a child.

        The min over alive children of their MSEQ-distance frontiers
        (Lemma 4 makes each admissible for its class).  Evaluated
        candidates parked in ``candMinQ`` heaps are excluded on purpose:
        they already sit in the shared collector, so they are examined
        work, not unexamined work — this is what makes the value usable
        as a :class:`~repro.engines.base.PartialResult` certificate.
        """
        return self._least(self._frontier_heap, self._frontiers)[0]

    def get_next(self) -> StepResult:
        control = self._control
        collector = self._collector
        while True:
            # One get_next() call can advance children arbitrarily many
            # times before a tuple settles, so the union checkpoints its
            # own loop instead of relying on the engine's outer loop.
            control.checkpoint(self.frontier_pow())
            min_clb, child_index = self._least(self._clb_heap, self._clbs)
            # Strict: a child whose bound ties delta_cur may still hold
            # a candidate that wins the tie on (sid, start).  At the stop
            # every candidate a child still holds lies above delta_cur,
            # so none of them is owed to the top k.
            stop = min_clb == _INF or min_clb > collector.threshold_pow
            # Strict for the same reason: a tie settles only once no
            # child can produce an equal distance.
            if self._cand_heap and (
                self._cand_heap[0][0] < min_clb or stop
            ):
                distance_pow, sid, start = heapq.heappop(self._cand_heap)
                return Status.TUPLE, RankedTuple(
                    distance_pow=distance_pow, sid=sid, start=start
                )
            if stop:
                return Status.EOR, None

            child = self._children[child_index]
            status, payload = child.get_next()
            if status == Status.TUPLE:
                heapq.heappush(
                    self._cand_heap,
                    (payload.distance_pow, payload.sid, payload.start),
                )
                clb = child.current_lower_bound_pow()
            elif status == Status.LB:
                clb = payload
            else:
                clb = _INF
            self._report(self._clb_heap, self._clbs, child_index, clb)
            self._report(
                self._frontier_heap,
                self._frontiers,
                child_index,
                child.frontier_pow(),
            )


@dataclass
class _Source:
    """One live source of a :class:`RankedUnion`: its index and its run.

    ``over`` is set once the source's run has ended early: a storage
    error lost it, or, under ``on_fault="raise"``, ended the query.
    """

    number: int
    index: DualMatchIndex
    run: QueryRun
    over: bool = False


class _SourcePhi(PhiOperator):
    """A ``Φ_i`` of one source under a :class:`RankedUnion`.

    Each step runs inside its source's run, so the run's spans are
    current and the step's time is the source's.  Once its source's run
    is over it reports EOR.
    """

    def __init__(
        self, owner: "RankedUnion", source: _Source, **fields: Any
    ) -> None:
        super().__init__(**fields)
        self._owner = owner
        self._source = source

    def get_next(self) -> StepResult:
        step = self._owner.advance(self._source, super().get_next)
        return (Status.EOR, None) if step is None else step


@single_query
class RankedUnion:
    """A ranked-union spec over every source, as one union.

    ``sources`` are ``(number, index)`` pairs: ``[(0, index)]`` for one
    database, the live shards in shard order for a sharded one; ``lost``
    are the sources already lost before the run.  Every source gets a
    :class:`~repro.engines.base.QueryRun` under its own
    :meth:`~repro.control.ExecutionControl.derive` of ``control``, on
    the span label ``"RU"``, ``"RU-COST"`` or, for a stream,
    ``"RU-STREAM"``.  The runs share ``window_set`` and one collector,
    and :attr:`union` is built over all of their ``Φ_i``, source by
    source.

    The union checkpoints through :meth:`checkpoint`, which checkpoints
    every live source's control.  The deadline and the token are
    shared.  A budget cap binds each source's own counters, so the first
    source over its cap ends the whole union.  Every source's control
    records the union frontier, so the merged certificate of an
    interrupted run is that frontier, or the smallest pending deferred
    bound of any source if that is lower.

    A storage error escaping a source's step or drain follows
    ``spec.on_fault``, for one source as for N: ``"raise"`` finishes the
    other sources' runs and propagates it, ``"degrade"`` drops the
    source, whose children then report EOR and whose certificate is
    ``0.0`` (reason :data:`REASON_SHARD_LOST`).  Matches it verified
    before it was lost stay in the answer, and its counters in the
    merged ``stats`` and ``shard_stats``.

    Each source's RU-COST scheduler prices pages by its own run's image
    of its source's pool, so unions on one database run side by side.
    """

    def __init__(
        self,
        sources: Sequence[Tuple[int, DualMatchIndex]],
        spec: QuerySpec,
        control: ExecutionControl,
        window_set: QueryWindowSet,
        lost: Sequence[LostShard] = (),
    ) -> None:
        self.spec = spec
        self.window_set = window_set
        self._lost = list(lost)
        #: Time spent driving the union: its steps and drains, and its
        #: own work between them (see :meth:`finish`).
        self.driving_s = 0.0
        #: Limited checkpoints record trace events, which belong under
        #: the source's spans: only then is a checkpoint worth entering
        #: the source's run for.
        self._traced_checkpoints = control.tracer.enabled and control.limited
        self._collector = TopKCollector(spec.k, p=spec.p)
        engine = "RU-STREAM" if spec.kind == "stream" else spec.method.upper()
        self._sources = [
            _Source(
                number,
                index,
                QueryRun(
                    index, spec, control.derive(), engine,
                    window_set=window_set, collector=self._collector,
                ),
            )
            for number, index in sources
        ]
        self.union = UnionOperator(
            [
                _SourcePhi(
                    self,
                    source,
                    class_index=class_index,
                    window_set=window_set,
                    index=source.index,
                    evaluator=source.run.evaluator,
                    spec=spec,
                    method=spec.method,
                )
                for source in self._sources
                for class_index in range(window_set.num_classes)
                if window_set.classes[class_index]
            ],
            self,
            self._collector,
        )

    def advance(
        self, source: _Source, step: Callable[[], Any]
    ) -> Optional[Any]:
        """``step()`` inside ``source``'s run; ``None`` once it is over."""
        if source.over:
            return None
        try:
            with source.run:
                return step()
        except StorageError as error:
            # The error closed the source's spans on its way out.
            source.over = True
            if self.spec.on_fault != "degrade":
                for other in self._sources:
                    if not other.over:
                        other.over = True
                        other.run.finish([])
                raise
            self._lost.append(_lost_run(source.number, source.run, error))
            return None

    def checkpoint(self, frontier_pow: Optional[float] = None) -> None:
        """The union's checkpoint: every live source's limits, each
        recording ``frontier_pow`` for its certificate."""
        for source in self._sources:
            if source.over:
                continue
            if self._traced_checkpoints:
                with source.run:
                    source.run.control.checkpoint(frontier_pow)
            else:
                source.run.control.checkpoint(frontier_pow)

    def search(self) -> SearchResult:
        """Run the union to EOR, drain every source's deferred buffer,
        and return the merged top-k."""
        interrupt: Optional[ExecutionInterrupted] = None
        started = time.perf_counter()
        try:
            while True:
                # One poll per GetNext(), besides the union's own.
                self.checkpoint()
                if self.union.get_next()[0] == Status.EOR:
                    break
            self._drain()
        except ExecutionInterrupted as signal:
            interrupt = signal
        self.driving_s += time.perf_counter() - started
        return self.finish(
            self._collector.matches(self.window_set.length), interrupt
        )

    def _drain(self) -> None:
        """Each live source's deferred drain, in source order (every
        drain checkpoints between its retrievals)."""
        for source in self._sources:
            self.advance(source, source.run.drain)

    def finish(
        self,
        matches: List[Match],
        interrupt: Optional[ExecutionInterrupted] = None,
    ) -> SearchResult:
        """Close every live source's run and merge them around
        ``matches``.

        The union's own work between steps ran in no source's run; each
        source is charged a share of it in proportion to its own time,
        so the sources' ``wall_time_s`` add up to :attr:`driving_s` (a
        lost source keeps the time of its own steps).
        """
        busy_s = sum(source.run.busy_s for source in self._sources)
        if busy_s > 0.0:
            for source in self._sources:
                source.run.busy_s *= self.driving_s / busy_s
        outcomes = [
            (source.number, source.run.finish([], interrupt))
            for source in self._sources
            if not source.over
        ]
        result = merge_search_results(outcomes, k=None, lost=self._lost)
        result.matches = matches
        # The operators refer back to this object: let go of them, so a
        # finished union is freed by reference counting.
        del self.union
        return result


@single_query
class MatchStream(Iterator[Match]):
    """Lazy best-first top-k, emitted straight from a
    :class:`RankedUnion`.

    Produced by :meth:`repro.api.QueryFacade.iter_matches` on either
    facade.  Exposes the extended iterator model (Definition 5)
    directly: each confirmed result is yielded as soon as its rank is
    settled, nondecreasing in ``(distance, sid, start)``.  When
    iteration ends — naturally, via :meth:`close`, or because it was
    interrupted or sources were lost — :attr:`result` holds the same
    :class:`~repro.engines.base.SearchResult` /
    :class:`~repro.engines.base.PartialResult` a batch query returns,
    over the emitted prefix; for an interrupted stream its certificate
    is the :func:`~repro.engines.base.prefix_certificate`.  The
    read-only attributes below are views of it (``None`` / defaults
    while the stream is live).
    """

    #: Final state; ``None`` until the stream ends.
    result: Optional[SearchResult] = None

    def __init__(self, ranked: RankedUnion) -> None:
        self._ranked = ranked
        self._emitted: List[Match] = []

    def __iter__(self) -> "MatchStream":
        return self

    def __next__(self) -> Match:
        if self.result is not None:
            raise StopIteration
        spec = self._ranked.spec
        interrupt: Optional[ExecutionInterrupted] = None
        started = time.perf_counter()
        try:
            while len(self._emitted) < spec.k:
                status, payload = self._ranked.union.get_next()
                if status == Status.EOR:
                    break
                if status == Status.TUPLE:
                    match = Match(
                        distance=payload.distance_pow ** (1.0 / spec.p),
                        sid=payload.sid,
                        start=payload.start,
                        length=self._ranked.window_set.length,
                    )
                    self._emitted.append(match)
                    return match
        except ExecutionInterrupted as signal:
            interrupt = signal
        finally:
            self._ranked.driving_s += time.perf_counter() - started
        self._finalize(interrupt)
        raise StopIteration

    def close(self) -> None:
        """Stop the stream early; diagnostics become available."""
        if self.result is None:
            self._finalize()

    def _finalize(
        self, interrupt: Optional[ExecutionInterrupted] = None
    ) -> None:
        result = self._ranked.finish(self._emitted, interrupt)
        if isinstance(result, PartialResult):
            result.certificate = prefix_certificate(
                result.certificate, self._emitted
            )
        self.result = result

    @property
    def stats(self) -> Optional[QueryStats]:
        """Final per-query counters."""
        return None if self.result is None else self.result.stats

    @property
    def shard_stats(self) -> Dict[int, QueryStats]:
        """Per-source counters (empty until the stream ends)."""
        return {} if self.result is None else self.result.shard_stats

    @property
    def degraded(self) -> bool:
        return self.result is not None and self.result.degraded

    @property
    def fault_report(self) -> Optional[FaultReport]:
        """Audit of tolerated faults (``None`` on healthy runs)."""
        return None if self.result is None else self.result.fault_report

    @property
    def profile(self) -> Optional[QueryProfile]:
        """Per-query profile (``None`` unless tracing was enabled)."""
        return None if self.result is None else self.result.profile

    @property
    def interrupted(self) -> bool:
        """Whether a limit (or a lost source) cut the stream short."""
        return isinstance(self.result, PartialResult)

    @property
    def reason(self) -> str:
        """Interrupt reason (see
        :class:`~repro.engines.base.PartialResult`)."""
        result = self.result
        return result.reason if isinstance(result, PartialResult) else ""

    @property
    def certificate(self) -> float:
        """Exactness certificate of the emitted prefix.

        ``inf`` for a stream that ended naturally: emitted ranks are
        exact.
        """
        result = self.result
        if isinstance(result, PartialResult):
            return result.certificate
        return math.inf
