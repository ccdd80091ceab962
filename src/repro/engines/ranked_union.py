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

:class:`RankedUnionEngine` drives the operator tree to exhaustion of the
top-k result.  The query's ``method`` selects every ``Φ_i``'s
``SelectPriorityQueue()`` policy: ``"ru"`` is the paper's **RU**
(max-delta), ``"ru-cost"`` is **RU-COST**.  :class:`MatchStream` pulls
the same tree (:func:`build_union`) one ``GetNext()`` at a time for
lazy best-first emission.  A sharded fan-out
(:mod:`repro.shard.merge`) puts every shard's ``Φ_i`` under one union.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Optional, Protocol, Sequence, Tuple, Union

from repro.control import ExecutionControl
from repro.core.results import Match, RangeCollector, TopKCollector
from repro.core.windows import (
    QueryWindowSet,
    candidate_in_bounds,
    candidate_start,
)
from repro.engines.base import (
    RANKED_UNION_METHODS,
    CandidateEvaluator,
    Engine,
    PartialResult,
    QueryRun,
    QuerySpec,
    RankedStream,
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
from repro.engines.scheduling import (
    CostAwareStrategy,
    MaxDeltaStrategy,
    SchedulingStrategy,
)
from repro.exceptions import ConfigurationError, ExecutionInterrupted
from repro.index.builder import DualMatchIndex
from repro.index.rstar import LeafRecord

_INF = math.inf


class Checkpoints(Protocol):
    """What ``∪_r`` checkpoints: one query's
    :class:`~repro.control.ExecutionControl`, or a sharded fan-out that
    checkpoints every shard's."""

    def checkpoint(self, frontier_pow: Optional[float] = None) -> None:
        ...


class StreamRun(Protocol):
    """What a :class:`MatchStream` advances inside ``with run:`` and ends
    with ``run.finish``: a :class:`~repro.engines.base.QueryRun`, or a
    sharded fan-out, whose ``with`` holds its database's pool gate and
    whose steps enter their own shard's run."""

    spec: QuerySpec
    window_set: QueryWindowSet

    def __enter__(self) -> Any:
        ...

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        ...

    def finish(
        self,
        matches: List[Match],
        interrupt: Optional[ExecutionInterrupted] = None,
    ) -> SearchResult:
        ...


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
        self._strategy: SchedulingStrategy = MaxDeltaStrategy()
        if method == "ru-cost":
            self._strategy = CostAwareStrategy(
                CostAwareDensityScheduler(
                    store=index.store,
                    query_length=window_set.length,
                    omega=index.data_stride,
                    blocking_factor=index.tree.blocking_factor,
                    p=spec.p,
                    cap_for=self._cap_for,
                )
            )

        #: ``MSEQ-dist_next`` as of the latest step.  The queues change
        #: only inside :meth:`get_next`, which re-sums it once per step.
        self._frontier = self._sum_tops()

    # -- lower bounds ---------------------------------------------------

    def frontier_pow(self) -> float:
        """``MSEQ-dist_next``: sum of all queue tops (Definition 6).

        Infinite when any queue has run dry — every candidate of this
        class then has already been generated, pruned, or provably
        excluded, so no *new* candidate can appear.
        """
        return self._frontier

    def _sum_tops(self, exclude: Optional[WindowQueue] = None) -> float:
        """Sum of the queue tops in queue order, skipping ``exclude``.

        The frontier, or with a queue excluded the Lemma 4 sibling
        terms of a candidate popped from it.
        """
        total = 0.0
        for queue in self.queues:
            if queue is exclude:
                continue
            top = queue.top_pow()
            if top == _INF:
                return _INF
            total += top
        return total

    def current_lower_bound_pow(self) -> float:
        """``CLB_i``: cheapest thing this operator can still produce."""
        frontier = self._frontier
        if self._cand_heap:
            return min(self._cand_heap[0][0], frontier)
        return frontier

    def _cap_for(self, queue: WindowQueue) -> float:
        return _cap_pow(
            self._evaluator.threshold_pow, self._sum_tops(queue)
        )

    # -- iterator protocol ------------------------------------------------

    def get_next(self) -> StepResult:
        frontier = self._frontier
        if self._cand_heap and self._cand_heap[0][0] <= frontier:
            return Status.TUPLE, self._pop_candidate()
        if frontier == _INF:
            if self._cand_heap:
                return Status.TUPLE, self._pop_candidate()
            return Status.EOR, None

        queue = self._strategy.select(self.queues)
        # A cost-aware expansion may have pruned the queue empty between
        # selection bookkeeping and the pop; it may still have moved
        # other tops, so the frontier is re-summed either way.
        if not queue.is_empty:
            self._pop(queue)
        self._frontier = self._sum_tops()
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
        self._strategy.after_pop(queue)

    def _advance_popped(
        self, queue: WindowQueue, dist_pow: float, kind: int, payload: object
    ) -> None:
        """Process one popped entry: expand a node or consume a leaf."""
        sibling_pow = self._sum_tops(queue)
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

    ``control`` is checkpointed, with the frontier, once per loop of
    :meth:`get_next`; ``collector`` holds ``delta_cur``, the k-th
    distance of every candidate the children have verified.
    """

    def __init__(
        self,
        children: Sequence[PhiOperator],
        control: Checkpoints,
        collector: Union[TopKCollector, RangeCollector],
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


def build_union(
    window_set: QueryWindowSet,
    index: DualMatchIndex,
    evaluator: CandidateEvaluator,
    spec: QuerySpec,
    method: str,
) -> UnionOperator:
    """The operator tree of one query: ``∪_r`` over one ``Φ_i`` per MSEQ."""
    children = [
        PhiOperator(
            class_index=class_index,
            window_set=window_set,
            index=index,
            evaluator=evaluator,
            spec=spec,
            method=method,
        )
        for class_index in range(window_set.num_classes)
        if window_set.classes[class_index]
    ]
    return UnionOperator(children, evaluator.control, evaluator.collector)


class MatchStream(RankedStream):
    """Lazy best-first top-k over one database's ranked-union tree.

    Produced by :meth:`repro.api.SubsequenceDatabase.iter_matches`.
    Exposes the extended iterator model (Definition 5) directly: each
    confirmed result is yielded as soon as its rank is settled.  The
    finished :attr:`result` holds the emitted prefix; for an
    interrupted stream its certificate is the
    :func:`~repro.engines.base.prefix_certificate`.
    """

    def __init__(
        self,
        index: DualMatchIndex,
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
    ) -> None:
        run = QueryRun(index, query, spec, control, "RU-STREAM")
        with run:
            union = build_union(
                run.window_set, index, run.evaluator, spec, spec.method
            )
        self._open(run, union)

    def _open(self, run: StreamRun, union: UnionOperator) -> None:
        """Emit from ``union``, advancing it inside ``with run:``; the
        stream ends with ``run.finish``."""
        self._run = run
        self._union = union
        self._emitted: List[Match] = []

    def __next__(self) -> Match:
        if self.result is not None:
            raise StopIteration
        run = self._run
        interrupt: Optional[ExecutionInterrupted] = None
        with run:
            try:
                while len(self._emitted) < run.spec.k:
                    status, payload = self._union.get_next()
                    if status == Status.EOR:
                        break
                    if status == Status.TUPLE:
                        match = Match(
                            distance=payload.distance_pow
                            ** (1.0 / run.spec.p),
                            sid=payload.sid,
                            start=payload.start,
                            length=run.window_set.length,
                        )
                        self._emitted.append(match)
                        return match
            except ExecutionInterrupted as signal:
                interrupt = signal
        self._finalize(interrupt)
        raise StopIteration

    def _finalize(
        self, interrupt: Optional[ExecutionInterrupted] = None
    ) -> None:
        result = self._run.finish(self._emitted, interrupt)
        if isinstance(result, PartialResult):
            result.certificate = prefix_certificate(
                result.certificate, self._emitted
            )
        self.result = result


class RankedUnionEngine(Engine):
    """RU / RU-COST: ranked union over MSEQ subqueries.

    Parameters
    ----------
    index:
        The DualMatch index.
    method:
        ``"ru"`` (max-delta, the default) or ``"ru-cost"`` (cost-aware
        density scheduling, :mod:`repro.engines.cost_density`).
    """

    def __init__(self, index: DualMatchIndex, method: str = "ru") -> None:
        super().__init__(index)
        if method not in RANKED_UNION_METHODS:
            raise ConfigurationError(
                f"unknown ranked-union method {method!r}; expected one "
                f"of {RANKED_UNION_METHODS}"
            )
        self.method = method
        self.name = method.upper()

    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        union = build_union(
            window_set, self.index, evaluator, spec, self.method
        )
        union.start()
        budget = evaluator.control
        while True:
            budget.checkpoint()
            status, _payload = union.get_next()
            # Emitted tuples are already in the shared collector; the
            # engine only needs to drive the operator tree to EOR.
            if status == Status.EOR:
                break
        union.end()
