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
  soon as ``delta_cur`` is at most every child's bound — the paper's
  termination rule — or, on a shard, as soon as every child's bound
  exceeds the fan-out's shared k-th bound.

:class:`RankedUnionEngine` drives the operator tree to exhaustion of the
top-k result.  Its ``scheduling`` parameter selects the
``SelectPriorityQueue()`` policy: ``"max-delta"`` is the paper's **RU**,
``"cost-aware"`` is **RU-COST**.  :class:`MatchStream` pulls the same
tree (:func:`build_union`) one ``GetNext()`` at a time for lazy
best-first emission.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence

from repro.control import ExecutionControl
from repro.core.results import Match
from repro.core.windows import (
    QueryWindowSet,
    candidate_in_bounds,
    candidate_start,
)
from repro.engines.base import (
    SCHEDULINGS,
    CandidateEvaluator,
    Engine,
    PartialResult,
    QueryRun,
    QuerySpec,
    RankedStream,
    prefix_certificate,
)
from repro.engines.operators import (
    ExtendedIterator,
    RankedTuple,
    Status,
    StepResult,
)
from repro.engines.queues import NODE, WindowQueue
from repro.engines.scheduling import make_strategy
from repro.exceptions import ConfigurationError, ExecutionInterrupted
from repro.index.builder import DualMatchIndex
from repro.index.rstar import LeafRecord

_INF = math.inf


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
        scheduling: str,
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
        self._strategy = make_strategy(
            scheduling,
            store=index.store,
            query_length=window_set.length,
            omega=index.data_stride,
            blocking_factor=index.tree.blocking_factor,
            p=spec.p,
            cost_config=spec.cost_config,
            cap_for=self._cap_for,
        )

    # -- lower bounds ---------------------------------------------------

    def frontier_pow(self) -> float:
        """``MSEQ-dist_next``: sum of all queue tops (Definition 6).

        Infinite when any queue has run dry — every candidate of this
        class then has already been generated, pruned, or provably
        excluded, so no *new* candidate can appear.
        """
        total = 0.0
        for queue in self.queues:
            top = queue.top_pow()
            if top == _INF:
                return _INF
            total += top
        return total

    def sibling_sum_pow(self, exclude: WindowQueue) -> float:
        """Sum of the *other* queues' tops — the Lemma 4 sibling terms."""
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
        frontier = self.frontier_pow()
        if self._cand_heap:
            return min(self._cand_heap[0][0], frontier)
        return frontier

    def _cap_for(self, queue: WindowQueue) -> float:
        return _cap_pow(
            self._evaluator.threshold_pow, self.sibling_sum_pow(queue)
        )

    # -- iterator protocol ------------------------------------------------

    def get_next(self) -> StepResult:
        frontier = self.frontier_pow()
        if self._cand_heap and self._cand_heap[0][0] <= frontier:
            return Status.TUPLE, self._pop_candidate()
        if frontier == _INF:
            if self._cand_heap:
                return Status.TUPLE, self._pop_candidate()
            return Status.EOR, None

        queue = self._strategy.select(self.queues)
        if queue.is_empty:
            # A cost-aware expansion may have pruned the queue empty
            # between selection bookkeeping and the pop.
            return Status.LB, self.current_lower_bound_pow()
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
        return Status.LB, self.current_lower_bound_pow()

    def _advance_popped(
        self, queue: WindowQueue, dist_pow: float, kind: int, payload: object
    ) -> None:
        """Process one popped entry: expand a node or consume a leaf."""
        sibling_pow = self.sibling_sum_pow(queue)
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

    def drain_candidates(self) -> List[tuple]:
        """Hand over all pending evaluated candidates (stop-time flush).

        When ``∪_r`` reaches its termination condition, candidates whose
        distance ties the current ``delta_cur`` can still sit in this
        operator's ``candMinQ``; the union pulls them so emission stays
        complete.
        """
        pending, self._cand_heap = self._cand_heap, []
        return pending


class UnionOperator(ExtendedIterator):
    """``∪_r`` — the multi-way ranked union operator."""

    def __init__(
        self, children: List[PhiOperator], evaluator: CandidateEvaluator
    ) -> None:
        self._children = children
        self._evaluator = evaluator
        #: ``CLB`` per child; infinite marks EOR.
        self._clbs = [0.0] * len(children)
        self._dead = [False] * len(children)
        #: ``candMinQ_∪r``: tuples received from children, by distance.
        self._cand_heap: List[tuple] = []
        self._children_drained = False

    def _min_alive_clb(self) -> float:
        alive = [
            clb
            for clb, dead in zip(self._clbs, self._dead)
            if not dead
        ]
        return min(alive) if alive else _INF

    def frontier_pow(self) -> float:
        """Lower bound on any candidate not yet *generated* by a child.

        The min over alive children of their MSEQ-distance frontiers
        (Lemma 4 makes each admissible for its class).  Evaluated
        candidates parked in ``candMinQ`` heaps are excluded on purpose:
        they already sit in the shared collector, so they are examined
        work, not unexamined work — this is what makes the value usable
        as a :class:`~repro.engines.base.PartialResult` certificate.
        """
        alive = [
            child.frontier_pow()
            for child, dead in zip(self._children, self._dead)
            if not dead
        ]
        return min(alive) if alive else _INF

    def get_next(self) -> StepResult:
        control = self._evaluator.control
        while True:
            # One get_next() call can advance children arbitrarily many
            # times before a tuple settles, so the union checkpoints its
            # own loop instead of relying on the engine's outer loop.
            # Computing the exact frontier costs O(classes x queues);
            # skip it when no limit could ever trip.
            if control.limited:
                control.checkpoint(self.frontier_pow())
            else:
                control.checkpoint()
            min_clb = self._min_alive_clb()
            collector = self._evaluator.collector
            # Strict against the shared bound: a candidate tying the
            # global k-th distance may still belong to this shard.
            stop = (
                min_clb == _INF
                or (collector.is_full and min_clb >= collector.threshold_pow)
                or min_clb > self._evaluator.threshold_pow
            )
            if stop and not self._children_drained:
                # Children may still hold evaluated candidates whose
                # distance ties delta_cur; flush them before ending.
                self._children_drained = True
                for child in self._children:
                    for entry in child.drain_candidates():
                        heapq.heappush(self._cand_heap, entry)
            if self._cand_heap and (
                self._cand_heap[0][0] <= min_clb or stop
            ):
                distance_pow, sid, start = heapq.heappop(self._cand_heap)
                return Status.TUPLE, RankedTuple(
                    distance_pow=distance_pow, sid=sid, start=start
                )
            if stop:
                return Status.EOR, None

            child_index = min(
                (
                    index
                    for index in range(len(self._children))
                    if not self._dead[index]
                ),
                key=lambda index: self._clbs[index],
            )
            child = self._children[child_index]
            status, payload = child.get_next()
            if status == Status.TUPLE:
                heapq.heappush(
                    self._cand_heap,
                    (payload.distance_pow, payload.sid, payload.start),
                )
                self._clbs[child_index] = child.current_lower_bound_pow()
            elif status == Status.LB:
                self._clbs[child_index] = payload
            else:
                self._dead[child_index] = True
                self._clbs[child_index] = _INF


def build_union(
    window_set: QueryWindowSet,
    index: DualMatchIndex,
    evaluator: CandidateEvaluator,
    spec: QuerySpec,
    scheduling: str,
) -> UnionOperator:
    """The operator tree of one query: ``∪_r`` over one ``Φ_i`` per MSEQ."""
    children = [
        PhiOperator(
            class_index=class_index,
            window_set=window_set,
            index=index,
            evaluator=evaluator,
            spec=spec,
            scheduling=scheduling,
        )
        for class_index in range(window_set.num_classes)
        if window_set.classes[class_index]
    ]
    return UnionOperator(children, evaluator)


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
        self._run = QueryRun(index, query, spec, control, "RU-STREAM")
        with self._run as run:
            self._union = build_union(
                run.window_set, index, run.evaluator, spec, spec.scheduling
            )
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
    scheduling:
        ``SelectPriorityQueue()`` policy: ``"max-delta"`` (RU, default),
        ``"cost-aware"`` (RU-COST), ``"global-min"``, ``"round-robin"``.
        RU-COST tuning (lookahead, alpha/beta, selective expansion)
        rides on the query's ``spec.cost_config``.
    """

    def __init__(
        self, index: DualMatchIndex, scheduling: str = "max-delta"
    ) -> None:
        super().__init__(index)
        if scheduling not in SCHEDULINGS:
            raise ConfigurationError(
                f"unknown scheduling policy {scheduling!r}"
            )
        self.scheduling = scheduling
        self.name = "RU-COST" if scheduling == "cost-aware" else "RU"
        if scheduling in ("global-min", "round-robin"):
            self.name = f"RU[{scheduling}]"

    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        union = build_union(
            window_set, self.index, evaluator, spec, self.scheduling
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
