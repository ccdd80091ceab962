"""PSM: the adapted progressive/selective merge baseline (Xin et al. [22]).

PSM answers top-k queries with *ad-hoc, non-monotonic* ranking functions
by progressively merging several indexes: a **join state** holds one
component per index, states are popped in increasing combined-lower-bound
order, and **join signatures** — membership probes against a bloom filter
— discard states that cannot produce any joinable result.

Adaptation to ranked subsequence matching (as in the paper's Experiment
6, which treats each disjoint query window as one joining index):

* The query is cut into ``n = Len(Q) // omega`` **disjoint** windows;
  each acts as one join attribute.
* Data sequences are indexed FRM-style [7]: every **sliding** window is
  PAA-transformed and stored in an R*-tree (:func:`build_sliding_index`),
  so that disjoint query windows can align at arbitrary candidate
  offsets.  The join condition is alignment: component ``t`` must hit
  the window at offset ``start + t * omega`` of the same sequence.
* The bloom filter is populated with every indexed ``(sid, offset)``
  key; expanding a node probes, for each new state, the keys its fixed
  leaf components require from the still-unresolved components.  Each
  expansion of a fan-out-``f`` node in an ``n``-way join issues up to
  ``f * (n - 1)`` probes — the ``f^n`` signature blow-up the paper
  reports for ``n > 3`` falls out of the state tree.

The final all-leaf alignment check is exact, so bloom false positives
never corrupt the result; exactness additionally requires the sliding
index to be built with ``stride=1``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.paa import segment_length
from repro.core.windows import (
    QueryWindow,
    QueryWindowSet,
    candidate_in_bounds,
)
from repro.engines.base import CandidateEvaluator, Engine, QuerySpec
from repro.engines.bounds import score_node
from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    StorageError,
)
from repro.index.bloom import BloomFilter
from repro.index.builder import iter_window_entries
from repro.index.rstar import LeafRecord, RStarTree
from repro.storage.sequences import SequenceStore

_NODE = 0
_LEAF = 1

#: A join-state component: (kind, payload, dist_pow) where payload is a
#: node page id or a LeafRecord whose ``window_index`` field holds the
#: sliding-window *offset*.
Component = Tuple[int, object, float]

#: Heap entry of the best-first join: (score ** p, tiebreak, state).
JoinHeapEntry = Tuple[float, int, Tuple[Component, ...]]


@dataclass
class SlidingWindowIndex:
    """FRM-style index: every sliding data window as an R*-tree point.

    Structurally compatible with
    :class:`~repro.index.builder.DualMatchIndex` (same attribute set) so
    the shared engine template can drive candidate evaluation, but leaf
    records carry sliding-window **offsets**, not disjoint-window
    numbers.
    """

    tree: RStarTree
    store: SequenceStore
    omega: int
    features: int
    bloom: BloomFilter
    stride: int = 1
    p: float = 2.0

    @property
    def seg_len(self) -> int:
        return segment_length(self.omega, self.features)


def build_sliding_index(
    store: SequenceStore,
    omega: int,
    features: int,
    stride: int = 1,
    p: float = 2.0,
    max_entries: Optional[int] = None,
    bulk: bool = True,
) -> SlidingWindowIndex:
    """Index every sliding window of every sequence (offline build).

    ``stride > 1`` subsamples offsets and breaks the no-false-dismissal
    guarantee; it exists only for index-size experiments.  ``bulk``
    selects STR packing (default) versus one-at-a-time insertion.
    """
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    tree = RStarTree(
        pager=store.pager,
        buffer=store.buffer,
        dimensions=features,
        max_entries=max_entries,
    )
    expected = max(1, store.total_values // stride)
    bloom = BloomFilter.with_capacity(expected)
    points = []
    records = []
    for sid, values in store.iter_sequences():
        for point, record in iter_window_entries(
            sid, values, omega, features, stride, by_offset=True
        ):
            points.append(point)
            records.append(record)
            bloom.add((sid, record.window_index))
    if bulk and points:
        tree.bulk_load(points, records)
    else:
        for point, record in zip(points, records):
            tree.insert(point, record)
    return SlidingWindowIndex(
        tree=tree,
        store=store,
        omega=omega,
        features=features,
        bloom=bloom,
        stride=stride,
        p=p,
    )


class PsmEngine(Engine):
    """Progressive index-merge top-k matching over disjoint query windows.

    Parameters
    ----------
    index:
        A :func:`build_sliding_index` result.
    max_heap_pops:
        Optional budget on join-state pops (PSM's state space explodes
        for many-window queries — the paper reports it "cannot finish
        with reasonable times" beyond 4-way joins and caps its own runs
        at ``Len(Q) = 256``).
    budget_action:
        What to do when the budget is hit: ``"raise"`` (default) raises
        :class:`~repro.exceptions.BudgetExceededError`; ``"stop"`` ends
        the search gracefully, marking ``stats.budget_exhausted`` — the
        returned matches are then a best-effort result, **not exact**,
        and the benchmarks report such cells as lower bounds.
    """

    name = "PSM"

    def __init__(
        self,
        index: SlidingWindowIndex,
        max_heap_pops: Optional[int] = None,
        budget_action: str = "raise",
    ) -> None:
        super().__init__(index)  # type: ignore[arg-type]
        if budget_action not in ("raise", "stop"):
            raise ConfigurationError(
                f"budget_action must be 'raise' or 'stop', got "
                f"{budget_action!r}"
            )
        self.max_heap_pops = max_heap_pops
        self.budget_action = budget_action

    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        index: SlidingWindowIndex = self.index  # type: ignore[assignment]
        omega = index.omega
        num_joins = window_set.length // omega
        # Disjoint query windows live at sliding offsets 0, omega, ... —
        # exactly the mseq_position-th windows of class 0.
        join_windows = [
            window_set.window_at(t * omega) for t in range(num_joins)
        ]
        seg_len = index.seg_len
        stats = evaluator.stats
        tree = index.tree
        tiebreak = itertools.count()

        root_state: Tuple[Component, ...] = tuple(
            (_NODE, tree.root_page, 0.0) for _ in range(num_joins)
        )
        heap: List[JoinHeapEntry] = [(0.0, next(tiebreak), root_state)]
        budget = evaluator.control
        tracer = evaluator.tracer

        while heap:
            # Join states pop in non-decreasing combined-lower-bound
            # order, so the top score bounds every unexamined candidate.
            budget.checkpoint(heap[0][0])
            score_pow, _seq, state = heapq.heappop(heap)
            stats.heap_pops += 1
            if (
                self.max_heap_pops is not None
                and stats.heap_pops > self.max_heap_pops
            ):
                if self.budget_action == "stop":
                    stats.budget_exhausted = 1
                    break
                raise BudgetExceededError(
                    f"PSM exceeded {self.max_heap_pops} state pops "
                    f"({num_joins}-way join)"
                )
            if score_pow > evaluator.threshold_pow:
                break
            expand_at = next(
                (
                    position
                    for position, component in enumerate(state)
                    if component[0] == _NODE
                ),
                None,
            )
            if expand_at is None:
                self._emit_candidate(state, window_set, evaluator, score_pow)
                continue
            if tracer.enabled:
                tracer.metrics.histogram("queue.depth").observe(
                    len(heap) + 1
                )
                with tracer.span(
                    "engine.heap_pop", kind="state", expand_at=expand_at
                ):
                    self._expand_state(
                        heap,
                        tiebreak,
                        state,
                        score_pow,
                        expand_at,
                        join_windows,
                        seg_len,
                        evaluator,
                        spec,
                    )
            else:
                self._expand_state(
                    heap,
                    tiebreak,
                    state,
                    score_pow,
                    expand_at,
                    join_windows,
                    seg_len,
                    evaluator,
                    spec,
                )

    def _expand_state(
        self,
        heap: List[JoinHeapEntry],
        tiebreak: Iterator[int],
        state: Tuple[Component, ...],
        score_pow: float,
        expand_at: int,
        join_windows: Sequence[QueryWindow],
        seg_len: int,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        index: SlidingWindowIndex = self.index  # type: ignore[assignment]
        page_id = state[expand_at][1]
        try:
            node = index.tree.read_node(page_id)
        except StorageError as error:
            # Degrade: this join state (and every state it would spawn)
            # is dropped; other states keep merging.
            evaluator.fault(error, page_id=page_id)  # type: ignore[arg-type]
            return
        evaluator.stats.node_expansions += 1
        window = join_windows[expand_at]
        old_pow = state[expand_at][2]
        threshold_pow = evaluator.threshold_pow
        entries = node.entries
        if not entries:
            return
        # Sliding leaf records hold raw offsets (stride 1), so the
        # candidate a record implies under this join window starts at
        # ``offset - sliding_offset`` — aligned states therefore score
        # every component under the *same* candidate stats.
        norm = (
            None
            if evaluator.norm is None
            else evaluator.norm.for_window(window.sliding_offset, 1)
        )
        dist_pows, _far = score_node(
            node, window, norm, seg_len, spec.p, evaluator.tracer
        )
        for entry, dist_pow in zip(entries, dist_pows.tolist()):
            if node.is_leaf:
                component: Component = (_LEAF, entry.record, dist_pow)
            else:
                component = (_NODE, entry.child_page, dist_pow)
            new_score = score_pow - old_pow + dist_pow
            if new_score > threshold_pow:
                continue
            new_state = (
                state[:expand_at] + (component,) + state[expand_at + 1 :]
            )
            if not self._signature_allows(new_state, evaluator):
                continue
            heapq.heappush(heap, (new_score, next(tiebreak), new_state))

    def _signature_allows(
        self, state: Tuple[Component, ...], evaluator: CandidateEvaluator
    ) -> bool:
        """Join-signature screening (bloom probes are counted).

        Every resolved (leaf) component implies the exact key each other
        component must eventually produce; leaf/leaf conflicts are exact
        checks, leaf/node requirements are bloom probes.
        """
        index: SlidingWindowIndex = self.index  # type: ignore[assignment]
        omega = index.omega
        anchor: Optional[Tuple[int, int, int]] = None  # (pos, sid, offset)
        for position, (kind, payload, _dist) in enumerate(state):
            if kind != _LEAF:
                continue
            record: LeafRecord = payload  # type: ignore[assignment]
            if anchor is None:
                anchor = (position, record.sid, record.window_index)
                continue
            expected = anchor[2] + (position - anchor[0]) * omega
            if record.sid != anchor[1] or record.window_index != expected:
                return False
        if anchor is None:
            return True
        anchor_pos, sid, offset = anchor
        bloom = index.bloom
        stats = evaluator.stats
        for position, (kind, _payload, _dist) in enumerate(state):
            if kind == _LEAF:
                continue
            required = (sid, offset + (position - anchor_pos) * omega)
            stats.bloom_calls += 1
            if not bloom.might_contain(required):
                return False
        return True

    def _emit_candidate(
        self,
        state: Tuple[Component, ...],
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        score_pow: float,
    ) -> None:
        index: SlidingWindowIndex = self.index  # type: ignore[assignment]
        omega = index.omega
        first: LeafRecord = state[0][1]  # type: ignore[assignment]
        sid = first.sid
        start = first.window_index
        for position, (_kind, payload, _dist) in enumerate(state):
            record: LeafRecord = payload  # type: ignore[assignment]
            if (
                record.sid != sid
                or record.window_index != start + position * omega
            ):
                return  # exact alignment check (bloom false positive)
        if not candidate_in_bounds(
            start, window_set.length, index.store.length(sid)
        ):
            return
        evaluator.submit(sid, start, score_pow)
