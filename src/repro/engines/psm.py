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
  PAA-transformed and stored in an R*-tree — the GeneralMatch stride
  ``J = 1`` of :func:`~repro.index.builder.build_index`, where a leaf
  record's window number *is* its offset (:func:`build_sliding_index`)
  — so that disjoint query windows can align at arbitrary candidate
  offsets.  The join condition is alignment: component ``t`` must hit
  the window at offset ``start + t * omega`` of the same sequence.
* The bloom filter is populated with every indexed ``(sid, offset)``
  key; expanding a node probes, for each new state, the keys its fixed
  leaf components require from the still-unresolved components.  Each
  expansion of a fan-out-``f`` node in an ``n``-way join issues up to
  ``f * (n - 1)`` probes — the ``f^n`` signature blow-up the paper
  reports for ``n > 3`` falls out of the state tree.

Leaf/leaf alignment is checked exactly before a state is pushed, so
bloom false positives never corrupt the result.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Iterator, List, Optional, Tuple

from repro.core.windows import QueryWindowSet, candidate_in_bounds
from repro.engines.base import CandidateEvaluator, Engine, QuerySpec
from repro.engines.bounds import WindowProbe
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.index.bloom import BloomFilter
from repro.index.builder import DualMatchIndex, build_index
from repro.index.rstar import LeafRecord
from repro.storage.sequences import SequenceStore

_NODE = 0
_LEAF = 1

#: A join-state component: (kind, payload, dist_pow) where payload is a
#: node page id or a LeafRecord whose ``window_index`` field holds the
#: sliding-window *offset*.
Component = Tuple[int, object, float]

#: Heap entry of the best-first join: (score ** p, tiebreak, state).
JoinHeapEntry = Tuple[float, int, Tuple[Component, ...]]


def build_sliding_index(
    store: SequenceStore,
    omega: int,
    features: int,
    p: float = 2.0,
    max_entries: Optional[int] = None,
    bulk: bool = True,
) -> DualMatchIndex:
    """Index every sliding window of every sequence (offline build).

    The ``J = 1`` :func:`~repro.index.builder.build_index`, plus the
    bloom filter over every indexed ``(sid, offset)`` key that PSM's
    join signatures probe.
    """
    index = build_index(
        store,
        omega,
        features,
        p=p,
        max_entries=max_entries,
        bulk=bulk,
        data_stride=1,
    )
    index.bloom = BloomFilter.with_capacity(max(1, store.total_values))
    for leaf in index.tree.iter_leaves():
        for record in leaf.refs:
            index.bloom.add(record)
    return index


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
        index: DualMatchIndex,
        max_heap_pops: Optional[int] = None,
        budget_action: str = "raise",
    ) -> None:
        super().__init__(index)
        if index.bloom is None:
            raise ConfigurationError(
                "PSM joins over a build_sliding_index() result"
            )
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
        # Under J = 1 the used query windows are exactly the disjoint
        # ones at sliding offsets 0, omega, ...: one join attribute each.
        # A leaf record's window number is its raw offset, so the
        # candidate it implies under a join window starts at ``offset -
        # sliding_offset`` — aligned states therefore score every
        # component under the *same* candidate stats.
        probes = [evaluator.probe(window) for window in window_set.windows]
        num_joins = len(probes)
        stats = evaluator.stats
        tree = self.index.tree
        tiebreak = itertools.count()

        root_state: Tuple[Component, ...] = tuple(
            (_NODE, tree.root_page, 0.0) for _ in range(num_joins)
        )
        heap: List[JoinHeapEntry] = [(0.0, next(tiebreak), root_state)]
        budget = evaluator.control
        tracer = evaluator.tracer
        # The run's state, bound once: a pop names only its join state.
        expand = functools.partial(
            self._expand_state, heap, tiebreak, probes, evaluator
        )

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
                    expand(state, score_pow, expand_at)
            else:
                expand(state, score_pow, expand_at)

    def _expand_state(
        self,
        heap: List[JoinHeapEntry],
        tiebreak: Iterator[int],
        probes: List[WindowProbe],
        evaluator: CandidateEvaluator,
        state: Tuple[Component, ...],
        score_pow: float,
        expand_at: int,
    ) -> None:
        """Expand the first unresolved component of one join state."""
        page_id: int = state[expand_at][1]  # type: ignore[assignment]
        expanded = probes[expand_at].expand(page_id)
        if expanded is None:
            # Degrade: this join state (and every state it would spawn)
            # is dropped; other states keep merging.
            return
        node, dist_pows, _far = expanded
        old_pow = state[expand_at][2]
        threshold_pow = evaluator.threshold_pow
        kind = _LEAF if node.is_leaf else _NODE
        for ref, dist_pow in zip(node.refs, dist_pows.tolist()):
            component: Component = (kind, ref, dist_pow)
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
        omega = self.index.omega
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
        bloom = self.index.bloom
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
        # Aligned: _signature_allows checked every leaf against position 0.
        first: LeafRecord = state[0][1]  # type: ignore[assignment]
        sid = first.sid
        start = first.window_index
        if not candidate_in_bounds(
            start, window_set.length, self.index.store.length(sid)
        ):
            return
        evaluator.submit(sid, start, score_pow)
