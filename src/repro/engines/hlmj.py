"""HLMJ: the prior state of the art (Han et al., VLDB 2007 [12]).

One **global** minimum priority queue holds matching pairs of every
sliding query window with R*-tree nodes and leaf entries, ordered by
their index-level distance (MINDIST for nodes, ``LB_PAA`` for points).
When a leaf pair is popped, its **MDMWP-distance** — ``(r * d^p)^(1/p)``
with ``r`` the guaranteed number of disjoint windows inside a candidate
(Definition 2) — is compared against ``delta_cur``; because pops come out
in non-decreasing ``d``, the first pop whose MDMWP-distance exceeds
``delta_cur`` terminates the whole search.

This engine exists to reproduce the paper's motivating pathology: when
some query windows land in dense index regions and others in sparse
ones, the global queue drowns in dense-region pairs and the
MDMWP-distance grows very slowly (Figure 2; Experiments 2 and 4).

``use_window_group=True`` additionally enables [12]'s tighter
*window-group distance*: before retrieving a candidate, the LB_PAA
terms of **all** disjoint windows it contains are summed, each window
PAA-transformed from the stored values (the original system keeps the
transformed windows alongside its index).  This prunes more candidates
per pop but cannot fix the scheduling order itself — the ablation bench
compares it with the ranked-union engines.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import List, Optional, Tuple, cast

from repro.core.lower_bounds import min_disjoint_windows
from repro.core.normalize import NormalizationContext
from repro.core.paa import paa
from repro.core.windows import (
    QueryWindowSet,
    candidate_in_bounds,
    candidate_start,
)
from repro.core.metrics import QueryStats
from repro.engines.base import CandidateEvaluator, Engine, QuerySpec
from repro.engines.bounds import WindowProbe, score_point
from repro.index.builder import DualMatchIndex

_NODE = 0
_LEAF = 1


class HlmjEngine(Engine):
    """Global-priority-queue ranked matching with MDMWP pruning.

    Parameters
    ----------
    index:
        The DualMatch index.
    use_window_group:
        Enable [12]'s window-group distance as an additional
        per-candidate prune (see module docstring).
    """

    name = "HLMJ"

    def __init__(
        self, index: DualMatchIndex, use_window_group: bool = False
    ) -> None:
        super().__init__(index)
        self.use_window_group = use_window_group
        if use_window_group:
            self.name = "HLMJ-WG"

    def _window_group_pow(
        self,
        window_set: QueryWindowSet,
        sid: int,
        start: int,
        stats: QueryStats,
        p: float,
        norm: Optional[NormalizationContext] = None,
    ) -> float:
        """Sum of LB_PAA terms over every class window the candidate
        fully contains (the window-group distance, p-th power).

        Each contained data window's PAA point is re-derived from the
        stored values, an offline read that is not counted, like the
        index build's: :func:`~repro.core.paa.paa` is bit-equal to the
        indexed point.  Under normalized matching every contained window
        is a window of the *same* candidate, so all terms transform by
        the candidate's own ``(mu, sigma)`` — the stats the verification
        path will use.
        """
        omega = self.index.omega
        features = self.index.features
        seg_len = self.index.seg_len
        peek = self.index.store.peek_subsequence
        stats.window_group_evaluations += 1
        candidate_stats = None if norm is None else norm.stats(sid, start)
        # The candidate's class residue: offset of its first grid window.
        residue = (-start) % self.index.data_stride
        total = 0.0
        offset = residue
        while offset + omega <= window_set.length:
            total += score_point(
                window_set.window_at(offset),
                paa(peek(sid, start + offset, omega), features),
                candidate_stats,
                seg_len,
                p,
            )
            offset += omega
        return total

    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        tree = self.index.tree
        store = self.index.store
        stats = evaluator.stats
        probes = [evaluator.probe(window) for window in window_set.windows]
        r = min_disjoint_windows(
            window_set.length, self.index.omega, self.index.data_stride
        )
        tiebreak = itertools.count()

        # Heap entries: (dist_pow, seq, window_pos, kind, payload).
        # Seed every sliding window paired with the root node; the root
        # MINDIST is 0 by convention (its MBR covers everything relevant).
        heap: List[Tuple[float, int, int, int, object]] = [
            (0.0, next(tiebreak), index, _NODE, tree.root_page)
            for index, _window in enumerate(window_set.windows)
        ]
        heapq.heapify(heap)
        budget = evaluator.control
        # The run's state, bound once: a node pop names only its pair.
        expand = functools.partial(
            self._expand_pair, heap, tiebreak, probes, r, evaluator
        )

        tracer = evaluator.tracer
        while heap:
            # Everything still enqueued has MDMWP-distance^p at least
            # r * top, which is therefore a sound certificate frontier.
            budget.checkpoint(r * heap[0][0])
            dist_pow, _seq, window_pos, kind, payload = heapq.heappop(heap)
            stats.heap_pops += 1
            # MDMWP-distance of everything still enqueued is at least
            # r * dist_pow, so one failed check ends the search.
            if r * dist_pow > evaluator.threshold_pow:
                break
            if kind == _NODE:
                page_id = cast(int, payload)
                if tracer.enabled:
                    tracer.metrics.histogram("queue.depth").observe(
                        len(heap) + 1
                    )
                    with tracer.span("engine.heap_pop", kind="node"):
                        expand(window_pos, page_id)
                else:
                    expand(window_pos, page_id)
                continue
            window = window_set.windows[window_pos]
            record = payload
            start = candidate_start(
                record.window_index,
                window.sliding_offset,
                self.index.data_stride,
            )
            if not candidate_in_bounds(
                start, window_set.length, store.length(record.sid)
            ):
                continue
            bound_pow = r * dist_pow
            if self.use_window_group and not evaluator.already_seen(
                record.sid, start
            ):
                group_pow = self._window_group_pow(
                    window_set,
                    record.sid,
                    start,
                    stats,
                    spec.p,
                    evaluator.norm,
                )
                if group_pow > bound_pow:
                    bound_pow = group_pow
            evaluator.submit(record.sid, start, bound_pow)

    def _expand_pair(
        self,
        heap: List[Tuple[float, int, int, int, object]],
        tiebreak: "itertools.count[int]",
        probes: List[WindowProbe],
        r: int,
        evaluator: CandidateEvaluator,
        window_pos: int,
        page_id: int,
    ) -> None:
        """Expand one (window, node) pair into scored child pairs."""
        expanded = probes[window_pos].expand(page_id)
        if expanded is None:
            # Degrade: this (window, subtree) pair is dropped; the
            # global queue keeps draining.
            return
        threshold_pow = evaluator.threshold_pow
        node, child_pows, _far = expanded
        child_kind = _LEAF if node.is_leaf else _NODE
        for ref, child_pow in zip(node.refs, child_pows.tolist()):
            if r * child_pow > threshold_pow:
                continue
            heapq.heappush(
                heap, (child_pow, next(tiebreak), window_pos, child_kind, ref)
            )
