"""Range (epsilon) subsequence matching over the DualMatch index.

The paper's lineage — FRM [7], DualMatch [17], GeneralMatch [16] —
solves *range* subsequence matching: find every subsequence within
distance ``epsilon`` of the query.  The ranked engines subsume it in
principle, but a direct range engine is both simpler and cheaper, and
rounds the library out for users who want threshold queries.

Correctness under banded DTW follows the same chain as ranked matching:
if ``DTW_rho(Q, S[a:b]) <= epsilon`` then *every* matching window pair
satisfies ``LB_PAA(P(E(q_i)), P(s_m)) <= epsilon`` (a single term of
Lemma 4's sum cannot exceed the whole).  A candidate at start ``s``
aligns disjoint data windows with the sliding query windows at offsets
congruent to ``-s`` modulo ``omega``, so — exactly as in DualMatch —
**every sliding query window** issues one index range query with radius
``epsilon``; together they cover every candidate offset (Lemma 3).
"""

from __future__ import annotations

from repro.core.windows import (
    QueryWindowSet,
    candidate_in_bounds,
    candidate_start,
)
from repro.engines.base import CandidateEvaluator, Engine, QuerySpec
from repro.engines.bounds import WindowProbe


class RangeSearchEngine(Engine):
    """Exact epsilon-matching via window-level index range queries.

    Runs on the shared engine template with a ``kind="range"``
    :class:`~repro.engines.base.QuerySpec`: results come back
    best-first with the same fault policy, z-normalization semantics,
    and cooperative budget/deadline/cancellation checkpoints as the
    ranked engines, and candidates are verified by the same LB_Keogh →
    DTW cascade against the fixed threshold ``epsilon``.  Because a
    range probe visits the tree in arbitrary stack order it reports no
    frontier, so an interrupted range search certifies nothing beyond
    what it already verified: the partial result's certificate is 0.
    """

    name = "RangeSearch"

    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        budget = evaluator.control
        tracer = evaluator.tracer
        # Every sliding query window issues one range probe (DualMatch).
        for window in window_set.windows:
            budget.checkpoint()
            with tracer.span("range.window", offset=window.sliding_offset):
                self._probe_window(
                    evaluator.probe(window), window_set, evaluator
                )

    def _probe_window(
        self,
        probe: WindowProbe,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
    ) -> None:
        store = self.index.store
        stride = self.index.data_stride
        offset = probe.window.sliding_offset
        budget = evaluator.control
        epsilon_pow = evaluator.threshold_pow
        stack = [probe.tree.root_page]
        while stack:
            budget.checkpoint()
            expanded = probe.expand(stack.pop())
            if expanded is None:
                continue  # degrade: unreadable subtree, keep probing
            node, gap_pows, _far = expanded
            for ref, gap_pow in zip(node.refs, gap_pows.tolist()):
                if gap_pow > epsilon_pow:
                    continue
                if not node.is_leaf:
                    stack.append(ref)
                    continue
                start = candidate_start(ref.window_index, offset, stride)
                if not evaluator.first_sighting(ref.sid, start):
                    continue
                if candidate_in_bounds(
                    start, window_set.length, store.length(ref.sid)
                ):
                    evaluator.verify(ref.sid, start)

