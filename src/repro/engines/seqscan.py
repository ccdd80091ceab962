"""SeqScan: the sequential-scan baseline of Experiment 1.

Reads every data page in file order, slides the query envelope across
every offset, and filters with ``LB_Keogh`` before computing banded DTW —
the paper notes that "SeqScan exploits LB_Keogh before DTW computations".
Its candidate and page-access counts are constant in ``k``, the window
size, and the buffer size, which is exactly the behaviour Figures 11–16
show for the SeqScan series.

Each block of offsets, taken from a sliding-window view, goes through
the evaluator's set-at-a-time cascade: one batched ``LB_Keogh``, then
lane-chunked early-abandoning DTW in ``LB_Keogh`` order against
``delta_cur``.
"""

from __future__ import annotations

import numpy as np

from repro.core.windows import QueryWindowSet
from repro.engines.base import CandidateEvaluator, Engine, QuerySpec
from repro.exceptions import StorageError

#: Offsets processed per vectorised LB_Keogh block (~3 MB at Len(Q)=384).
_BLOCK = 1024


class SeqScanEngine(Engine):
    """Full scan with LB_Keogh pre-filtering."""

    name = "SeqScan"

    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        length = window_set.length
        store = self.index.store
        budget = evaluator.control
        tracer = evaluator.tracer
        for sid in store.sequence_ids():
            # A scan has no index-level bound on what it has not read
            # yet, so its certificate frontier stays at the trivial 0.0:
            # an interrupted SeqScan promises nothing beyond what it
            # already evaluated.
            budget.checkpoint()
            if store.length(sid) < length:
                continue
            with tracer.span("scan.sequence", sid=sid):
                self._scan_sequence(sid, window_set, evaluator)

    def _scan_sequence(
        self,
        sid: int,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
    ) -> None:
        """Scan one sequence: every block of offsets through the cascade."""
        length = window_set.length
        budget = evaluator.control
        try:
            values = self.index.store.read_full_sequence(
                sid, evaluator.stats
            )
        except StorageError as error:
            # Degrade: the whole sequence is unreadable past the
            # failed page; skip it and scan the rest.
            evaluator.fault(error, candidate=(sid, -1))
            return
        offsets = values.size - length + 1
        windows = np.lib.stride_tricks.sliding_window_view(values, length)
        norm = evaluator.norm
        if norm is not None:
            all_mus, all_sigmas = norm.stats_array(
                sid, np.arange(offsets, dtype=np.int64)
            )
        for block_start in range(0, offsets, _BLOCK):
            budget.checkpoint()
            block = windows[block_start : block_start + _BLOCK]
            if norm is not None:
                # Same elementwise (x - mu) / sigma as the evaluator's
                # per-candidate path, so SeqScan distances stay
                # bit-identical to the index engines' on common
                # candidates.
                mus = all_mus[block_start : block_start + _BLOCK]
                sigmas = all_sigmas[block_start : block_start + _BLOCK]
                block = (block - mus[:, None]) / sigmas[:, None]
            count = int(block.shape[0])
            evaluator.stats.candidates += count
            evaluator.verify_rows(
                block, [sid] * count, range(block_start, block_start + count)
            )
