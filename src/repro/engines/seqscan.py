"""SeqScan: the sequential-scan baseline of Experiment 1.

Reads every data page in file order, slides the query envelope across
every offset, and filters with ``LB_Keogh`` before computing banded DTW —
the paper notes that "SeqScan exploits LB_Keogh before DTW computations".
Its candidate and page-access counts are constant in ``k``, the window
size, and the buffer size, which is exactly the behaviour Figures 11–16
show for the SeqScan series.

``LB_Keogh`` over all offsets is evaluated in vectorised blocks over a
sliding-window view; DTW still runs per surviving offset with early
abandoning against ``delta_cur``.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import dtw_pow
from repro.core.lower_bounds import lb_keogh_pow_batch
from repro.core.windows import QueryWindowSet
from repro.engines.base import CandidateEvaluator, Engine, QuerySpec
from repro.exceptions import StorageError
from repro.obs.tracer import Tracer

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
        query = window_set.query
        length = window_set.length
        store = self.index.store
        stats = evaluator.stats
        collector = evaluator.collector

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
            if tracer.enabled:
                with tracer.span("scan.sequence", sid=sid):
                    self._scan_sequence(
                        sid, window_set, evaluator, spec
                    )
            else:
                self._scan_sequence(sid, window_set, evaluator, spec)

    def _scan_sequence(
        self,
        sid: int,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        """Scan one sequence: block LB_Keogh filter, then per-offset DTW."""
        query = window_set.query
        length = window_set.length
        store = self.index.store
        stats = evaluator.stats
        collector = evaluator.collector
        budget = evaluator.control
        tracer = evaluator.tracer
        try:
            values = store.read_full_sequence(sid)
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
                # scalar path, so SeqScan distances stay bit-identical
                # to the index engines' on common candidates.
                mus = all_mus[block_start : block_start + _BLOCK]
                sigmas = all_sigmas[block_start : block_start + _BLOCK]
                block = (block - mus[:, None]) / sigmas[:, None]
            if tracer.enabled:
                with tracer.span("engine.lb_batch", n=int(block.shape[0])):
                    keogh_pows = lb_keogh_pow_batch(
                        window_set.envelope, block, spec.p
                    )
                tracer.metrics.histogram("lb.batch_size").observe(
                    block.shape[0]
                )
            else:
                keogh_pows = lb_keogh_pow_batch(
                    window_set.envelope, block, spec.p
                )
            stats.candidates += block.shape[0]
            stats.lb_keogh_computations += block.shape[0]
            for row, keogh_pow in enumerate(keogh_pows):
                threshold_pow = collector.threshold_pow
                if keogh_pow > threshold_pow:
                    stats.pruned_by_lb_keogh += 1
                    continue
                stats.dtw_computations += 1
                if tracer.enabled:
                    with tracer.span(
                        "candidate.verify", sid=sid, start=block_start + row
                    ):
                        distance_pow = self._verify_offset(
                            block[row], query, spec, threshold_pow, tracer
                        )
                else:
                    distance_pow = dtw_pow(
                        block[row],
                        query,
                        spec.rho,
                        p=spec.p,
                        threshold_pow=threshold_pow,
                    )
                collector.offer_pow(distance_pow, sid, block_start + row)

    @staticmethod
    def _verify_offset(
        values: np.ndarray,
        query: np.ndarray,
        spec: QuerySpec,
        threshold_pow: float,
        tracer: Tracer,
    ) -> float:
        distance_pow = dtw_pow(
            values,
            query,
            spec.rho,
            p=spec.p,
            threshold_pow=threshold_pow,
        )
        metrics = tracer.metrics
        metrics.counter("verify.dtw").inc()
        if distance_pow > threshold_pow:
            metrics.counter("verify.dtw_abandoned").inc()
        return distance_pow
