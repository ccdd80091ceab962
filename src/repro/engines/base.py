"""Shared engine plumbing.

:class:`CandidateEvaluator` centralises everything that happens once an
engine decides a candidate subsequence is worth looking at:

* duplicate suppression (a candidate is reachable through many matching
  window pairs — Section 2 of the paper);
* index-level lower-bound pruning against ``delta_cur``;
* the deferred retrieval path ("(D)" variants) versus immediate
  retrieval;
* the retrieval pipeline itself: fault candidate pages through the
  buffer pool, then one cascade — ``LB_Keogh``, then early-abandoning
  ``DTW_rho`` in bound order — that offers survivors to the shared
  top-k collector.  It runs on one candidate when the engine needs the
  distance back and on a retrieved set for deferred drains and SeqScan
  blocks; only the kernels differ (scalar for one row, batched for a
  set).

Keeping this in one place guarantees that all five engines measure
candidates, page accesses, and prunes identically, so the benchmark
comparisons test *scheduling and bounds*, not bookkeeping differences.
"""

from __future__ import annotations

import abc
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.control import ExecutionControl, certificate_from_pow
from repro.core.distance import dtw_pow, dtw_pow_batch
from repro.core.lower_bounds import lb_keogh_pow, lb_keogh_pow_batch
from repro.core.metrics import QueryStats
from repro.core.normalize import NormalizationContext, znormalize
from repro.core.results import Match, RangeCollector, TopKCollector
from repro.core.windows import QueryWindow, QueryWindowSet
from repro.engines.bounds import NodeGrid, WindowProbe
from repro.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
    QueryError,
    StorageError,
)
from repro.index.builder import DualMatchIndex
from repro.obs import QueryProfile
from repro.obs.tracer import NULL_SPAN, Span
from repro.storage.deferred import CandidateRequest, DeferredRetrievalBuffer

#: Bytes per stored value, used to express the deferred budget as a
#: fraction of database size (:data:`DEFERRED_FRACTION`).
_VALUE_BYTES = 8

#: Candidates a deferred drain retrieves before it runs the cascade over
#: them.  The deferred buffer's capacity grows with the database; this
#: bounds the rows (and the LB_Keogh temporaries over them) a drain
#: holds at once.  With two service workers draining at once, 64 / 128 /
#: 256 rows cost +2.5 / +4.4 / +8.5 % peak RSS at the same latency.
_DRAIN_ROWS = 128

#: Memory budget for delayed requests, as a fraction of database bytes
#: (the paper's 0.5 %).
DEFERRED_FRACTION = 0.005

#: Candidates per DTW chunk of the cascade; the threshold is re-read
#: between chunks.  Wider lanes amortise the kernel's per-diagonal calls
#: but refresh the threshold less often; 8 to 32 measure the same.
_DTW_LANES = 16

#: Engine names a ``knn`` query may select (see :mod:`repro.api`).
METHODS = ("seqscan", "hlmj", "hlmj-wg", "psm", "ru", "ru-cost")

#: Query kinds: ranked top-k, epsilon range, lazily streamed top-k.
KINDS = ("knn", "range", "stream")

#: The ranked-union methods (RU, RU-COST): the only ones a stream runs.
RANKED_UNION_METHODS = ("ru", "ru-cost")

#: Storage-fault policies (see :attr:`QuerySpec.on_fault`).
ON_FAULT = ("raise", "degrade")

#: Where a run's verified candidates go: a top-k or an epsilon range.
Collector = Union[TopKCollector, RangeCollector]


def default_rho(query_length: int) -> int:
    """The paper's warping width: 5 % of ``Len(Q)``, at least 1."""
    return max(1, int(0.05 * query_length))


@dataclass(frozen=True)
class QuerySpec:
    """What one query asks for — built once at the API/protocol edge.

    The public keyword methods of both facades and the query service
    each build one spec (:meth:`for_query`) and hand it, unchanged and
    together with one :class:`~repro.control.ExecutionControl`, down
    through the sharded fan-out to the engine.  It is frozen, so every
    shard run of a fan-out can share it.

    Attributes
    ----------
    rho:
        Warping width, already resolved (see :func:`default_rho`).
    kind:
        ``"knn"`` (top-``k`` by ``method``), ``"range"`` (everything
        within ``epsilon``), or ``"stream"`` (top-``k`` emitted lazily
        by the ranked-union tree of ``method``).
    k:
        Number of results (``knn`` / ``stream``).
    epsilon:
        Distance threshold (``range``).
    method:
        Engine name, one of :data:`METHODS`; a ``stream`` accepts only
        the :data:`RANKED_UNION_METHODS`.
    deferred:
        Enable the deferred retrieval mechanism (the "(D)" variants),
        with a budget of :data:`DEFERRED_FRACTION` of database bytes.
        A ``knn`` query only: a stream emits each match as it is
        verified, which deferral would hold back.
    p:
        Norm order.
    on_fault:
        Storage-fault policy.  ``"raise"`` (default) propagates any
        :class:`~repro.exceptions.StorageError` that survives the buffer
        pool's retries — exactness is preserved or the query fails.
        ``"degrade"`` skips unreadable candidates and index subtrees,
        still returns a well-formed top-k over everything readable, and
        flags the result ``degraded=True`` with a per-query
        :class:`FaultReport` — availability over exactness.
    normalize:
        Match in z-normalized space (amplitude/offset-invariant): the
        query and every candidate window are normalized to zero mean and
        unit variance before bounding and DTW, using the online
        rolling-stats kernel of :mod:`repro.core.normalize` and the
        ``*_znorm_*`` members of the RS005 bound chain.  ``False`` (the
        default) preserves the raw paper semantics bit for bit.
    """

    rho: int
    kind: str = "knn"
    k: int = 10
    epsilon: float = 0.0
    method: str = "ru-cost"
    deferred: bool = False
    p: float = 2.0
    on_fault: str = "raise"
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown query kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.epsilon < 0:
            raise QueryError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.rho < 0:
            raise ConfigurationError(f"rho must be >= 0, got {self.rho}")
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if self.kind == "stream" and self.method not in RANKED_UNION_METHODS:
            raise ConfigurationError(
                f"a stream runs a ranked-union method, one of "
                f"{RANKED_UNION_METHODS}; got method {self.method!r}"
            )
        if self.kind == "stream" and self.deferred:
            raise ConfigurationError(
                "a stream cannot defer retrieval: it emits each match as "
                "it is verified"
            )
        if self.on_fault not in ON_FAULT:
            raise ConfigurationError(
                f"on_fault must be 'raise' or 'degrade', got "
                f"{self.on_fault!r}"
            )

    @classmethod
    def for_query(
        cls, query: Sequence[float], rho: Optional[int] = None, **fields: Any
    ) -> "QuerySpec":
        """The spec for ``query``; ``rho=None`` takes the paper default."""
        if rho is None:
            rho = default_rho(len(query))
        return cls(rho=rho, **fields)


#: Cap on recorded fault events so a sick disk cannot balloon a report.
_MAX_FAULT_EVENTS = 64


@dataclass(frozen=True)
class FaultEvent:
    """One storage fault tolerated during a degraded query."""

    error: str
    detail: str
    page_id: Optional[int] = None
    candidate: Optional[Tuple[int, int]] = None


@dataclass
class FaultReport:
    """Everything a degraded query skipped, for the caller to audit."""

    events: List[FaultEvent] = field(default_factory=list)
    #: Events beyond the recording cap (counted but not itemised).
    suppressed: int = 0

    def __bool__(self) -> bool:
        return bool(self.events) or self.suppressed > 0

    @property
    def total(self) -> int:
        return len(self.events) + self.suppressed

    def record(
        self,
        error: StorageError,
        page_id: Optional[int] = None,
        candidate: Optional[Tuple[int, int]] = None,
    ) -> None:
        if len(self.events) >= _MAX_FAULT_EVENTS:
            self.suppressed += 1
            return
        self.events.append(
            FaultEvent(
                error=type(error).__name__,
                detail=str(error),
                page_id=page_id,
                candidate=candidate,
            )
        )

    @property
    def failed_pages(self) -> List[int]:
        """Distinct page ids implicated, in first-seen order."""
        seen: List[int] = []
        for event in self.events:
            if event.page_id is not None and event.page_id not in seen:
                seen.append(event.page_id)
        return seen

    @property
    def skipped_candidates(self) -> List[Tuple[int, int]]:
        """``(sid, start)`` pairs dropped from consideration."""
        return [
            event.candidate
            for event in self.events
            if event.candidate is not None
        ]


@dataclass
class SearchResult:
    """Matches plus the per-query counters the paper reports."""

    matches: List[Match]
    stats: QueryStats
    #: True when faults forced the engine to skip work under
    #: ``on_fault="degrade"`` — the top-k is well-formed but may miss
    #: true results that lived on unreadable pages.
    degraded: bool = False
    #: Per-query audit of tolerated faults (``None`` on healthy runs).
    fault_report: Optional[FaultReport] = None
    #: Span tree + metrics delta for this query — populated only when
    #: the bound tracer was enabled (``None`` otherwise, at zero cost).
    profile: Optional[QueryProfile] = None
    #: ``source -> counters`` behind the answer; they sum to
    #: :attr:`stats`.  A sharded answer has one entry per shard that
    #: ran, an unsharded one ``{0: stats}``.
    shard_stats: Dict[int, QueryStats] = field(default_factory=dict)

    @property
    def distances(self) -> List[float]:
        return [match.distance for match in self.matches]


@dataclass
class PartialResult(SearchResult):
    """A query cut short by a budget, deadline, or cancellation.

    The matches are the best-k-so-far over everything *examined*.  The
    :attr:`certificate` states exactly what exactness was given up: it
    is a lower bound on the true distance of every candidate the engine
    did **not** examine.  Consequences a caller can rely on:

    * every returned match with ``distance < certificate`` provably
      belongs to the exact top-k (no unexamined candidate can displace
      it);
    * the exact top-k can differ from the returned list only at
      distances ``>= certificate``;
    * an infinite certificate means nothing examinable remained — the
      partial result is in fact exact.

    This is the anytime form of the paper's Section 3 no-false-dismissal
    contract: instead of silently dropping candidates, the early exit
    reports the tightest bound under which drops may have occurred.
    """

    #: Why the query stopped: ``"cancelled"``, ``"deadline"``,
    #: ``"budget:pages"``, or ``"budget:candidates"``.
    reason: str = ""
    #: Lower bound (distance, not p-th power) on any unexamined
    #: candidate's true distance.  ``inf`` when nothing was left.
    certificate: float = math.inf

    @property
    def exact(self) -> bool:
        """Whether the interrupt provably lost nothing."""
        return math.isinf(self.certificate)


class CandidateEvaluator:
    """Retrieval, pruning, and result collection for one query run."""

    def __init__(
        self,
        index: DualMatchIndex,
        window_set: QueryWindowSet,
        spec: QuerySpec,
        stats: QueryStats,
        collector: Collector,
        control: Optional[ExecutionControl] = None,
        norm: Optional[NormalizationContext] = None,
    ) -> None:
        self._index = index
        self._windows = window_set.windows
        self._envelope = window_set.envelope
        self._query = window_set.query
        self._spec = spec
        self.stats = stats
        #: Per-query candidate statistics when matching in z-normalized
        #: space (``None`` on the raw path).  Index bounds (:meth:`probe`)
        #: and verification read the same stats.
        self.norm = norm
        #: The query's node grids, one per ``include_far`` flag, built
        #: by the first :meth:`probe` that asks for one.
        self._grids: Dict[bool, NodeGrid] = {}
        #: The query's budget/deadline/cancellation checkpoints.  Engines
        #: bind this as their local ``budget`` and checkpoint at every
        #: traversal-loop boundary (lint rule RS007).  A default
        #: instance has no limits and never interrupts.
        self.control = control if control is not None else ExecutionControl()
        #: The query's tracer (disabled singleton unless the caller
        #: wired one through the control plane).
        self.tracer = self.control.tracer
        #: Where verified candidates go.  Every source's evaluator of
        #: one query gets the same one, so all of them prune against
        #: one ``delta_cur`` (or one ``epsilon``).
        self.collector = collector
        self.fault_report = FaultReport()
        self._seen: Set[Tuple[int, int]] = set()
        self._deferred: Optional[DeferredRetrievalBuffer] = None
        if spec.deferred:
            database_bytes = index.store.total_values * _VALUE_BYTES
            self._deferred = DeferredRetrievalBuffer(
                DeferredRetrievalBuffer.capacity_for_database(
                    database_bytes, DEFERRED_FRACTION
                )
            )
            self._deferred.tracer = self.tracer

    @property
    def threshold_pow(self) -> float:
        """``delta_cur ** p`` — the current pruning threshold."""
        return self.collector.threshold_pow

    @property
    def query_length(self) -> int:
        return int(self._query.size)

    @property
    def degrades(self) -> bool:
        """Whether this run tolerates storage faults by skipping work."""
        return self._spec.on_fault == "degrade"

    def fault(
        self,
        error: StorageError,
        page_id: Optional[int] = None,
        candidate: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Handle one storage fault according to the ``on_fault`` policy.

        Re-raises under ``"raise"`` (the default — exactness preserved);
        records and returns under ``"degrade"`` so the caller can skip
        the affected candidate or subtree and continue.
        """
        if not self.degrades:
            raise error
        self.stats.faults_skipped += 1
        self.fault_report.record(error, page_id=page_id, candidate=candidate)

    def probe(
        self, window: QueryWindow, include_far: bool = False
    ) -> WindowProbe:
        """The node step of ``window`` over this run's index.

        Every probe of the run with the same ``include_far`` is a row of
        one :class:`~repro.engines.bounds.NodeGrid` over all the query's
        windows, carrying the run's stats, fault policy and
        normalization: a node is scored once per query, for every
        window, however many windows expand it.
        """
        grid = self._grids.get(include_far)
        if grid is None:
            grid = self._grids[include_far] = NodeGrid(
                self._windows,
                self._index,
                self._spec.p,
                self.stats,
                on_fault=self.fault,
                norm=self.norm,
                include_far=include_far,
            )
        return grid.probe(window)

    def release(self) -> None:
        """Drop the node grids' memos: a finished run is cyclic garbage
        (probes and queues refer back here) that the memo need not wait in.
        """
        for grid in self._grids.values():
            grid.memo.clear()
        self._grids.clear()

    def already_seen(self, sid: int, start: int) -> bool:
        """Whether a candidate was already submitted (no side effects)."""
        return (sid, start) in self._seen

    def first_sighting(self, sid: int, start: int) -> bool:
        """Mark a candidate seen; ``False`` (and counted) for a duplicate.

        A candidate is reachable through many matching window pairs
        (Section 2 of the paper); only its first sighting is examined.
        """
        key = (sid, start)
        if key in self._seen:
            self.stats.duplicates_suppressed += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("submit.duplicates").inc()
            return False
        self._seen.add(key)
        return True

    def submit(
        self, sid: int, start: int, lower_bound_pow: float
    ) -> Optional[float]:
        """Route one candidate: dedupe, prune, defer or evaluate.

        ``lower_bound_pow`` is the index-level lower bound (p-th power)
        that admitted the candidate — MDMWP for HLMJ, MSEQ-distance for
        the ranked-union engines, the join-state score for PSM.

        Returns the candidate's DTW distance (p-th power) when it was
        evaluated immediately and survived the LB_Keogh cascade; ``None``
        when it was a duplicate, pruned, deferred, or LB_Keogh-killed.
        The ``Φ`` operator uses the returned distance to feed its local
        candidate queue (``candMinQ_Φ`` in the paper).
        """
        if not self.first_sighting(sid, start):
            return None
        if lower_bound_pow > self.threshold_pow:
            self.stats.pruned_by_lower_bound += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("submit.lb_pruned").inc()
            return None
        if self._deferred is not None:
            self._deferred.add(
                CandidateRequest(
                    sid=sid,
                    start=start,
                    length=self.query_length,
                    lower_bound=lower_bound_pow,
                )
            )
            if self._deferred.is_full:
                self.flush()
            return None
        return self.verify(sid, start)

    def verify(self, sid: int, start: int) -> Optional[float]:
        """Retrieve one candidate and run it through :meth:`_cascade`.

        Immediate-mode :meth:`submit` (ranked union's ``Φ`` needs each
        distance back before its next pop) and the range probe verify
        this way.  Returns the DTW distance (p-th power), or ``None``
        when the candidate was unreadable or LB_Keogh-killed.
        """
        tracer = self.tracer
        # Once per candidate: untraced, skip building the span (~1 us).
        span = (
            tracer.span("candidate.verify", sid=sid, start=start)
            if tracer.enabled
            else NULL_SPAN
        )
        with span:
            values = self._retrieve(sid, start)
            if values is None:
                return None
            return self._cascade((values,), (sid,), (start,))

    def _retrieve(self, sid: int, start: int) -> Optional[np.ndarray]:
        """Fault one candidate in; ``None`` when degrade mode skipped it."""
        try:
            values = self._index.store.get_subsequence(
                sid, start, self.query_length, self.stats
            )
        except StorageError as error:
            self.fault(error, candidate=(sid, start))
            return None
        self.stats.candidates += 1
        if self.norm is not None:
            # One transform serves both LB_Keogh and DTW — the
            # arithmetic of lb_keogh_znorm_pow, applied once, so bound
            # and verification see the identical normalized array.
            mu, sigma = self.norm.stats(sid, start)
            values = znormalize(values, mu, sigma)
        return values

    def verify_rows(
        self, rows: np.ndarray, sids: Sequence[int], starts: Sequence[int]
    ) -> None:
        """Run the cascade over retrieved candidates, one per row.

        ``rows[b]`` holds candidate ``(sids[b], starts[b])``, already
        counted in ``stats.candidates`` and already z-normalized when
        the query is.
        """
        with self.tracer.span("candidate.verify", n=int(rows.shape[0])):
            self._cascade(rows, sids, starts)

    def _cascade(
        self, rows: Any, sids: Sequence[int], starts: Sequence[int]
    ) -> Optional[float]:
        """LB_Keogh, then early-abandoning DTW: the one verification loop.

        ``rows[b]`` holds candidate ``(sids[b], starts[b])``.  Bounds
        every row, then runs DTW over the survivors in ascending bound
        order, ``_DTW_LANES`` at a time, re-reading the collector's
        threshold — and pruning everything the sorted bound now
        excludes — between chunks.  It alone offers to the collector and
        counts the outcomes.  One row takes the scalar kernels and has
        nothing to sort.  Returns the distance (p-th power) of the last
        row DTW ran on, or ``None`` when LB_Keogh pruned every row.

        Exact, with the same matches as one-candidate-at-a-time
        verification: :class:`TopKCollector` is a pure function of the
        *set* offered to it under the ``(distance, sid, start)`` order,
        and a row is skipped (pruned or abandoned) only when its
        distance strictly exceeds the collector's threshold at the time,
        which is never below the final k-th distance.  A chunk's
        threshold is never tighter than the serial run's at the same
        candidate, so this offers a superset of the serial run's
        candidates whose extras lie strictly above the final k-th:
        matches and every counter but ``dtw_computations`` /
        ``pruned_by_lb_keogh`` are identical.
        """
        spec, tracer, query = self._spec, self.tracer, self._query
        count = len(sids)
        order: Union[List[int], np.ndarray]
        bounds: Union[List[float], np.ndarray]
        if count == 1:
            row = rows[0]
            order, bounds = [0], [lb_keogh_pow(self._envelope, row, spec.p)]

            def dtw(chunk: Any, threshold_pow: float) -> List[float]:
                return [dtw_pow(row, query, spec.rho, spec.p, threshold_pow)]

        else:
            block = np.asarray(rows)
            with tracer.span("engine.lb_batch", n=count):
                keogh_pows = lb_keogh_pow_batch(self._envelope, block, spec.p)
            if tracer.enabled:
                tracer.metrics.histogram("lb.batch_size").observe(count)
            order = np.argsort(keogh_pows, kind="stable")
            bounds = keogh_pows[order]

            def dtw(chunk: Any, threshold_pow: float) -> List[float]:
                return dtw_pow_batch(
                    block[chunk], query, spec.rho, spec.p, threshold_pow
                ).tolist()

        self.stats.lb_keogh_computations += count
        done = abandoned = 0
        distance_pow: Optional[float] = None
        while done < count:
            threshold_pow = self.threshold_pow
            end = min(bisect_right(bounds, threshold_pow), done + _DTW_LANES)
            if end <= done:
                break
            chunk = order[done:end]
            distance_pows = dtw(chunk, threshold_pow)
            for position, distance_pow in zip(chunk, distance_pows):
                # Above the threshold means abandoned: the DTW saving.
                abandoned += distance_pow > threshold_pow
                self.collector.offer_pow(
                    distance_pow, sids[position], starts[position]
                )
            done = end
        self.stats.pruned_by_lb_keogh += count - done
        self.stats.dtw_computations += done
        if tracer.enabled:
            for name, amount in (
                ("verify.lb_keogh_pruned", count - done),
                ("verify.dtw", done),
                ("verify.dtw_abandoned", abandoned),
            ):
                if amount:
                    tracer.metrics.counter(name).inc(amount)
        return distance_pow

    def flush(self) -> None:
        """Drain the deferred buffer (storage order, threshold re-check).

        Checkpoints between retrievals; when an interrupt lands
        mid-flush, the candidates already retrieved are still run
        through the cascade (they are counted and paid for, so they
        must not sit unexamined below the certificate) and the
        not-yet-retrieved requests are requeued before the signal
        propagates, so their lower bounds still feed
        :meth:`pending_lower_bound_pow` (and thus the certificate).
        """
        if self._deferred is None or len(self._deferred) == 0:
            return
        self.stats.deferred_flushes += 1
        tracer = self.tracer
        with tracer.span("deferred.drain", pending=len(self._deferred)):
            requests = list(self._deferred.drain(threshold=self.threshold_pow))
            if tracer.enabled:
                tracer.metrics.histogram("deferred.batch_size").observe(
                    len(requests)
                )
            for first in range(0, len(requests), _DRAIN_ROWS):
                with tracer.span(
                    "candidate.verify",
                    n=min(_DRAIN_ROWS, len(requests) - first),
                ):
                    self._verify_requests(requests, first)

    def _verify_requests(
        self, requests: List[CandidateRequest], first: int
    ) -> None:
        """Retrieve ``_DRAIN_ROWS`` requests from ``first`` on, then cascade.

        Retrieval is what it always was: storage order, a checkpoint
        before every fetch, faults handled per candidate.  Whatever
        stops it early, the rows already retrieved still go through the
        cascade on the way out.
        """
        assert self._deferred is not None
        rows: List[np.ndarray] = []
        kept: List[CandidateRequest] = []
        try:
            for position in range(
                first, min(first + _DRAIN_ROWS, len(requests))
            ):
                self.control.checkpoint()
                request = requests[position]
                values = self._retrieve(request.sid, request.start)
                if values is not None:
                    rows.append(values)
                    kept.append(request)
        except ExecutionInterrupted:
            self._deferred.requeue(requests[position:])
            raise
        finally:
            if rows:
                self._cascade(
                    rows,
                    [request.sid for request in kept],
                    [request.start for request in kept],
                )

    def pending_lower_bound_pow(self) -> float:
        """Smallest lower bound (p-th power) among deferred requests.

        ``inf`` when nothing is pending.  Folded into the exactness
        certificate: deferred candidates were admitted but never
        retrieved, so they count as unexamined work.
        """
        if self._deferred is None:
            return math.inf
        return self._deferred.min_pending_lower_bound()

    def finalize(self) -> None:
        """Flush any remaining deferred requests before returning results."""
        self.flush()


def query_window_set(
    query: Sequence[float], index: DualMatchIndex, spec: QuerySpec
) -> QueryWindowSet:
    """The windows of ``query`` on ``index``'s geometry, as ``spec`` asks."""
    return QueryWindowSet.from_query(
        query,
        omega=index.omega,
        features=index.features,
        rho=spec.rho,
        p=spec.p,
        data_stride=index.data_stride,
        normalize=spec.normalize,
    )


class QueryRun:
    """The per-query scaffold every engine entry runs inside.

    Setup — the ``engine.search`` root span, normalization context, the
    run's :class:`QueryStats` (which the buffer pool charges every page
    request to) bound to the control, the candidate evaluator — and
    teardown — wall time, fault report, interrupt →
    :class:`PartialResult` with its exactness certificate, the
    :class:`~repro.obs.QueryProfile` — happen here once, for the batch
    engines (:func:`~repro.engines.ranked_union.run_in_turn`) and for
    the ranked union
    (:class:`~repro.engines.ranked_union.RankedUnion`) alike.

    Advance the run only inside ``with run:``: the root span and its
    open phase span — ``engine.run`` from the start, ``engine.finalize``
    once :meth:`drain` begins — are this thread's current spans there and
    nowhere else, because a run may outlive the blocks that advance it
    and whatever its caller records between them (another shard's step,
    say) must not nest under it.  The run's ``wall_time_s`` is
    :attr:`busy_s`, the time spent inside those blocks, to which a
    ranked union adds the run's share of its own work between them.
    An interrupt escaping a block leaves the spans open for
    :meth:`finish`; any other error closes them.  A normal run ends,
    after its last block, with :meth:`finish`.

    Every run of one query, one per source, is handed the query's one
    ``window_set`` and one ``collector`` (see :class:`CandidateEvaluator`).
    """

    def __init__(
        self,
        index: DualMatchIndex,
        spec: QuerySpec,
        control: ExecutionControl,
        engine: str,
        window_set: QueryWindowSet,
        collector: Collector,
    ) -> None:
        self.spec = spec
        self.control = control
        self.window_set = window_set
        tracer = control.tracer
        self._metrics_before = (
            tracer.metrics.snapshot() if tracer.enabled else None
        )
        ranged = spec.kind == "range"
        size: dict = {"epsilon": spec.epsilon} if ranged else {"k": spec.k}
        self._root = tracer.start_span(
            "engine.search", engine=engine, rho=spec.rho, **size
        )
        try:
            # Candidate stats are priced through the zero-copy peek
            # path, so NUM_IO counts exactly the pages the engine
            # itself faults in.
            norm: Optional[NormalizationContext] = None
            if spec.normalize:
                norm = NormalizationContext(index.store, window_set.length)
            #: Time spent inside ``with run:`` blocks, reported as
            #: ``wall_time_s``.
            self.busy_s = 0.0
            self.stats = QueryStats()
            control.bind(self.stats)
            self.evaluator = CandidateEvaluator(
                index=index,
                window_set=window_set,
                spec=spec,
                stats=self.stats,
                collector=collector,
                control=control,
                norm=norm,
            )
        except BaseException as error:
            self._root.__exit__(type(error), error, None)
            raise
        self._phase = tracer.start_span("engine.run")
        tracer.suspend(self._phase)
        tracer.suspend(self._root)
        #: A ranked union enters the run once per step: untraced, that
        #: is only the clock.
        self._traced = isinstance(self._root, Span)

    def __enter__(self) -> "QueryRun":
        if self._traced:
            tracer = self.control.tracer
            tracer.resume(self._root)
            tracer.resume(self._phase)
        self._entered_at = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.busy_s += time.perf_counter() - self._entered_at
        if not self._traced:
            return
        if exc_type is None or issubclass(exc_type, ExecutionInterrupted):
            tracer = self.control.tracer
            tracer.suspend(self._phase)
            tracer.suspend(self._root)
        else:
            self._phase.__exit__(exc_type, exc, tb)
            self._root.__exit__(exc_type, exc, tb)

    def drain(self) -> None:
        """Flush the deferred buffer, under ``engine.finalize`` in place
        of ``engine.run``.  Call it inside ``with run:``."""
        self._phase.close()
        self._phase = self.control.tracer.start_span("engine.finalize")
        self.evaluator.finalize()

    def finish(
        self,
        matches: List[Match],
        interrupt: Optional[ExecutionInterrupted] = None,
    ) -> SearchResult:
        """Close the run: ``matches`` plus the counters, as a result.

        An ``interrupt`` (budget, deadline, cancellation) yields a
        :class:`PartialResult` instead of an exception.
        """
        stats = self.stats
        stats.wall_time_s = self.busy_s
        stats.checkpoints = self.control.checkpoints
        self.evaluator.release()
        report = self.evaluator.fault_report
        result = SearchResult(
            matches=matches,
            stats=stats,
            degraded=bool(report),
            fault_report=report if report else None,
            shard_stats={0: stats},
        )
        if interrupt is not None:
            stats.interrupted = 1
            # Everything *unexamined* is bounded below by the engine's
            # last reported frontier; deferred-but-unretrieved
            # candidates are bounded by their admitted lower bounds.
            # The min of the two is the tightest sound certificate (an
            # engine that reports no frontier, like SeqScan or the
            # range probe, certifies nothing: 0.0).
            certificate_pow = min(
                self.control.frontier_pow,
                self.evaluator.pending_lower_bound_pow(),
            )
            result = PartialResult(
                **vars(result),
                reason=interrupt.reason,
                certificate=certificate_from_pow(
                    certificate_pow, self.spec.p
                ),
            )
        root = self._root
        tracer = self.control.tracer
        tracer.resume(root)
        tracer.resume(self._phase)
        self._phase.close()
        root.close()
        if isinstance(root, Span) and self._metrics_before is not None:
            result.profile = QueryProfile(
                span=root,
                metrics=tracer.metrics.snapshot().delta(
                    self._metrics_before
                ),
                stats=stats,
                fault_report=result.fault_report,
            )
        return result


def prefix_certificate(certificate: float, emitted: Sequence[Match]) -> float:
    """Certificate for the emitted prefix of an interrupted ranked stream.

    ``certificate`` bounds the *unexamined* candidates, but an
    interrupted stream may also hold examined candidates whose ranks
    were never settled and therefore never emitted.  Those sit at or
    above the last emitted distance (ranked-union emission is
    nondecreasing), so the sound bound for the prefix is the minimum of
    the two — and 0.0 when nothing was emitted at all (a vacuous but
    honest certificate).
    """
    if not emitted:
        return 0.0
    return min(certificate, emitted[-1].distance)


class Engine(abc.ABC):
    """Base class of the batch engines: an index and a traversal.

    Subclasses implement :meth:`_run`, which drives their traversal and
    submits candidates through the provided evaluator.  The driver
    :func:`~repro.engines.ranked_union.run_in_turn` runs it on a
    :class:`QueryRun`, for one database and for N shards alike.
    """

    #: Short name on the ``engine.search`` span ("HLMJ", "SeqScan", ...).
    name: str = "engine"

    def __init__(self, index: DualMatchIndex) -> None:
        self.index = index

    @abc.abstractmethod
    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        spec: QuerySpec,
    ) -> None:
        """Traverse the index / data and submit candidates."""
