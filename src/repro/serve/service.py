"""The embeddable threaded query service.

:class:`QueryService` is the robustness layer between many concurrent
clients and one :class:`~repro.api.SubsequenceDatabase`:

* Requests land in a bounded FIFO
  :class:`~repro.serve.queue.AdmissionQueue` and are executed by a
  fixed worker pool.  That is the one gate: the worker count bounds
  concurrency, the queue capacity bounds waiting, and arrival order
  is the one dispatch order.  A request's ``tenant`` is an echoed
  label; nothing is keyed on it.
* Requests map onto the library's cooperative control plane:
  deadlines start at *submit* time (queue wait counts against the
  client's timeout), a page budget caps every query while the queue
  is saturated, and every limit trip surfaces as a
  :class:`~repro.engines.base.PartialResult` with a sound exactness
  certificate — never a crash, never a silent drop.
* Both overload paths — a full queue and a shutdown — raise a typed
  :class:`~repro.exceptions.ServiceOverloadedError`; a full queue's
  carries a retry-after hint.

Worker loops follow lint rule RS013: each outer loop calls
``checkpoint()`` (so shutdown is cooperative and prompt) and no service
lock is ever held across engine execution.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.concurrency import (
    guarded_by,
    shared_across_queries,
)
from repro.api import QueryFacade
from repro.control import (
    CancellationToken,
    Deadline,
    ExecutionControl,
    QueryBudget,
)
from repro.core.clock import MONOTONIC_CLOCK, Clock
from repro.core.results import Match
from repro.engines.base import PartialResult, SearchResult
from repro.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
    ServiceOverloadedError,
)
from repro.serve.protocol import QueryRequest, parse_request
from repro.serve.queue import AdmissionQueue

#: Deadline applied when a request carries no ``timeout_s`` (``None`` =
#: no server-side deadline).
DEFAULT_TIMEOUT_S: Optional[float] = None

#: Queue-depth fraction at which degradation tier 1 engages and
#: :data:`SATURATED_PAGE_BUDGET` applies.
SATURATION_WATERMARK = 0.5

#: Tier-1 budget: pages any query may touch once the queue crosses the
#: watermark.  A query that hits it returns a certificate-carrying
#: partial.
SATURATED_PAGE_BUDGET = 4096

#: Worker poll interval on the queue — bounds shutdown latency.
QUEUE_POLL_S = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing for one :class:`QueryService`.

    Attributes
    ----------
    workers:
        Executor threads — the bound on concurrently running queries.
    queue_capacity:
        Bounded depth of the FIFO admission queue — the bound on
        waiting queries.
    retry_after_hint_s:
        Base back-off hint attached to queue-full rejections.
    """

    workers: int = 4
    queue_capacity: int = 64
    retry_after_hint_s: float = 0.1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )


@dataclass
class ServiceStats:
    """Service-wide counters (guarded by the service lock)."""

    submitted: int = 0
    completed: int = 0
    #: Completed responses that were :class:`PartialResult`.
    partial: int = 0
    #: Requests that completed with an exception (typed error response).
    errors: int = 0
    #: Submissions rejected before enqueue (queue full / shutdown).
    rejected: int = 0
    peak_inflight: int = 0


@dataclass(frozen=True)
class ServiceResponse:
    """One completed request: the engine result plus service context."""

    request_id: Optional[Any]
    kind: str
    tenant: str
    result: SearchResult
    queue_wait_s: float
    execution_s: float
    #: 0 = normal, 1 = saturated (``SATURATED_PAGE_BUDGET`` applied).
    degradation_tier: int
    want_profile: bool = False

    @property
    def partial(self) -> bool:
        return isinstance(self.result, PartialResult)

    @property
    def exact(self) -> bool:
        """True when the response provably equals the exact answer."""
        result = self.result
        if isinstance(result, PartialResult):
            return result.exact and not result.degraded
        return not result.degraded


@dataclass
class PendingQuery:
    """A submitted request travelling through the service.

    The future resolves to a :class:`ServiceResponse`, or raises the
    typed error that ended the request (overload, storage fault, …).
    ``cancel()`` is cooperative: an already-running query stops at its
    next engine checkpoint and still resolves — to a
    :class:`~repro.engines.base.PartialResult` with reason
    ``"cancelled"`` — so a cancelling client always gets an accounted
    answer, never a dangling future.
    """

    request: QueryRequest
    enqueue_time: float
    deadline: Optional[Deadline]
    token: CancellationToken
    future: "Future[ServiceResponse]" = field(default_factory=Future)
    #: Streaming hook: called once per emitted match, from the worker
    #: thread, before the final response resolves.
    on_match: Optional[Callable[[Match], None]] = None

    def cancel(self) -> None:
        self.token.cancel()

    def result(self, timeout: Optional[float] = None) -> ServiceResponse:
        """Block for the response (raises what the request raised)."""
        return self.future.result(timeout=timeout)


@shared_across_queries
class ShutdownControl:
    """Cooperative stop signal for service loops.

    Mirrors the engine-side checkpoint protocol
    (:meth:`~repro.control.ExecutionControl.checkpoint`): every outer
    service loop calls :meth:`checkpoint` once per iteration (lint rule
    RS013), and after :meth:`stop` the next checkpoint raises
    :class:`~repro.exceptions.ExecutionInterrupted` with reason
    ``"shutdown"``.  Backed by a :class:`threading.Event`, so it is
    safely shared across every worker and session thread.
    """

    def __init__(self) -> None:
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def checkpoint(self) -> None:
        if self._stop.is_set():
            raise ExecutionInterrupted("shutdown")


@shared_across_queries
@guarded_by("_lock", "_closed", "_inflight", "_running", "stats")
class QueryService:
    """Threaded, overload-protected front door for one database.

    Use as a context manager, or call :meth:`start` / :meth:`shutdown`
    explicitly.  Thread safety: the lifecycle flag, in-flight count,
    and stats are guarded by ``_lock`` (a :class:`threading.Condition`
    used by drain waits); the queue is internally locked.
    No service lock is held across engine execution (RS013).
    """

    def __init__(
        self,
        db: QueryFacade,
        config: Optional[ServiceConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._db = db
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self._queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            retry_after_hint_s=self.config.retry_after_hint_s,
        )
        self.shutdown_control = ShutdownControl()
        self._lock = threading.Condition()
        self._closed = False
        self._inflight = 0
        self._running: List[PendingQuery] = []
        self.stats = ServiceStats()
        self._workers: List[threading.Thread] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "QueryService":
        """Spawn the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        return self

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def queue(self) -> AdmissionQueue:
        return self._queue

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = 30.0
    ) -> None:
        """Stop the service; idempotent.

        With ``drain`` (default) queued and running queries finish
        first (bounded by ``timeout``); without it, queued requests
        fail with ``ServiceOverloadedError("shutdown")`` and running
        queries are cancelled — they resolve as partial results with
        reason ``"cancelled"``.  Either way every outstanding future
        resolves: shutdown never strands a client.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        if not already and drain:
            with self._lock:
                self._lock.wait_for(
                    lambda: self._inflight == 0 and self._queue.depth == 0,
                    timeout=timeout,
                )
        leftovers = self._queue.close()
        if not drain:
            self._cancel_inflight()
        self.shutdown_control.stop()
        for pending in leftovers:
            self._fail(pending, ServiceOverloadedError("shutdown"))
        for worker in self._workers:
            worker.join(timeout=5.0)
        # Late stragglers (e.g. a query finishing right at the drain
        # timeout) still resolve via the worker's normal completion
        # path; nothing is left permanently pending.

    def _cancel_inflight(self) -> None:
        for pending in self._inflight_pendings():
            pending.cancel()

    def _inflight_pendings(self) -> List["PendingQuery"]:
        with self._lock:
            return list(self._running)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit one request; returns its :class:`PendingQuery`.

        Raises :class:`~repro.exceptions.ServiceOverloadedError` when
        the request cannot even be queued (shutdown, full queue).
        """
        with self._lock:
            if self._closed:
                self.stats.rejected += 1
                raise ServiceOverloadedError("shutdown")
            self.stats.submitted += 1
        timeout_s = request.timeout_s
        if timeout_s is None:
            timeout_s = DEFAULT_TIMEOUT_S
        deadline = (
            Deadline.after(timeout_s, clock=self._clock)
            if timeout_s is not None
            else None
        )
        pending = PendingQuery(
            request=request,
            enqueue_time=self._clock.monotonic(),
            deadline=deadline,
            token=CancellationToken(),
        )
        try:
            self._queue.put(pending)
        except ServiceOverloadedError:
            with self._lock:
                self.stats.rejected += 1
            raise
        return pending

    def query(
        self,
        request: "QueryRequest | Dict[str, Any]",
        timeout: Optional[float] = None,
    ) -> ServiceResponse:
        """Synchronous convenience: submit and wait for the response."""
        if isinstance(request, dict):
            request = parse_request(request)
        return self.submit(request).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            try:
                self.shutdown_control.checkpoint()
            except ExecutionInterrupted:
                break
            pending = self._queue.get(timeout=QUEUE_POLL_S)
            if pending is None:
                continue
            self._run_pending(pending)

    def _current_tier(self) -> int:
        watermark = SATURATION_WATERMARK * self.config.queue_capacity
        return 1 if self._queue.depth >= watermark else 0

    def _effective_budget(
        self, request: QueryRequest, tier: int
    ) -> Optional[QueryBudget]:
        pages = request.max_pages
        if tier >= 1:
            pages = (
                SATURATED_PAGE_BUDGET
                if pages is None
                else min(pages, SATURATED_PAGE_BUDGET)
            )
        if pages is None and request.max_candidates is None:
            return None
        return QueryBudget(
            max_page_accesses=pages,
            max_candidates=request.max_candidates,
        )

    def _run_pending(self, pending: PendingQuery) -> None:
        started = self._clock.monotonic()
        queue_wait = max(0.0, started - pending.enqueue_time)
        tier = self._current_tier()
        budget = self._effective_budget(pending.request, tier)
        self._note_start(pending)
        try:
            result = self._dispatch(pending, budget)
        except BaseException as error:  # never kill a worker
            # Typed or not: storage faults under on_fault="raise" and
            # bad parameters only the engine could detect (query too
            # short for omega, missing PSM index, ...) end the request
            # the same way a bug does, with its exception.
            self._fail(pending, error)
        else:
            self._complete(pending, result, queue_wait, started, tier)
        finally:
            self._note_done(pending)

    def _dispatch(
        self, pending: PendingQuery, budget: Optional[QueryBudget]
    ) -> SearchResult:
        """Hand the request's spec and a fresh control to the facade."""
        request = pending.request
        db = self._db
        query = list(request.query)
        spec = replace(request.spec, p=db.p)
        control = ExecutionControl(
            budget=budget,
            deadline=pending.deadline,
            token=pending.token,
            tracer=db.tracer,
        )
        if spec.kind != "stream":
            return db.run_query(query, spec, control)
        stream = db.open_stream(query, spec, control)
        try:
            for match in stream:
                if pending.on_match is not None:
                    pending.on_match(match)
        finally:
            stream.close()
        assert stream.result is not None  # set by close()/exhaustion
        return stream.result

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(
        self,
        pending: PendingQuery,
        result: SearchResult,
        queue_wait: float,
        started: float,
        tier: int,
    ) -> None:
        partial = isinstance(result, PartialResult)
        with self._lock:
            self.stats.completed += 1
            if partial:
                self.stats.partial += 1
        response = ServiceResponse(
            request_id=pending.request.request_id,
            kind=pending.request.spec.kind,
            tenant=pending.request.tenant,
            result=result,
            queue_wait_s=queue_wait,
            execution_s=max(0.0, self._clock.monotonic() - started),
            degradation_tier=tier,
            want_profile=pending.request.profile,
        )
        if not pending.future.set_running_or_notify_cancel():
            return
        pending.future.set_result(response)

    def _fail(self, pending: PendingQuery, error: BaseException) -> None:
        with self._lock:
            self.stats.errors += 1
        if not pending.future.set_running_or_notify_cancel():
            return
        pending.future.set_exception(error)

    def _note_start(self, pending: PendingQuery) -> None:
        with self._lock:
            self._inflight += 1
            self._running.append(pending)
            self.stats.peak_inflight = max(
                self.stats.peak_inflight, self._inflight
            )
            self._lock.notify_all()

    def _note_done(self, pending: PendingQuery) -> None:
        with self._lock:
            self._inflight -= 1
            if pending in self._running:
                self._running.remove(pending)
            self._lock.notify_all()
