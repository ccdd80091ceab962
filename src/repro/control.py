"""Deadline- and budget-aware query execution control.

The paper's headline metric is the number of page accesses (``NUM_IO``),
which makes per-query I/O a natural *resource budget*: this module turns
that observation into a cooperative execution-control plane shared by
every engine.

* :class:`QueryBudget` caps page accesses and candidate evaluations.
* :class:`Deadline` bounds wall-clock time against an injectable
  monotonic :class:`Clock` (so tests and the chaos harness never sleep
  for real).
* :class:`CancellationToken` lets a caller abort a running query from
  outside the engine loop.
* :class:`ExecutionControl` bundles the three for one query run and
  exposes :meth:`~ExecutionControl.checkpoint`, which engines call at
  every traversal-loop boundary (lint rule RS007 enforces this).  When a
  limit trips, the checkpoint raises
  :class:`~repro.exceptions.ExecutionInterrupted`; the engine template
  converts that into a :class:`~repro.engines.base.PartialResult`
  carrying the best-k-so-far plus an **exactness certificate** — the
  tightest known lower bound on any unexamined candidate — so an early
  exit never silently pretends to be exact (the anytime analogue of the
  paper's Section 3 no-false-dismissal contract).
* :class:`AdmissionController` provides simple service-side admission
  control (max concurrent + max queued queries) in front of
  :meth:`repro.api.SubsequenceDatabase.search`.

Checkpoints are *cooperative*: limits are checked between units of
engine work, so a budget may be overshot by at most one loop iteration.
Every limit object is per-query; construct fresh ones per search.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, List, Optional, Tuple, Type

from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
    single_query,
)
from repro.core.clock import MONOTONIC_CLOCK, Clock, FakeClock, MonotonicClock
from repro.core.metrics import QueryStats
from repro.exceptions import (
    AdmissionRejectedError,
    ConfigurationError,
    ExecutionInterrupted,
    UsageError,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CancellationToken",
    "Clock",
    "Deadline",
    "ExecutionControl",
    "FakeClock",
    "MONOTONIC_CLOCK",
    "MonotonicClock",
    "QueryBudget",
    "REASON_CANCELLED",
    "REASON_CANDIDATE_BUDGET",
    "REASON_DEADLINE",
    "REASON_PAGE_BUDGET",
    "certificate_from_pow",
]

#: Interrupt reasons carried by :class:`ExecutionInterrupted` and
#: :class:`~repro.engines.base.PartialResult`.
REASON_CANCELLED = "cancelled"
REASON_DEADLINE = "deadline"
REASON_PAGE_BUDGET = "budget:pages"
REASON_CANDIDATE_BUDGET = "budget:candidates"


@dataclass(frozen=True)
class QueryBudget:
    """Resource caps for one query; ``None`` means unlimited.

    Attributes
    ----------
    max_page_accesses:
        Physical page reads the query may issue (the paper's ``NUM_IO``).
    max_candidates:
        Candidate subsequences whose full values may be retrieved and
        evaluated (the paper's "number of candidates").
    """

    max_page_accesses: Optional[int] = None
    max_candidates: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_page_accesses", "max_candidates"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0 or None, got {value}"
                )

    @property
    def unlimited(self) -> bool:
        """True when no cap is configured (checkpoints never trip)."""
        return self.max_page_accesses is None and self.max_candidates is None


class Deadline:
    """A wall-clock deadline measured on an injectable monotonic clock."""

    def __init__(
        self, expires_at: float, clock: Optional[Clock] = None
    ) -> None:
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self.expires_at = float(expires_at)

    @classmethod
    def after(
        cls, seconds: float, clock: Optional[Clock] = None
    ) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds < 0:
            raise ConfigurationError(
                f"deadline seconds must be >= 0, got {seconds}"
            )
        active = clock if clock is not None else MONOTONIC_CLOCK
        return cls(active.monotonic() + seconds, clock=active)

    @property
    def expired(self) -> bool:
        return self._clock.monotonic() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - self._clock.monotonic())

    def __reduce__(
        self,
    ) -> Tuple[Callable[[float], "Deadline"], Tuple[float]]:
        # Monotonic clocks are per-process: a pool worker rebuilds the
        # deadline from the time left, on its own clock.
        return (Deadline.after, (self.remaining(),))


class CancellationToken:
    """Caller-side cancellation for one in-flight query.

    ``cancel()`` is thread-safe and idempotent.  ``cancel_after_checks``
    is a deterministic test/chaos facility: the token cancels itself
    after that many :meth:`is_cancelled` polls, simulating an impatient
    caller without involving threads or timers.
    """

    def __init__(self, cancel_after_checks: Optional[int] = None) -> None:
        if cancel_after_checks is not None and cancel_after_checks < 0:
            raise ConfigurationError(
                f"cancel_after_checks must be >= 0, got "
                f"{cancel_after_checks}"
            )
        self._cancelled = False
        self._remaining_checks = cancel_after_checks
        self.checks = 0

    def cancel(self) -> None:
        """Request cancellation (takes effect at the next checkpoint)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested (no side effects)."""
        return self._cancelled

    def is_cancelled(self) -> bool:
        """Poll the token (counts the poll for ``cancel_after_checks``)."""
        self.checks += 1
        if self._remaining_checks is not None and not self._cancelled:
            self._remaining_checks -= 1
            if self._remaining_checks < 0:
                self._cancelled = True
        return self._cancelled


@single_query
class ExecutionControl:
    """Runtime budget/deadline/cancellation state for one query.

    Engines bind a local name at the top of their traversal
    (``budget = evaluator.control``) and call
    ``budget.checkpoint(frontier_pow)`` at every loop boundary, passing
    the current index-level lower bound (p-th power) on any candidate
    not yet examined.  The latest reported frontier is what the engine
    template turns into the exactness certificate when a limit trips.

    A default-constructed instance has no limits: its checkpoints never
    raise, so unbudgeted queries behave exactly as before this layer
    existed (and cost only a few attribute reads per loop iteration).
    """

    def __init__(
        self,
        budget: Optional[QueryBudget] = None,
        deadline: Optional[Deadline] = None,
        token: Optional[CancellationToken] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.budget = budget
        self.deadline = deadline
        self.token = token
        #: The query's tracer.  Defaults to the shared disabled tracer;
        #: when enabled, limited checkpoints surface as span events so
        #: budget/deadline pressure lands on the same timeline as the
        #: page and verify spans.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Latest engine-reported lower bound (p-th power) on unexamined
        #: candidates.  Starts at 0.0 — the only universally sound value
        #: before the engine has reported anything.
        self.frontier_pow = 0.0
        #: Checkpoints executed (diagnostics; surfaced via QueryStats).
        self.checkpoints = 0
        self._stats: Optional[QueryStats] = None
        self._page_count: Optional[Callable[[], int]] = None

    def derive(self) -> "ExecutionControl":
        """A fresh run state under the same limits and tracer.

        A sharded fan-out derives one per shard: the budget caps apply
        to each shard's own counters, while the deadline and the token
        are shared (see ``docs/sharding.md``).
        """
        return ExecutionControl(
            self.budget, self.deadline, self.token, self.tracer
        )

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # Crossing to a pool worker carries the limits only; the run
        # state and the tracer belong to this process.
        return (ExecutionControl, (self.budget, self.deadline, self.token))

    def bind(self, stats: QueryStats, page_count: Callable[[], int]) -> None:
        """Attach the per-query counters the budget is enforced against.

        Called once by the engine template; ``page_count`` must return
        the physical reads issued *by this query so far*.
        """
        self._stats = stats
        self._page_count = page_count

    @property
    def limited(self) -> bool:
        """Whether any limit is configured at all."""
        return (
            self.token is not None
            or self.deadline is not None
            or (self.budget is not None and not self.budget.unlimited)
        )

    def checkpoint(self, frontier_pow: Optional[float] = None) -> None:
        """Cooperative limit check at an engine loop boundary.

        Raises :class:`~repro.exceptions.ExecutionInterrupted` when the
        token is cancelled, the deadline has passed, or a budget cap is
        exceeded.  ``frontier_pow``, when given, records the engine's
        current lower bound on unexamined candidates; passing ``None``
        keeps the previous value (valid because engine frontiers are
        non-decreasing over a run).
        """
        self.checkpoints += 1
        if frontier_pow is not None:
            self.frontier_pow = frontier_pow
        if self.tracer.enabled and self.limited:
            self.tracer.event(
                "control.checkpoint", frontier_pow=self.frontier_pow
            )
        if self.token is not None and self.token.is_cancelled():
            self._interrupt(REASON_CANCELLED)
        if self.deadline is not None and self.deadline.expired:
            self._interrupt(REASON_DEADLINE)
        budget = self.budget
        if budget is None:
            return
        if (
            budget.max_page_accesses is not None
            and self._page_count is not None
            and self._page_count() > budget.max_page_accesses
        ):
            self._interrupt(REASON_PAGE_BUDGET)
        if (
            budget.max_candidates is not None
            and self._stats is not None
            and self._stats.candidates > budget.max_candidates
        ):
            self._interrupt(REASON_CANDIDATE_BUDGET)

    def _interrupt(self, reason: str) -> None:
        """Record the trip on the trace timeline, then raise."""
        if self.tracer.enabled:
            self.tracer.event("control.interrupted", reason=reason)
        raise ExecutionInterrupted(reason)


@dataclass
class AdmissionStats:
    """Counters for one :class:`AdmissionController`."""

    admitted: int = 0
    rejected: int = 0
    #: Admissions that had to wait in the queue first.
    queued: int = 0
    peak_active: int = 0


class _AdmissionTicket:
    """Context manager releasing one admitted slot on exit."""

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._released = False

    def __enter__(self) -> "_AdmissionTicket":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()


@shared_across_queries
@guarded_by("_condition", "_active", "_waiting", "_waiters", "_next_seq", "stats")
class AdmissionController:
    """Bounded-concurrency admission control for query execution.

    At most ``max_concurrent`` queries run at once; up to ``max_queued``
    more may wait (``queue_timeout_s`` bounds the wait).  Anything
    beyond that is rejected immediately with
    :class:`~repro.exceptions.AdmissionRejectedError` — fail-fast
    back-pressure instead of unbounded queueing, which is what the
    ROADMAP's heavy-traffic scenario needs from a front door.

    Wakeup order is **deterministic**: waiters are granted slots in
    ``(priority, arrival)`` order, so equal-priority waiters are FIFO
    and a lower ``priority`` value always wins the next free slot.
    (Pre-serve versions woke an *arbitrary* ``Condition`` waiter, which
    silently undid any queue-level ordering upstream — the aging
    guarantees of :mod:`repro.serve.queue` rely on this fix holding
    end to end.)  A newcomer never barges past existing waiters, even
    when a slot is momentarily free between a release and the head
    waiter's wakeup.

    Thread safety: the slot counters, waiter list, and stats are
    guarded by ``_condition`` (a :class:`threading.Condition` doubling
    as the mutex); ``admit``/``_release`` block on it, and the
    ``active`` / ``waiting`` properties take it so monitors never see
    torn state.
    """

    def __init__(
        self,
        max_concurrent: int,
        max_queued: int = 0,
        queue_timeout_s: Optional[float] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if max_queued < 0:
            raise ConfigurationError(
                f"max_queued must be >= 0, got {max_queued}"
            )
        if queue_timeout_s is not None and queue_timeout_s < 0:
            raise ConfigurationError(
                f"queue_timeout_s must be >= 0, got {queue_timeout_s}"
            )
        self.max_concurrent = max_concurrent
        self.max_queued = max_queued
        self.queue_timeout_s = queue_timeout_s
        self.stats = AdmissionStats()
        self._condition = threading.Condition()
        self._active = 0
        self._waiting = 0
        #: Sorted (priority, seq) entries, head = next waiter to admit.
        self._waiters: List[Tuple[int, int]] = []
        self._next_seq = 0

    @property
    def active(self) -> int:
        """Queries currently admitted and running."""
        with self._condition:
            return self._active

    @property
    def waiting(self) -> int:
        """Queries currently waiting in the admission queue."""
        with self._condition:
            return self._waiting

    def admit(self, priority: int = 0) -> _AdmissionTicket:
        """Acquire one execution slot (blocking in the queue if allowed).

        ``priority`` orders the wait queue: lower values are admitted
        first, ties break FIFO by arrival.  The default of 0 gives pure
        FIFO semantics for callers that never pass a priority.

        Returns a context manager releasing the slot; raises
        :class:`~repro.exceptions.AdmissionRejectedError` when both the
        concurrency and queue limits are full, or the queue wait times
        out.
        """
        with self._condition:
            if self._active < self.max_concurrent and not self._waiters:
                self._admit_locked()
                return _AdmissionTicket(self)
            if self._waiting >= self.max_queued:
                self.stats.rejected += 1
                raise AdmissionRejectedError(
                    f"admission rejected: {self._active} active and "
                    f"{self._waiting} queued queries (limits: "
                    f"{self.max_concurrent} concurrent, "
                    f"{self.max_queued} queued)"
                )
            entry = (priority, self._next_seq)
            self._next_seq += 1
            bisect.insort(self._waiters, entry)
            self._waiting += 1
            self.stats.queued += 1
            try:
                granted = self._condition.wait_for(
                    lambda: (
                        self._active < self.max_concurrent
                        and self._waiters[0] == entry
                    ),
                    timeout=self.queue_timeout_s,
                )
            finally:
                self._waiting -= 1
                self._waiters.remove(entry)
                # The head may have changed (we left the queue either
                # admitted or timed out); let the new head re-evaluate.
                self._condition.notify_all()
            if not granted:
                self.stats.rejected += 1
                raise AdmissionRejectedError(
                    f"admission queue wait exceeded "
                    f"{self.queue_timeout_s} s"
                )
            self._admit_locked()
            return _AdmissionTicket(self)

    @requires_lock("_condition")
    def _admit_locked(self) -> None:
        self._active += 1
        self.stats.admitted += 1
        self.stats.peak_active = max(self.stats.peak_active, self._active)

    def _release(self) -> None:
        with self._condition:
            if self._active <= 0:
                raise UsageError(
                    "AdmissionController released more slots than admitted"
                )
            self._active -= 1
            # notify_all, not notify: only the (priority, arrival) head
            # may take the slot, and an arbitrary single wakeup could
            # land on a non-head waiter that just goes back to sleep.
            self._condition.notify_all()


def certificate_from_pow(certificate_pow: float, p: float) -> float:
    """Root a p-th-power certificate into distance space.

    ``inf`` stays ``inf`` (nothing unexamined remained — the partial
    result is in fact exact) and negative numerical noise clamps to 0.
    """
    if math.isinf(certificate_pow):
        return math.inf
    if certificate_pow <= 0.0:
        return 0.0
    return certificate_pow ** (1.0 / p)
