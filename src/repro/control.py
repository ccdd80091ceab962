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

Checkpoints are *cooperative*: limits are checked between units of
engine work, so a budget may be overshot by at most one loop iteration.
Every limit object is per-query; construct fresh ones per search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.concurrency import single_query
from repro.core.clock import MONOTONIC_CLOCK, Clock, FakeClock, MonotonicClock
from repro.core.metrics import QueryStats
from repro.exceptions import ConfigurationError, ExecutionInterrupted
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
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

    def derive(self) -> "ExecutionControl":
        """A fresh run state under the same limits and tracer.

        A sharded fan-out derives one per shard: the budget caps apply
        to each shard's own counters, while the deadline and the token
        are shared (see ``docs/sharding.md``).
        """
        return ExecutionControl(
            self.budget, self.deadline, self.token, self.tracer
        )

    def bind(self, stats: QueryStats) -> None:
        """Attach the per-query counters the budget is enforced against.

        Called once by the engine template.  The buffer pool charges
        ``stats.page_accesses`` with this query's own reads only, so a
        page cap never counts a concurrent query's pages.
        """
        self._stats = stats

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
        stats = self._stats
        if budget is None or stats is None:
            return
        if (
            budget.max_page_accesses is not None
            and stats.page_accesses > budget.max_page_accesses
        ):
            self._interrupt(REASON_PAGE_BUDGET)
        if (
            budget.max_candidates is not None
            and stats.candidates > budget.max_candidates
        ):
            self._interrupt(REASON_CANDIDATE_BUDGET)

    def _interrupt(self, reason: str) -> None:
        """Record the trip on the trace timeline, then raise."""
        if self.tracer.enabled:
            self.tracer.event("control.interrupted", reason=reason)
        raise ExecutionInterrupted(reason)


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
