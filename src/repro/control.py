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
* :class:`KthBound` is the one k-th-distance bound the shards of a
  thread-pool top-k fan-out share (every method but the ranked-union
  ones, whose fan-out shares one collector instead), so each prunes
  against the best ``k`` matches any of them has verified; the fan-out
  runs those shards in a :class:`Rotation`, one at a time, so what each
  reads of the bound is the same on every execution.
* :class:`PoolGate` decides which fan-outs may read a sharded
  database's buffer pools at once: a ``ru-cost`` fan-out reads them
  alone, because its scheduler prices pages by what they hold.
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
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
    single_query,
)
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
    "KthBound",
    "MONOTONIC_CLOCK",
    "MonotonicClock",
    "PoolGate",
    "QueryBudget",
    "REASON_CANCELLED",
    "REASON_CANDIDATE_BUDGET",
    "REASON_DEADLINE",
    "REASON_PAGE_BUDGET",
    "Rotation",
    "TURN_CHECKPOINTS",
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


@shared_across_queries
@guarded_by("_lock", "value_pow")
class KthBound:
    """One monotone k-th-distance bound shared by the shards of a query.

    A sharded ``knn`` fan-out on the thread pool (every method but
    ``ru`` / ``ru-cost``) mints one and :meth:`ExecutionControl.derive`
    hands it to every shard run.  Each
    shard's evaluator prunes against ``min(own delta_cur, value_pow)``
    and, whenever its own collector holds ``k`` verified matches,
    :meth:`offer` s its k-th distance.  A value therefore always is the
    k-th of ``k`` real matches, so it is never below the global k-th
    distance, and every comparison against it is strict (``>``): no
    member of the global top-k, ties included, is dismissed.

    Writes take the lock, so the value never rises whoever offers it;
    reads are a plain attribute load.  Shard threads do not race it:
    a top-k fan-out runs them in a :class:`Rotation`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``delta ** p`` of the best k matches any shard has verified;
        #: ``inf`` until some shard holds ``k``.
        self.value_pow = math.inf

    def offer(self, value_pow: float) -> None:
        """Lower the bound to ``value_pow`` if that is tighter."""
        with self._lock:
            if value_pow < self.value_pow:
                self.value_pow = value_pow


#: Checkpoints a shard run executes per turn of a :class:`Rotation`.
TURN_CHECKPOINTS = 64


@shared_across_queries
@guarded_by("_cond", "_holder", "_seated")
class Rotation:
    """The shard runs of one top-k fan-out, one at a time, in turn.

    Threads that raced a :class:`KthBound` would read it at moments the
    OS scheduler picks, so a shard's pruning — and the query's NUM_IO —
    would change from run to run.  In a rotation exactly one party (a
    shard run, numbered in shard order) holds the turn.  It hands the
    turn to the next seated party after every :data:`TURN_CHECKPOINTS`
    of its own checkpoints and when it leaves, so every read of the
    bound sees what the other parties published at the same logical
    points on every execution, and the counters repeat exactly.

    A party waits for the others, so every party must get a thread:
    :meth:`~repro.shard.executor.ThreadShardExecutor.run` says why each
    does.
    """

    def __init__(self, parties: int) -> None:
        self._cond = threading.Condition()
        #: Parties that have not left, in turn order.
        self._seated = list(range(parties))
        self._holder = 0

    def take(self, party: int) -> None:
        """Block until ``party`` holds the turn (its run's first step)."""
        with self._cond:
            self._await(party)

    def hand_on(self, party: int) -> None:
        """Give the turn to the next seated party; block until it is back."""
        with self._cond:
            self._advance(party)
            self._await(party)

    def leave(self, party: int) -> None:
        """Give the turn on for good: ``party``'s run has ended."""
        with self._cond:
            self._advance(party)
            self._seated.remove(party)

    @requires_lock("_cond")
    def _advance(self, party: int) -> None:
        seated = self._seated
        self._holder = seated[(seated.index(party) + 1) % len(seated)]
        self._cond.notify_all()

    @requires_lock("_cond")
    def _await(self, party: int) -> None:
        self._cond.wait_for(lambda: self._holder == party)


@shared_across_queries
@guarded_by("_cond", "_readers", "_writing", "_waiting")
class PoolGate:
    """Which fan-outs of one sharded database read its buffer pools at once.

    RU-COST prices a page by whether its shard's pool holds it
    (``NUM_IO``, Definition 7), so a ``ru-cost`` fan-out holds the gate
    exclusively: another query's reads in the middle of its run would
    move its schedule, and its counters would change with thread timing.
    Every other fan-out reads no residency and holds the gate shared.  A
    waiting exclusive holder goes before new shared ones, so a stream of
    shared holders cannot starve it; that is deadlock-free because no
    holder asks for the gate again before it releases it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._waiting = 0

    def acquire(self, exclusive: bool) -> None:
        """Block until the gate is held, exclusively or shared."""
        with self._cond:
            if exclusive:
                self._waiting += 1
                self._cond.wait_for(
                    lambda: not self._writing and self._readers == 0
                )
                self._waiting -= 1
                self._writing = True
            else:
                self._cond.wait_for(
                    lambda: not self._writing and self._waiting == 0
                )
                self._readers += 1

    def release(self, exclusive: bool) -> None:
        """Give back a hold taken by :meth:`acquire` with ``exclusive``."""
        with self._cond:
            if exclusive:
                self._writing = False
            else:
                self._readers -= 1
            self._cond.notify_all()


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
        #: The k-th bound shared with the other shards of a thread-pool
        #: top-k fan-out; ``None`` on every other control.
        self.bound: Optional[KthBound] = None
        #: The rotation this run takes turns in, as party ``party``;
        #: ``None`` outside a thread-pool top-k fan-out.
        self.rotation: Optional[Rotation] = None
        self.party = 0
        #: Seconds spent blocked waiting for the turn to come back
        #: (:meth:`Rotation.hand_on`); the run's ``wall_time_s``
        #: excludes them.
        self.turn_wait_s = 0.0
        self._stats: Optional[QueryStats] = None

    def derive(
        self,
        bound: Optional[KthBound] = None,
        rotation: Optional[Rotation] = None,
        party: int = 0,
    ) -> "ExecutionControl":
        """A fresh run state under the same limits and tracer.

        A sharded fan-out derives one per shard: the budget caps apply
        to each shard's own counters, while the deadline, the token and,
        on the thread pool, the fan-out's ``bound`` and its ``rotation``
        are shared (see ``docs/sharding.md``).  Both are per fan-out, so
        a control reused across queries never carries a stale one.
        """
        control = ExecutionControl(
            self.budget, self.deadline, self.token, self.tracer
        )
        control.bound = bound
        control.rotation = rotation
        control.party = party
        return control

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
        if (
            self.rotation is not None
            and self.checkpoints % TURN_CHECKPOINTS == 0
        ):
            handed_on_at = time.perf_counter()
            self.rotation.hand_on(self.party)
            self.turn_wait_s += time.perf_counter() - handed_on_at
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
