"""LRU buffer pool, and each query's image of it.

The paper's experimental setup uses an LRU buffer whose size is a
percentage of the database (Table 3: 1 %–10 %, default 5 %).  RU-COST
additionally needs a cheap way to ask "is this page currently buffered?"
without disturbing recency — the paper allocates a bitmap over pages,
owned by the running query, for exactly this purpose (Section 4,
``NUM_IO``).  Here that bitmap is the query's own LRU image of the pool,
``QueryStats.pages_seen``, which :meth:`BufferPool.get` keeps: the page
ids the query has itself requested, at most the pool's capacity of them.
A query that runs alone from a cold pool sees exactly the pool's frames;
one that shares the pool is never priced by another query's reads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
)
from repro.core.clock import MONOTONIC_CLOCK, Clock
from repro.core.metrics import QueryStats
from repro.exceptions import BufferPoolError, ConfigurationError, TransientIOError
from repro.obs.tracer import NULL_TRACER
from repro.storage.pager import Pager

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for *transient* I/O failures.

    :meth:`run` drives :meth:`BufferPool.get`'s page reads and the
    write-ahead log's durable steps: an attempt raising
    :class:`~repro.exceptions.TransientIOError` is retried up to
    ``max_attempts`` total attempts, sleeping ``backoff_s`` before the
    first retry and multiplying the delay by ``multiplier`` after each.
    Permanent failures (:class:`~repro.exceptions.CorruptPageError` and
    every other :class:`~repro.exceptions.StorageError`) are never
    retried — re-reading a corrupt page cannot succeed.

    The default backoff is zero so the simulated-disk benchmarks and
    tests stay deterministic in time; a real deployment would configure
    ``backoff_s`` to its device's recovery latency.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def run(
        self,
        attempt: Callable[[], _T],
        clock: Clock,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> _T:
        """Call ``attempt`` until it succeeds or the budget is spent.

        Each :class:`~repro.exceptions.TransientIOError` within the
        attempt budget calls ``on_retry`` and retries after the
        backoff (slept on ``clock``); the last failure propagates, and
        every other error propagates immediately.
        """
        delay = self.backoff_s
        attempts = 1
        while True:
            try:
                return attempt()
            except TransientIOError:
                if attempts >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry()
                if delay > 0:
                    clock.sleep(delay)
                    delay *= self.multiplier
                attempts += 1


@dataclass
class BufferStats:
    """Hit/miss counters for one buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Transient read failures recovered by retrying (RetryPolicy hits).
    retries: int = 0

    @property
    def logical_reads(self) -> int:
        """Total page requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served without physical I/O."""
        total = self.logical_reads
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.retries = 0


@shared_across_queries
@guarded_by("_lock", "_frames", "_capacity", "stats")
class BufferPool:
    """A fixed-capacity LRU cache of pages in front of a :class:`Pager`.

    Thread-safety contract (machine-checked by RS010): instances are
    shared across in-flight queries, so every touch of the frame table,
    capacity, and hit/miss stats happens under ``_lock`` (an ``RLock``;
    single-query paths pay one uncontested acquire per page request).
    A cache miss performs the physical read while holding the lock,
    serializing concurrent misses; sharding the pool is ROADMAP work,
    not this layer's problem.  The same lock is what lets :meth:`get`
    charge each request to the query that made it.

    Parameters
    ----------
    pager:
        The physical page store.
    capacity_pages:
        Maximum number of resident pages.  Must be at least 1.
    retry_policy:
        Bounds retries of transient read failures (defaults to three
        attempts with no backoff).
    clock:
        Injectable time source used for retry backoff sleeps (defaults
        to the real monotonic clock; tests inject a
        :class:`~repro.core.clock.FakeClock` so backoff never blocks).
    """

    def __init__(
        self,
        pager: Pager,
        capacity_pages: int,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if capacity_pages < 1:
            raise BufferPoolError(
                f"buffer capacity must be >= 1 page, got {capacity_pages}"
            )
        self._pager = pager
        self._capacity = capacity_pages
        self._frames: "OrderedDict[int, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.retry_policy = retry_policy or RetryPolicy()
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self.stats = BufferStats()
        #: Observability hook (attribute, not constructor argument, so
        #: the many bare ``BufferPool(pager, n)`` construction sites stay
        #: untouched).  :meth:`repro.api.SubsequenceDatabase.set_tracer`
        #: swaps in an enabled tracer; the disabled default costs one
        #: attribute load + branch per page request.
        self.tracer = NULL_TRACER

    @property
    def pager(self) -> Pager:
        """The physical page store behind this pool."""
        return self._pager

    @property
    def capacity(self) -> int:
        """Configured capacity in pages."""
        with self._lock:
            return self._capacity

    @property
    def num_resident(self) -> int:
        """Number of pages currently buffered."""
        with self._lock:
            return len(self._frames)

    def get(self, page_id: int, stats: Optional[QueryStats] = None) -> Any:
        """Return a page payload, faulting it in from the pager on a miss.

        ``stats`` is the counters of the query making the request
        (``None`` for offline callers).  The pool charges it here, under
        the lock it holds across a miss, so concurrent queries never
        charge each other: one logical read per request and, on a miss,
        every physical read attempt and every retry (see
        :meth:`_read_attempt`).  The request also refreshes the page in
        the query's image of the pool, ``stats.pages_seen``, an LRU of
        the pool's capacity that RU-COST's ``NUM_IO`` reads.
        """
        with self._lock:
            if stats is not None:
                stats.logical_reads += 1
                seen = stats.pages_seen
                if page_id in seen:
                    seen.move_to_end(page_id)
                else:
                    seen[page_id] = None
                    if len(seen) > self._capacity:
                        seen.popitem(last=False)
            if page_id in self._frames:
                self.stats.hits += 1
                if self.tracer.enabled:
                    self.tracer.metrics.counter("buffer.hit").inc()
                self._frames.move_to_end(page_id)
                return self._frames[page_id]
            self.stats.misses += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("buffer.miss").inc()
            payload = self.retry_policy.run(
                lambda: self._read_attempt(page_id, stats),
                self._clock,
                on_retry=lambda: self._count_retry(stats),
            )
            self._frames[page_id] = payload
            if len(self._frames) > self._capacity:
                self._evict_one()
            return payload

    @requires_lock("_lock")
    def _count_retry(self, stats: Optional[QueryStats]) -> None:
        """One transient fault the retry policy is about to retry."""
        self.stats.retries += 1
        if stats is not None:
            stats.retries += 1

    @requires_lock("_lock")
    def _read_attempt(self, page_id: int, stats: Optional[QueryStats]) -> Any:
        """One physical read attempt, traced as one ``buffer.fetch`` span.

        The span wraps a single pager read *attempt*, so the number of
        ``buffer.fetch`` spans equals the pager's physical-read counter
        — the paper's NUM_IO — even when transient faults force retries
        (a failed attempt both counts a read and records a span, with
        the error name attached).  The trace-conformance suite pins
        this identity against every golden engine config.

        ``stats`` is charged what the pager counted for the attempt, as
        the pager classified it (sequential or random); the lock keeps
        every other read of this pager out of that difference.
        """
        counted = self._pager.stats
        reads, sequential = counted.physical_reads, counted.sequential_reads
        try:
            tracer = self.tracer
            if not tracer.enabled:
                return self._pager.read(page_id)
            kind = self._pager.kind_of(page_id).name.lower()
            tracer.metrics.counter(f"page.fetch.{kind}").inc()
            with tracer.span("buffer.fetch", page=page_id, kind=kind):
                return self._pager.read(page_id)
        finally:
            if stats is not None:
                reads = counted.physical_reads - reads
                sequential = counted.sequential_reads - sequential
                stats.page_accesses += reads
                stats.sequential_page_accesses += sequential
                stats.random_page_accesses += reads - sequential

    @requires_lock("_lock")
    def _evict_one(self) -> None:
        """Evict the least-recently-used page."""
        self._frames.popitem(last=False)
        self.stats.evictions += 1

    def put(self, page_id: int, payload: Any) -> None:
        """Install a payload (write-through), evicting LRU if needed."""
        with self._lock:
            self._pager.write(page_id, payload)
            self._frames[page_id] = payload
            self._frames.move_to_end(page_id)
            if len(self._frames) > self._capacity:
                self._evict_one()

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the pool if resident (used after rebuilds)."""
        with self._lock:
            self._frames.pop(page_id, None)

    def clear(self) -> None:
        """Empty the pool (cold-cache state for a fresh experiment run)."""
        with self._lock:
            self._frames.clear()

    def resize(self, capacity_pages: int) -> None:
        """Change capacity, evicting LRU pages if shrinking."""
        if capacity_pages < 1:
            raise BufferPoolError(
                f"buffer capacity must be >= 1 page, got {capacity_pages}"
            )
        with self._lock:
            self._capacity = capacity_pages
            while len(self._frames) > self._capacity:
                self._evict_one()
