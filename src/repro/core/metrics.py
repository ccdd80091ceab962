"""Performance counters matching the paper's Section 6 metrics.

The paper reports three metrics per query — number of candidates, number
of page accesses, wall clock time — plus, for PSM, bloom filter calls.
:class:`QueryStats` carries those and some finer-grained counters that
the ablation benches use.  :class:`StatsRecorder` snapshots the shared
pager/buffer counters around one query so engines report *deltas*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.analysis.concurrency import single_query
from repro.exceptions import ConfigurationError, UsageError
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager


@single_query
@dataclass
class QueryStats:
    """Counters for one executed query.

    Concurrency contract: ``@single_query`` — owned by exactly one
    in-flight query; never share an instance between threads.  Cross-
    query aggregation goes through :class:`repro.obs.metrics` instead.
    """

    #: Candidate subsequences whose full values were retrieved (the
    #: paper's "number of candidates").
    candidates: int = 0
    #: Physical page reads during the query (the paper's "page accesses").
    page_accesses: int = 0
    #: Physical reads that targeted the page right after the previous
    #: one (cheap on spinning disks; produced by deferred retrieval and
    #: sequential scans).
    sequential_page_accesses: int = 0
    #: Physical reads that required a seek.
    random_page_accesses: int = 0
    #: Buffer requests (hits + misses).
    logical_reads: int = 0
    #: Wall clock seconds.
    wall_time_s: float = 0.0
    #: DTW computations actually run (candidates minus LB_Keogh prunes).
    dtw_computations: int = 0
    #: LB_Keogh evaluations.
    lb_keogh_computations: int = 0
    #: Priority-queue pops (HLMJ's global queue or RU's per-window queues).
    heap_pops: int = 0
    #: R*-tree node expansions.
    node_expansions: int = 0
    #: Node scorings: one kernel call per node the query touched, scoring
    #: it against every query window (later expansions reuse it).
    node_scorings: int = 0
    #: Bloom filter invocations (PSM only).
    bloom_calls: int = 0
    #: Deferred-retrieval buffer flushes ("(D)" variants only).
    deferred_flushes: int = 0
    #: Candidates pruned by index-level lower bounds before retrieval.
    pruned_by_lower_bound: int = 0
    #: Candidates pruned by LB_Keogh after retrieval, before DTW.
    pruned_by_lb_keogh: int = 0
    #: Duplicate candidates suppressed by the seen-set.
    duplicates_suppressed: int = 0
    #: Window-group distance evaluations (HLMJ's optional tighter bound).
    window_group_evaluations: int = 0
    #: 1 when an operation budget cut the query short (PSM's graceful
    #: stop — results are then a best-effort lower bound, not exact).
    budget_exhausted: int = 0
    #: Transient read failures recovered by the buffer pool's retry
    #: policy during this query.
    retries: int = 0
    #: Candidates or index subtrees skipped because of storage faults
    #: under ``on_fault="degrade"`` (0 on a healthy run).
    faults_skipped: int = 0
    #: Cooperative budget/deadline/cancellation checkpoints executed
    #: (see :class:`repro.control.ExecutionControl`).
    checkpoints: int = 0
    #: 1 when the query was cut short by a budget, deadline, or
    #: cancellation and returned a partial result.
    interrupted: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict of every counter, in declaration order."""
        return {item.name: getattr(self, item.name) for item in fields(self)}

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (for means)."""
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)

    def scaled(self, divisor: float) -> "QueryStats":
        """Element-wise division — used to average over a query set."""
        if divisor <= 0:
            raise ConfigurationError(
                f"divisor must be positive, got {divisor}"
            )
        averaged = QueryStats()
        for key, value in self.as_dict().items():
            setattr(averaged, key, value / divisor)
        return averaged


@single_query
class StatsRecorder:
    """Context helper that turns shared storage counters into deltas.

    Usage::

        recorder = StatsRecorder(pager, buffer)
        recorder.start()
        ...  # run the query, incrementing recorder.stats counters
        stats = recorder.finish()
    """

    def __init__(self, pager: Pager, buffer: BufferPool) -> None:
        self._pager = pager
        self._buffer = buffer
        self.stats = QueryStats()
        self._reads_at_start = 0
        self._sequential_at_start = 0
        self._random_at_start = 0
        self._logical_at_start = 0
        self._retries_at_start = 0
        self._started_at: Optional[float] = None

    def start(self) -> "StatsRecorder":
        self.stats = QueryStats()
        self._reads_at_start = self._pager.stats.physical_reads
        self._sequential_at_start = self._pager.stats.sequential_reads
        self._random_at_start = self._pager.stats.random_reads
        self._logical_at_start = self._buffer.stats.logical_reads
        self._retries_at_start = self._buffer.stats.retries
        self._started_at = time.perf_counter()
        return self

    def finish(self) -> QueryStats:
        if self._started_at is None:
            raise UsageError("StatsRecorder.finish() before start()")
        self.stats.wall_time_s = time.perf_counter() - self._started_at
        self.stats.page_accesses = (
            self._pager.stats.physical_reads - self._reads_at_start
        )
        self.stats.sequential_page_accesses = (
            self._pager.stats.sequential_reads - self._sequential_at_start
        )
        self.stats.random_page_accesses = (
            self._pager.stats.random_reads - self._random_at_start
        )
        self.stats.logical_reads = (
            self._buffer.stats.logical_reads - self._logical_at_start
        )
        self.stats.retries = (
            self._buffer.stats.retries - self._retries_at_start
        )
        self._started_at = None
        return self.stats
