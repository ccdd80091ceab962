"""Performance counters matching the paper's Section 6 metrics.

The paper reports three metrics per query — number of candidates, number
of page accesses, wall clock time — plus, for PSM, bloom filter calls.
:class:`QueryStats` carries those and some finer-grained counters that
the ablation benches use.  The storage counters are charged by
:meth:`repro.storage.buffer.BufferPool.get` to the query that made each
page request, so concurrent queries never count each other's reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict

from repro.analysis.concurrency import single_query
from repro.exceptions import ConfigurationError


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
    #: Physical page reads this query made, failed attempts included
    #: (the paper's "page accesses").
    page_accesses: int = 0
    #: Physical reads that targeted the page right after the previous
    #: one (cheap on spinning disks; produced by deferred retrieval and
    #: sequential scans).
    sequential_page_accesses: int = 0
    #: Physical reads that required a seek.
    random_page_accesses: int = 0
    #: Buffer requests (hits + misses).
    logical_reads: int = 0
    #: Wall clock seconds the run spent inside its own steps (a
    #: stream's summed over its pulls).
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

    def __post_init__(self) -> None:
        #: Not a counter: the query's own image of its buffer pool, the
        #: residence bitmap RU-COST prices pages by (see
        #: :meth:`repro.storage.buffer.BufferPool.get`).
        self.pages_seen: "OrderedDict[int, None]" = OrderedDict()

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
