"""Runtime side of the concurrency contracts.

Two halves:

* Introspection — the contract decorators are no-wrappers that attach
  ``__repro_shared__`` / ``__repro_guards__`` /
  ``__repro_requires_lock__``, and the annotated production classes
  actually carry the contracts the linter enforces statically.
* Hammer tests — eight threads drive the locked
  :class:`~repro.obs.metrics.MetricsRegistry` and
  :class:`~repro.obs.tracer.Tracer` through a barrier-synchronised
  burst; counts must come out exact (no lost updates) and every
  recorded span tree must be well-formed (the per-thread stacks never
  interleave).

These tests are what the static rules *promise*: remove a lock the
annotations declare and, beyond the RS010 finding, this file is the
suite that actually goes red under load.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import Callable, List

import pytest

import repro
from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
    single_query,
)
from repro.control import ExecutionControl
from repro.core.metrics import QueryStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer, validate_span_tree
from repro.serve import AdmissionQueue, QueryService
from repro.storage.buffer import BufferPool
from repro.storage.wal import WriteAheadLog
from tests.conftest import build_half_buffered_db, query_from, schedule_of

THREADS = 8


def _run_threads(worker: Callable[[int], None], count: int = THREADS) -> None:
    """Run ``worker(thread_index)`` on ``count`` threads, rethrowing the
    first worker exception in the caller."""
    barrier = threading.Barrier(count)
    failures: List[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker thread hung"
    if failures:
        raise failures[0]


def _hammer(worker: Callable[[int], None], count: int = THREADS) -> None:
    """:func:`_run_threads` with threads switching as often as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(worker, count)
    finally:
        sys.setswitchinterval(interval)


class TestContractDecorators:
    def test_shared_and_single_markers(self) -> None:
        @shared_across_queries
        class Shared:
            pass

        @single_query
        class Owned:
            pass

        assert Shared.__repro_shared__ is True
        assert Owned.__repro_shared__ is False

    def test_decorators_do_not_wrap(self) -> None:
        class Plain:
            pass

        def helper() -> None:
            pass

        assert shared_across_queries(Plain) is Plain
        assert guarded_by("_lock", "_x")(Plain) is Plain
        assert requires_lock("_lock")(helper) is helper

    def test_guarded_by_merges_across_decorators(self) -> None:
        @guarded_by("_lock", "_a", "_b")
        @guarded_by("_other", "_c")
        class Guarded:
            pass

        assert Guarded.__repro_guards__ == {
            "_a": "_lock",
            "_b": "_lock",
            "_c": "_other",
        }

    def test_requires_lock_attribute(self) -> None:
        @requires_lock("_lock")
        def helper() -> None:
            pass

        assert helper.__repro_requires_lock__ == "_lock"

    def test_import_repro_does_not_load_the_linter(self) -> None:
        # Fourteen runtime modules import the decorators; every pool
        # worker and the `repro serve` child pays for what that pulls in.
        probe = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.analysis.')))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "['repro.analysis.concurrency']"

    def test_production_classes_declare_contracts(self) -> None:
        # The concrete contract map docs/concurrency-contracts.md
        # documents, introspectable at runtime.
        for cls in (
            AdmissionQueue,
            BufferPool,
            MetricsRegistry,
            QueryService,
            Tracer,
            WriteAheadLog,
        ):
            assert cls.__repro_shared__ is True, cls.__name__
            guards = cls.__repro_guards__
            assert guards, cls.__name__
            # Every guard in a class maps to a real lock attribute name.
            assert all(lock.startswith("_") for lock in guards.values())
        assert QueryStats.__repro_shared__ is False
        assert ExecutionControl.__repro_shared__ is False

    def test_shard_classes_declare_contracts(self) -> None:
        from repro.engines.ranked_union import MatchStream, RankedUnion
        from repro.shard import ShardedDatabase, ShardPlanner

        # Shared but lock-free by construction (immutable after build).
        assert ShardedDatabase.__repro_shared__ is True
        assert ShardPlanner.__repro_shared__ is True
        # One union and its stream belong to one query.
        assert RankedUnion.__repro_shared__ is False
        assert MatchStream.__repro_shared__ is False

    def test_requires_lock_on_production_helpers(self) -> None:
        assert BufferPool._evict_one.__repro_requires_lock__ == "_lock"
        assert (
            AdmissionQueue._retry_after_locked.__repro_requires_lock__
            == "_lock"
        )
        assert (
            MetricsRegistry._check_free.__repro_requires_lock__ == "_lock"
        )


class TestMetricsRegistryUnderThreads:
    ITERS = 2000

    def test_shared_counter_loses_no_updates(self) -> None:
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            # Fetch through the registry each time: exercises the
            # create-or-get race as well as Counter.inc itself.
            for _ in range(self.ITERS):
                registry.counter("queries").inc()

        _run_threads(worker)
        assert registry.counter("queries").value == THREADS * self.ITERS

    def test_histogram_tallies_are_exact(self) -> None:
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=[1.0, 10.0])

        def worker(index: int) -> None:
            for i in range(self.ITERS):
                histogram.observe(float(i % 20))

        _run_threads(worker)
        assert histogram.count == THREADS * self.ITERS
        assert sum(histogram.counts) == THREADS * self.ITERS

    def test_snapshots_are_untorn_while_writers_run(self) -> None:
        # Writers bump two counters back-to-back under separate inc()
        # calls; a snapshot taken under the shared registry lock must
        # never observe "a" ahead of... it can, but never see totals
        # that violate per-counter monotonicity or tear a float.
        registry = MetricsRegistry()
        stop = threading.Event()
        snapshots: List[float] = []

        def reader() -> None:
            while not stop.is_set():
                snap = registry.snapshot()
                counters = dict(snap.counters)
                snapshots.append(counters.get("ticks", 0.0))

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        try:

            def worker(index: int) -> None:
                for _ in range(self.ITERS):
                    registry.counter("ticks").inc()

            _run_threads(worker)
        finally:
            stop.set()
            reader_thread.join()

        # Every observed value is a whole number of incs (no torn
        # reads) and the sequence is monotone non-decreasing.
        assert all(value == int(value) for value in snapshots)
        assert snapshots == sorted(snapshots)
        assert registry.counter("ticks").value == THREADS * self.ITERS


class TestTracerUnderThreads:
    SPANS_PER_THREAD = 50

    def test_per_thread_trees_stay_well_formed(self) -> None:
        tracer = Tracer(enabled=True, max_spans=10_000, max_events=10_000)

        def worker(index: int) -> None:
            for i in range(self.SPANS_PER_THREAD):
                with tracer.span(f"outer-{index}"):
                    tracer.event("tick", i=i)
                    with tracer.span(f"inner-{index}"):
                        tracer.event("tock")
                # The stack is thread-local: after the with-blocks this
                # thread is back at depth zero regardless of the others.
                assert tracer.depth == 0

        _run_threads(worker)

        expected_roots = THREADS * self.SPANS_PER_THREAD
        assert len(tracer.roots) == expected_roots
        assert tracer.span_total == 2 * expected_roots
        assert tracer.dropped_spans == 0
        for root in tracer.roots:
            assert validate_span_tree(root) == []
            assert len(root.children) == 1

    def test_span_cap_is_enforced_exactly(self) -> None:
        cap = 100
        tracer = Tracer(enabled=True, max_spans=cap)

        def worker(index: int) -> None:
            for _ in range(self.SPANS_PER_THREAD):
                with tracer.span("burst"):
                    pass

        _run_threads(worker)
        attempts = THREADS * self.SPANS_PER_THREAD
        assert tracer.span_total == cap
        assert tracer.dropped_spans == attempts - cap

    def test_disabled_tracer_is_inert_under_threads(self) -> None:
        tracer = Tracer(enabled=False)

        def worker(index: int) -> None:
            for _ in range(self.SPANS_PER_THREAD):
                with tracer.span("noop"):
                    tracer.event("nope")

        _run_threads(worker)
        assert tracer.roots == []
        assert tracer.span_total == 0
        assert tracer.dropped_spans == 0

    def test_reset_drops_every_threads_stack(self) -> None:
        tracer = Tracer(enabled=True)
        opened = threading.Event()
        release = threading.Event()

        def worker() -> None:
            tracer.start_span("orphan")
            opened.set()
            release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        assert opened.wait(timeout=5)
        tracer.reset()
        release.set()
        thread.join()
        assert tracer.roots == []
        assert tracer.span_total == 0
        # The resetting thread's own stack is fresh too.
        assert tracer.depth == 0


class TestShardedDatabaseUnderThreads:
    """8 threads hammer one shared ShardedDatabase concurrently.

    The facade is @shared_across_queries: the plan and the shard
    databases, buffer pools included, are shared between every
    in-flight query, so racing queries must not corrupt each other's
    merged results.  Every thread checks its answers against
    single-threaded golden answers captured up front.
    """

    QUERIES_PER_THREAD = 4

    def test_parallel_queries_stay_exact(self) -> None:
        import numpy as np

        from repro.shard import ShardedDatabase

        rng = np.random.default_rng(77)
        db = ShardedDatabase(
            num_shards=3,
            policy="hash",
            omega=8,
            features=4,
            buffer_fraction=0.2,
        )
        for sid, n in enumerate((400, 300, 350)):
            db.insert(sid, rng.standard_normal(n).cumsum())
        db.build()
        try:
            methods = ("seqscan", "hlmj", "ru", "ru-cost")
            queries = [
                rng.standard_normal(24).cumsum()
                for _ in range(self.QUERIES_PER_THREAD)
            ]
            golden = {
                (qi, method): db.search(
                    queries[qi], k=5, rho=1, method=method
                ).matches
                for qi in range(len(queries))
                for method in methods
            }

            def worker(index: int) -> None:
                for qi in range(len(queries)):
                    method = methods[(index + qi) % len(methods)]
                    result = db.search(
                        queries[qi], k=5, rho=1, method=method
                    )
                    assert result.matches == golden[(qi, method)]
                    assert result.stats.page_accesses == sum(
                        s.page_accesses
                        for s in result.shard_stats.values()
                    )

            _run_threads(worker)
        finally:
            db.close()

    def test_parallel_fan_outs_repeat_their_counters(self) -> None:
        import numpy as np

        from repro.shard import ShardedDatabase

        rng = np.random.default_rng(79)
        db = ShardedDatabase(
            num_shards=3,
            policy="range",
            omega=8,
            features=4,
            buffer_fraction=0.2,
        )
        for sid, n in enumerate((400, 300, 350)):
            db.insert(sid, rng.standard_normal(n).cumsum())
        db.build()
        try:
            queries = [rng.standard_normal(24).cumsum() for _ in range(3)]

            def answer(qi: int, method: str) -> tuple:
                if method == "range":
                    result = db.range_search(queries[qi], epsilon=3.0, rho=1)
                else:
                    result = db.search(queries[qi], k=5, rho=1, method=method)
                # A fan-out's schedule depends neither on what other
                # queries left in the shards' pools nor on what they
                # read meanwhile: ru-cost prices pages by each shard
                # run's own reads.
                return result.matches, schedule_of(result.stats)

            methods = ("hlmj", "ru-cost", "range")
            golden = {
                (qi, method): answer(qi, method)
                for qi in range(len(queries))
                for method in methods
            }

            def worker(index: int) -> None:
                for qi in range(len(queries)):
                    method = methods[(index + qi) % len(methods)]
                    assert answer(qi, method) == golden[(qi, method)]

            # Concurrent fan-outs interleave their reads of the shared
            # pools as finely as thread switches allow.
            _hammer(worker)
        finally:
            db.close()

    def test_parallel_streams_stay_exact(self) -> None:
        import numpy as np

        from repro.shard import ShardedDatabase

        rng = np.random.default_rng(78)
        db = ShardedDatabase(
            num_shards=2,
            policy="range",
            omega=8,
            features=4,
            buffer_fraction=0.2,
        )
        for sid, n in enumerate((350, 300)):
            db.insert(sid, rng.standard_normal(n).cumsum())
        db.build()
        try:
            query = rng.standard_normal(24).cumsum()
            golden_stream = db.iter_matches(query, k=6, rho=1)
            golden = list(golden_stream)
            golden_stream.close()

            def worker(index: int) -> None:
                stream = db.iter_matches(query, k=6, rho=1)
                try:
                    assert list(stream) == golden
                finally:
                    stream.close()

            _run_threads(worker)
        finally:
            db.close()


class TestRuCostPricesOnlyItsOwnReads:
    """Concurrent ``ru-cost`` queries on one buffer pool schedule as if
    each ran alone from a cold pool.

    Each query's ``NUM_IO`` reads its own image of the pool, fed only by
    its own requests, so neither what the pool holds nor another query's
    reads in the middle of a run move its counters.
    """

    def test_parallel_queries_repeat_their_counters(self) -> None:
        db = build_half_buffered_db()
        runs = [
            (query_from(db, start, 48, sid), deferred)
            for sid, start in ((0, 500), (1, 900), (0, 1700), (1, 300))
            for deferred in (False, True)
        ]

        def answer(qi: int) -> tuple:
            query, deferred = runs[qi]
            result = db.search(
                query, k=5, rho=2, method="ru-cost", deferred=deferred
            )
            return result.matches, schedule_of(result.stats)

        golden = []
        for qi in range(len(runs)):
            db.reset_cache()
            golden.append(answer(qi))

        def worker(index: int) -> None:
            for step in range(len(runs)):
                qi = (index + step) % len(runs)
                assert answer(qi) == golden[qi]

        _hammer(worker, count=6)


class TestQueriesChargeOnlyTheirOwnReads:
    """Concurrent queries on one buffer pool each count their own pages.

    The pool charges every request to the :class:`QueryStats` of the
    query that made it, under the lock it holds across a miss.  So the
    per-query counters of any set of concurrent queries add up to the
    shared pager and pool counters exactly: nobody's read is lost, and
    nobody is charged another query's read.
    """

    METHODS = ("seqscan", "hlmj", "ru", "ru-cost")

    @staticmethod
    def _db(fault_injector=None):
        import numpy as np

        from repro import SubsequenceDatabase

        rng = np.random.default_rng(81)
        db = SubsequenceDatabase(
            omega=8,
            features=4,
            buffer_fraction=0.1,
            fault_injector=fault_injector,
        )
        for sid, n in enumerate((600, 450, 500)):
            db.insert(sid, rng.standard_normal(n).cumsum())
        db.build()
        queries = [rng.standard_normal(24).cumsum() for _ in range(4)]
        return db, queries

    @pytest.mark.parametrize(
        "faulty", [False, True], ids=["healthy", "transient"]
    )
    def test_per_query_counters_sum_to_the_shared_ones(
        self, faulty: bool
    ) -> None:
        from repro.storage.faults import FaultInjector, FaultSpec

        injector = FaultInjector(seed=5) if faulty else None
        db, queries = self._db(injector)
        if injector is not None:
            injector.add(FaultSpec(fault="transient", probability=0.1))
        pager, pool = db.pager.stats, db.buffer.stats
        before = (
            pager.physical_reads,
            pager.sequential_reads,
            pool.logical_reads,
            pool.retries,
        )
        charged: List[QueryStats] = []

        def worker(index: int) -> None:
            for qi, query in enumerate(queries):
                method = self.METHODS[(index + qi) % len(self.METHODS)]
                result = db.search(
                    query,
                    k=5,
                    rho=1,
                    method=method,
                    deferred=bool(index % 2),
                    on_fault="degrade",
                )
                charged.append(result.stats)

        _hammer(worker)
        assert len(charged) == THREADS * len(queries)
        pages = sum(stats.page_accesses for stats in charged)
        assert pages == pager.physical_reads - before[0]
        assert sum(
            stats.sequential_page_accesses + stats.random_page_accesses
            for stats in charged
        ) == pages
        assert sum(
            stats.sequential_page_accesses for stats in charged
        ) == pager.sequential_reads - before[1]
        assert sum(
            stats.logical_reads for stats in charged
        ) == pool.logical_reads - before[2]
        retries = sum(stats.retries for stats in charged)
        assert retries == pool.retries - before[3]
        assert (retries > 0) == faulty

    def test_sharded_fan_outs_conserve_each_shard_pager(self) -> None:
        import numpy as np

        from repro.shard import ShardedDatabase

        rng = np.random.default_rng(82)
        db = ShardedDatabase(
            num_shards=3,
            policy="hash",
            omega=8,
            features=4,
            buffer_fraction=0.1,
        )
        for sid, n in enumerate((400, 300, 350, 380)):
            db.insert(sid, rng.standard_normal(n).cumsum())
        db.build()
        try:
            assert db.shards is not None
            queries = [rng.standard_normal(24).cumsum() for _ in range(3)]
            before = {
                index: shard.pager.stats.physical_reads
                for index, shard in db.shards.items()
            }
            shard_stats: List[dict] = []

            def worker(index: int) -> None:
                for qi, query in enumerate(queries):
                    method = self.METHODS[(index + qi) % len(self.METHODS)]
                    result = db.search(query, k=5, rho=1, method=method)
                    shard_stats.append(result.shard_stats)

            _hammer(worker)
            assert len(shard_stats) == THREADS * len(queries)
            for index, shard in db.shards.items():
                assert sum(
                    stats[index].page_accesses for stats in shard_stats
                ) == shard.pager.stats.physical_reads - before[index]
        finally:
            db.close()

    def test_a_page_budget_counts_only_the_querys_own_pages(self) -> None:
        import numpy as np

        from repro import SubsequenceDatabase
        from repro.control import REASON_PAGE_BUDGET, QueryBudget

        rng = np.random.default_rng(81)
        # Every page fits, so a run reads a page at most once, and RU's
        # traversal does not depend on the buffer: the budgeted run's
        # own reads never exceed a cold solo run's, however many pages
        # the scanning neighbours read meanwhile.
        db = SubsequenceDatabase(omega=8, features=4, buffer_fraction=1.0)
        for sid, n in enumerate((20000, 15000, 15000)):
            db.insert(sid, rng.standard_normal(n).cumsum())
        db.build()
        queries = [rng.standard_normal(24).cumsum() for _ in range(4)]
        db.reset_cache()
        solo = db.search(queries[0], k=5, rho=1, method="ru")
        cap = solo.stats.page_accesses
        outcomes = []

        def worker(index: int) -> None:
            if index == 0:
                outcomes.append(
                    db.search(
                        queries[0],
                        k=5,
                        rho=1,
                        method="ru",
                        budget=QueryBudget(max_page_accesses=cap),
                    )
                )
            else:
                db.search(queries[index % 4], k=5, rho=1, method="seqscan")

        for _ in range(3):
            db.reset_cache()
            _hammer(worker)
        assert len(outcomes) == 3
        for result in outcomes:
            assert getattr(result, "reason", "") != REASON_PAGE_BUDGET
            assert result.stats.page_accesses <= cap
