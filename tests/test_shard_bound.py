"""What the shards of one fan-out share.

Every fan-out hands all its shard runs one collector and one window set,
cut once.  A ranked-union fan-out (``ru`` / ``ru-cost``: ``knn`` and
every ``stream``) is one union over every shard's ``Φ_i``, driven in
the calling thread.  Any other fan-out runs the shards one after
another in that thread, each run offering to the shared collector, so
a later shard prunes against every match the shards before it
verified.  These tests pin what the sharing may and may not change:

* **Plumbing** — one collector object and one window set per fan-out,
  fresh for the next one; the window set is cut once.  A later shard of
  a non-union ``knn`` starts under the k-th distance the shards before
  it verified; a range fan-out prunes against ``epsilon`` alone.
* **Ties** — a sequence duplicated across two shards ties the global
  k-th distance across the shards; in either shard order the answer is
  the unsharded one, byte for byte, for batch queries and streams.
* **Counters** — merged ``page_accesses`` / ``candidates`` never exceed
  the sum of running each shard alone; the values are pinned.
* **Threads** — every fan-out, of every method and of a range query,
  reads every page from the calling thread, and a page cap one shard
  trips ends a ranked union with a sound certificate.
* **Turns** — any other fan-out runs its shards one after another, so
  its counters repeat exactly from run to run, and a fan-out cancelled
  at any checkpoint ends with a sound certificate.
* **Lost mid-run** — a shard that offered matches to the shared
  collector and then failed leaves them in the answer, and the
  survivors pruned against them: the certificate ``0.0`` is the only
  claim.
"""

import math
import threading
import time

import pytest

from repro import SubsequenceDatabase
from repro.control import (
    REASON_CANCELLED,
    REASON_PAGE_BUDGET,
    CancellationToken,
    ExecutionControl,
    QueryBudget,
)
from repro.core.reference import brute_force_topk
from repro.core.results import RangeCollector, TopKCollector
from repro.core.windows import QueryWindowSet
from repro.engines.base import (
    METHODS,
    RANKED_UNION_METHODS,
    PartialResult,
    QueryRun,
    QuerySpec,
)
from repro.engines.hlmj import HlmjEngine
from repro.exceptions import StorageError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shard import REASON_SHARD_LOST, ShardedDatabase, hash_shard
from repro.storage.buffer import BufferPool
from repro.storage.faults import CORRUPT, FaultInjector, FaultSpec
from tests.conftest import build_golden_db, make_walk, query_from
from tests.test_shard_exactness import (
    ENGINE_LABELS,
    _method_of,
    build_sharded_golden_db,
)


@pytest.fixture(scope="module")
def oracle():
    return build_golden_db()


def _spec(query, label, k=5):
    method, deferred = _method_of(label)
    return QuerySpec.for_query(
        query, rho=2, k=k, method=method, deferred=deferred
    )


def _independent_sums(sdb, query, spec):
    """``(pages, candidates)`` summed over every shard run alone, cold."""
    pages = candidates = 0
    for db in sdb.shards.values():
        db.reset_cache()
        alone = db.run_query(query, spec, ExecutionControl())
        pages += alone.stats.page_accesses
        candidates += alone.stats.candidates
    return pages, candidates


def _assert_sound(result, gold, k):
    """No match ``result`` leaves out lies below both its certificate
    and, once it holds ``k`` matches, its k-th distance."""
    bar = result.certificate if isinstance(result, PartialResult) else math.inf
    if len(result.matches) == k:
        bar = min(bar, result.matches[-1].distance)
    reported = {(m.sid, m.start) for m in result.matches}
    missing = [
        (m.sid, m.start) for m in gold
        if m.distance < bar - 1e-9 and (m.sid, m.start) not in reported
    ]
    assert missing == []


#: Three sequences, one per shard under the range policy.
_THREE = {
    sid: make_walk(n, seed=40 + sid) for sid, n in enumerate((700, 600, 800))
}


@pytest.fixture(scope="module")
def three_shards():
    """A 3-shard database with every shard non-empty, and its oracle."""
    oracle = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    sdb = ShardedDatabase(
        num_shards=3, policy="range", omega=16, features=4,
        buffer_fraction=0.1,
    )
    for db in (oracle, sdb):
        for sid, values in _THREE.items():
            db.insert(sid, values)
        db.build(psm=True)
    assert len(sdb.shards) == 3
    yield oracle, sdb
    sdb.close()


def _each_fan_out(sdb, query):
    """Run one fan-out of every method in ``METHODS``, then a range
    query, yielding a label after each."""
    for method in METHODS:
        sdb.search(query, k=5, rho=2, method=method)
        yield method
    sdb.range_search(query, epsilon=2.5, rho=2)
    yield "range"


class TestOneCollectorPerFanOut:
    def test_shard_runs_share_one_collector_and_windows(
        self, three_shards, monkeypatch
    ):
        oracle, sdb = three_shards
        handed = []
        real = QueryRun.__init__

        def spy(self, *args, **kwargs):
            handed.append((kwargs.get("collector"), kwargs.get("window_set")))
            real(self, *args, **kwargs)

        monkeypatch.setattr(QueryRun, "__init__", spy)
        query = query_from(oracle, 300, 48, sid=1)
        pairs = []
        for label in _each_fan_out(sdb, query):
            assert len(handed) == 3, label
            collector, window_set = handed[0]
            assert collector is not None and window_set is not None, label
            assert all(
                run_collector is collector and run_windows is window_set
                for run_collector, run_windows in handed
            ), label
            pairs.append((collector, window_set))
            del handed[:]
        # A fresh pair per fan-out: nothing carries over to the next.
        assert len({id(c) for c, _ in pairs}) == len(pairs)
        assert len({id(w) for _, w in pairs}) == len(pairs)

    def test_the_window_set_is_cut_once_per_fan_out(
        self, three_shards, monkeypatch
    ):
        oracle, sdb = three_shards
        cuts = []
        real = QueryWindowSet.from_query

        def counted(*args, **kwargs):
            cuts.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(QueryWindowSet, "from_query", counted)
        query = query_from(oracle, 300, 48, sid=1)
        for label in _each_fan_out(sdb, query):
            assert len(cuts) == 1, label
            del cuts[:]


def _spy_on_collectors(monkeypatch):
    """Record, per QueryRun built, its collector and that collector's
    ``threshold_pow`` at the moment the run is built."""
    seen = []
    real = QueryRun.__init__

    def spy(self, *args, **kwargs):
        collector = kwargs.get("collector")
        seen.append((collector, collector.threshold_pow))
        real(self, *args, **kwargs)

    monkeypatch.setattr(QueryRun, "__init__", spy)
    return seen


class TestBoundPlumbing:
    """The bound a shard prunes against is the threshold of the
    fan-out's one collector: the k-th distance of a
    :class:`TopKCollector`, the fixed ``epsilon`` of a
    :class:`RangeCollector`."""

    def test_only_a_non_union_top_k_gets_a_bound(
        self, three_shards, monkeypatch
    ):
        oracle, sdb = three_shards
        seen = _spy_on_collectors(monkeypatch)
        query = query_from(oracle, 300, 48, sid=1)
        for method in METHODS:
            del seen[:]
            sdb.search(query, k=5, rho=2, method=method)
            assert len(seen) == 3, method
            assert all(
                isinstance(collector, TopKCollector) for collector, _ in seen
            ), method
            bars = [bar for _, bar in seen]
            # The first shard starts with no bound either way.
            assert math.isinf(bars[0]), method
            if method in RANKED_UNION_METHODS:
                # The union builds every shard run before it steps one:
                # the bound forms inside the union, none is handed in.
                assert all(math.isinf(bar) for bar in bars), method
            else:
                # A later shard starts under the k-th distance of what
                # the shards before it verified, and it only tightens.
                assert not math.isinf(bars[1]), method
                assert bars[2] <= bars[1], method

    def test_range_fan_out_mints_no_bound(self, oracle, monkeypatch):
        seen = _spy_on_collectors(monkeypatch)
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(2, "range") as sdb:
            sdb.range_search(query, epsilon=2.5, rho=2)
            assert len(seen) == 2
            collector = seen[0][0]
            assert isinstance(collector, RangeCollector)
            assert seen[1][0] is collector
            # Both shards prune against epsilon itself, before and after
            # the first shard offered its matches.
            assert [bar for _, bar in seen] == [2.5**2] * 2
            assert collector.threshold_pow == 2.5**2
            del seen[:]
            sdb.search(query, k=5, rho=2, method="hlmj")
            assert len(seen) == 2
            assert isinstance(seen[0][0], TopKCollector)
            assert seen[1][0] is seen[0][0] is not collector


class TestRankedUnionFanOut:
    """``ru`` / ``ru-cost`` fan-outs are one union in the calling thread;
    every other fan-out steps its shards in that thread too."""

    def test_ranked_union_fan_outs_start_no_thread(
        self, three_shards, monkeypatch
    ):
        oracle, sdb = three_shards
        readers = []
        real_get = BufferPool.get

        def get(self, page_id, stats=None):
            readers.append(threading.get_ident())
            return real_get(self, page_id, stats)

        monkeypatch.setattr(BufferPool, "get", get)
        query = query_from(oracle, 300, 48, sid=1)
        for method in METHODS:
            for deferred in (False, True):
                sdb.reset_cache()
                result = sdb.search(
                    query, k=5, rho=2, method=method, deferred=deferred
                )
                assert len(result.shard_stats) == 3
        for method in RANKED_UNION_METHODS:
            stream = sdb.iter_matches(query, k=5, rho=2, method=method)
            assert len(list(stream)) == 5
        sdb.reset_cache()
        result = sdb.range_search(query, epsilon=2.5, rho=2)
        assert len(result.shard_stats) == 3
        assert readers and set(readers) == {threading.get_ident()}

    @pytest.mark.parametrize("label", ["ru", "ru-d", "ru-cost", "ru-cost-d"])
    def test_a_page_cap_one_shard_trips_is_sound(self, three_shards, label):
        oracle, sdb = three_shards
        method, deferred = _method_of(label)
        query = query_from(oracle, 300, 48, sid=1)
        sdb.reset_cache()
        full = sdb.search(query, k=5, rho=2, method=method, deferred=deferred)
        cap = max(s.page_accesses for s in full.shard_stats.values()) // 2
        sdb.reset_cache()
        result = sdb.search(
            query, k=5, rho=2, method=method, deferred=deferred,
            budget=QueryBudget(max_page_accesses=cap),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_PAGE_BUDGET
        # The first shard over its own cap ends the whole union.
        over = [
            shard for shard, stats in result.shard_stats.items()
            if stats.page_accesses > cap
        ]
        assert len(over) == 1
        assert result.stats.page_accesses == sum(
            stats.page_accesses for stats in result.shard_stats.values()
        )
        gold = brute_force_topk(oracle.store, query, k=10**6, rho=2)
        _assert_sound(result, gold, 5)

    @pytest.mark.parametrize("kind", ["knn", "stream"])
    def test_a_traced_page_cap_records_its_trip(self, three_shards, kind):
        oracle, sdb = three_shards
        query = query_from(oracle, 300, 48, sid=1)
        budget = QueryBudget(max_page_accesses=3)
        tracer = Tracer(enabled=True, max_spans=100_000, max_events=100_000)
        sdb.reset_cache()
        sdb.set_tracer(tracer)
        try:
            if kind == "knn":
                result = sdb.search(query, k=5, rho=2, budget=budget)
            else:
                stream = sdb.iter_matches(query, k=5, rho=2, budget=budget)
                list(stream)
                result = stream.result
        finally:
            sdb.set_tracer(NULL_TRACER)
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_PAGE_BUDGET
        # One engine.search root per shard, each closed, each holding
        # its shard's checkpoints; the trip sits under the shard's root.
        assert [root.name for root in tracer.roots] == ["engine.search"] * 3
        assert all(root.end is not None for root in tracer.roots)
        assert tracer.dropped_events == 0

        def events(root):
            return [
                event for span in root.iter_tree() for event in span.events
            ]

        trips = [
            event
            for root in tracer.roots
            for event in events(root)
            if event.name == "control.interrupted"
        ]
        assert [trip.attrs["reason"] for trip in trips] == [
            REASON_PAGE_BUDGET
        ]
        assert all(
            any(event.name == "control.checkpoint" for event in events(root))
            for root in tracer.roots
        )

    @pytest.mark.parametrize("kind", ["knn", "stream"])
    def test_each_shard_root_holds_its_run_then_its_drain(
        self, oracle, kind
    ):
        query = query_from(oracle, 640, 48)
        tracer = Tracer(enabled=True, max_spans=100_000)
        # "range" puts the two golden sequences on different shards.
        with build_sharded_golden_db(2, "range") as sdb:
            sdb.set_tracer(tracer)
            if kind == "knn":
                sdb.search(
                    query, k=5, rho=2, method="ru-cost", deferred=True
                )
                phases = ["engine.run", "engine.finalize"]
            else:
                list(sdb.iter_matches(query, k=5, rho=2, method="ru-cost"))
                phases = ["engine.run"]  # a stream has no deferred drain
        assert [root.name for root in tracer.roots] == ["engine.search"] * 2
        for root in tracer.roots:
            assert [child.name for child in root.children] == phases
            assert root.children[0].count("engine.heap_pop") > 0

    def test_each_shard_run_ends_inside_its_subquery_span(self, three_shards):
        oracle, sdb = three_shards
        query = query_from(oracle, 300, 48, sid=1)
        tracer = Tracer(enabled=True, max_spans=100_000)
        sdb.set_tracer(tracer)
        try:
            sdb.search(query, k=5, rho=2, method="hlmj")
            sdb.range_search(query, epsilon=2.5, rho=2)
        finally:
            sdb.set_tracer(NULL_TRACER)
        # No span wraps a shard run: its root is its own closed
        # ``engine.search`` span, as an unsharded run's is.
        assert [root.name for root in tracer.roots] == ["engine.search"] * 6
        assert [root.attrs["engine"] for root in tracer.roots] == (
            ["HLMJ"] * 3 + ["RangeSearch"] * 3
        )
        for root in tracer.roots:
            assert root.end is not None
            assert [child.name for child in root.children] == [
                "engine.run", "engine.finalize"
            ]

    @pytest.mark.parametrize("kind", ["knn", "stream"])
    def test_a_shard_lost_mid_run(self, three_shards, monkeypatch, kind):
        oracle, sdb = three_shards
        victim = sdb.plan.assignment[2]
        store = sdb.shards[victim].index.store
        real_length = store.length
        calls = []

        def failing_length(sid):
            calls.append(sid)
            if len(calls) > 3:
                raise StorageError(f"shard {victim} went away")
            return real_length(sid)

        monkeypatch.setattr(store, "length", failing_length)
        query = query_from(oracle, 300, 48, sid=1)

        def run(on_fault):
            del calls[:]
            if kind == "knn":
                return sdb.search(query, k=5, rho=2, on_fault=on_fault)
            stream = sdb.iter_matches(query, k=5, rho=2, on_fault=on_fault)
            emitted = list(stream)
            assert stream.result.matches == emitted
            return stream.result

        tracer = Tracer(enabled=True, max_spans=100_000)
        sdb.set_tracer(tracer)
        try:
            with pytest.raises(StorageError, match="went away"):
                run("raise")
        finally:
            sdb.set_tracer(NULL_TRACER)
        # Every shard's root is closed, the survivors' included.
        assert len(tracer.roots) == 3
        assert all(root.end is not None for root in tracer.roots)
        result = run("degrade")
        assert len(calls) > 3  # the victim failed after it had begun
        assert isinstance(result, PartialResult)
        assert result.certificate == 0.0
        assert result.reason == REASON_SHARD_LOST
        assert result.degraded
        # The lost shard keeps the counters of the work it did.
        assert sorted(result.shard_stats) == sorted(sdb.shards)
        assert result.shard_stats[victim].logical_reads > 0
        assert result.stats.page_accesses == sum(
            stats.page_accesses for stats in result.shard_stats.values()
        )


class TestOneSourceLostMidRun:
    """An unsharded database runs the same :class:`RankedUnion` as a
    sharded one, with its index as the one source: a storage error
    escaping a step follows ``on_fault`` as a lost shard would."""

    #: ``ru`` on the golden query, its source lost at the eleventh
    #: ``store.length`` call: the matches it verified before then.
    KEPT = [(0, 640), (0, 624), (0, 992), (0, 528), (0, 512)]

    @staticmethod
    def _lose_after_ten_lengths(db, monkeypatch):
        """Fail ``db``'s ``store.length`` from its eleventh call on."""
        store = db.index.store
        real_length = store.length
        calls = []

        def failing_length(sid):
            calls.append(sid)
            if len(calls) > 10:
                raise StorageError("the store went away")
            return real_length(sid)

        monkeypatch.setattr(store, "length", failing_length)
        return calls

    @pytest.fixture()
    def failing(self, oracle, monkeypatch):
        return self._lose_after_ten_lengths(oracle, monkeypatch)

    def _run(self, oracle, kind, on_fault):
        query = query_from(oracle, 640, 48)
        oracle.reset_cache()
        if kind == "knn":
            return oracle.search(
                query, k=5, rho=2, method="ru", on_fault=on_fault
            )
        stream = oracle.iter_matches(
            query, k=5, rho=2, method="ru", on_fault=on_fault
        )
        emitted = list(stream)
        assert stream.result.matches == emitted
        return stream.result

    @pytest.mark.parametrize("kind", ["knn", "stream"])
    def test_raise_propagates(self, oracle, failing, kind):
        with pytest.raises(StorageError, match="went away"):
            self._run(oracle, kind, "raise")

    @pytest.mark.parametrize("kind", ["knn", "stream"])
    def test_degrade_keeps_what_was_verified(self, oracle, failing, kind):
        result = self._run(oracle, kind, "degrade")
        assert len(failing) > 10  # the source failed after it had begun
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_SHARD_LOST
        assert result.certificate == 0.0
        assert result.degraded
        assert [e.error for e in result.fault_report.events] == ["ShardLost"]
        # The lost source keeps its counters, as a lost shard does.
        assert list(result.shard_stats) == [0]
        lost = result.shard_stats[0]
        assert lost.page_accesses > 0 and lost.candidates > 0
        assert result.stats.page_accesses == lost.page_accesses
        assert result.stats.candidates == lost.candidates
        if kind == "knn":
            assert [(m.sid, m.start) for m in result.matches] == self.KEPT

    @pytest.mark.parametrize("method", ["ru", "hlmj"])
    def test_lost_source_keeps_its_fault_events(self, monkeypatch, method):
        """A source that tolerated data-page faults and was then lost:
        the answer's report itemises every fault its counters skipped."""
        injector = FaultInjector(seed=5)
        db = SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.1,
            fault_injector=injector,
        )
        db.insert(0, make_walk(3000, seed=11))
        db.insert(1, make_walk(2200, seed=12))
        db.build()
        meta = db.store.meta(0)
        injector.add(
            FaultSpec(
                fault=CORRUPT,
                page_ids=range(
                    meta.first_page, meta.first_page + meta.num_pages
                ),
            )
        )
        db.reset_cache()
        self._lose_after_ten_lengths(db, monkeypatch)
        result = db.search(
            query_from(db, 640, 48), k=5, rho=2, method=method,
            on_fault="degrade",
        )
        assert result.reason == REASON_SHARD_LOST
        report = result.fault_report
        errors = [event.error for event in report.events]
        assert errors[-1] == "ShardLost"
        tolerated = len(errors) - 1 + report.suppressed
        assert tolerated == result.stats.faults_skipped > 0
        assert set(errors[:-1]) == {"CorruptPageError"}


def _tied_sids(first_shard_holds_lower_sid):
    """Two sids on different hash shards of N = 2, ordered as asked.

    Shard 0 runs first, so this picks which copy of the duplicated
    sequence publishes first.
    """
    for low in range(64):
        for high in range(low + 1, 64):
            shards = (hash_shard(low, 2), hash_shard(high, 2))
            wanted = (0, 1) if first_shard_holds_lower_sid else (1, 0)
            if shards == wanted:
                return low, high
    raise AssertionError("no sid pair splits that way")  # pragma: no cover


class TestTiesAcrossShards:
    """The global k-th distance tied across the merge, both shard orders."""

    @pytest.mark.parametrize("lower_first", [True, False])
    def test_duplicated_sequence_matches_the_oracle(self, lower_first):
        low, high = _tied_sids(lower_first)
        walk = make_walk(1200, seed=33)
        oracle = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
        sdb = ShardedDatabase(
            num_shards=2,
            policy="hash",
            omega=16,
            features=4,
            buffer_fraction=0.1,
        )
        for db in (oracle, sdb):
            db.insert(low, walk)
            db.insert(high, walk)  # every distance appears twice
        oracle.build()
        sdb.build()
        try:
            assert sdb.plan.assignment[low] != sdb.plan.assignment[high]
            query = oracle.store.peek_subsequence(low, 500, 48).copy()
            # Odd k cuts between the two copies of the k-th distance.
            for k in (1, 2, 5, 6):
                for label in ENGINE_LABELS:
                    method, deferred = _method_of(label)
                    gold = oracle.search(
                        query, k=k, rho=2, method=method, deferred=deferred
                    )
                    got = sdb.search(
                        query, k=k, rho=2, method=method, deferred=deferred
                    )
                    assert got.matches == gold.matches, (k, label)
                    assert [repr(m.distance) for m in got.matches] == [
                        repr(m.distance) for m in gold.matches
                    ]
                gold_stream = oracle.iter_matches(query, k=k, rho=2)
                want = list(gold_stream)
                gold_stream.close()
                assert list(sdb.iter_matches(query, k=k, rho=2)) == want
        finally:
            sdb.close()


#: Counters on the golden workload (query cut at 640, k = 5, rho = 2):
#: ``(pages, candidates)`` of the fan-out, then of the same shards each
#: run alone.  Hash at N = 2 puts both sequences on one shard, so
#: nothing is shared there.  Every fan-out shares one collector: the
#: ``ru*`` cells are the one union's, the others a fan-out's whose
#: shards run one after another in shard order, so the second shard
#: starts from every match the first one verified.  Every cell stays
#: within its independent sum.  The ``ru-cost*`` cells of the shared
#: block moved down once, when RU-COST's h-th-leaf estimate began its
#: sweep at the lowest position instead of the first range's low end
#: (point masses below it had been counted as sitting at that end).
SHARED_BOUND_COUNTERS = {
    ("hash", 2): {
        "seqscan": ((11, 5106), (11, 5106)),
        "hlmj": ((179, 228), (179, 228)),
        "hlmj-d": ((124, 228), (124, 228)),
        "hlmj-wg": ((45, 46), (45, 46)),
        "hlmj-wg-d": ((39, 60), (39, 60)),
        "ru": ((229, 216), (229, 216)),
        "ru-d": ((149, 216), (149, 216)),
        "ru-cost": ((248, 214), (248, 214)),
        "ru-cost-d": ((161, 212), (161, 212)),
    },
    # Hash at N = 3 and range at N = 2 / 3 all split the two sequences
    # the same way, sequence 0 (the query's) on the first shard.
    **{
        cell: {
            "seqscan": ((11, 5106), (11, 5106)),
            "hlmj": ((164, 228), (347, 501)),
            "hlmj-d": ((128, 228), (268, 501)),
            "hlmj-wg": ((52, 57), (128, 187)),
            "hlmj-wg-d": ((40, 60), (97, 192)),
            "ru": ((259, 216), (465, 529)),
            "ru-d": ((203, 216), (347, 529)),
            "ru-cost": ((257, 208), (459, 488)),
            "ru-cost-d": ((198, 208), (343, 488)),
        }
        for cell in (("hash", 3), ("range", 2), ("range", 3))
    },
}


class TestCountersUnderTheBound:
    @pytest.fixture(scope="class")
    def sharded(self):
        dbs = {
            cell: build_sharded_golden_db(cell[1], cell[0])
            for cell in SHARED_BOUND_COUNTERS
        }
        yield dbs
        for db in dbs.values():
            db.close()

    @pytest.mark.parametrize("label", ENGINE_LABELS)
    @pytest.mark.parametrize(
        "cell", sorted(SHARED_BOUND_COUNTERS), ids="{0[0]}-N{0[1]}".format
    )
    def test_at_most_the_independent_sum(
        self, oracle, sharded, cell, label
    ):
        query = query_from(oracle, 640, 48)
        sdb = sharded[cell]
        spec = _spec(query, label)
        sdb.reset_cache()
        shared = sdb.run_query(query, spec, ExecutionControl())
        independent = _independent_sums(sdb, query, spec)
        got = (shared.stats.page_accesses, shared.stats.candidates)
        assert got[0] <= independent[0] and got[1] <= independent[1]
        assert (got, independent) == SHARED_BOUND_COUNTERS[cell][label]

    def test_sharing_saves_work_on_ru_cost_d(self, oracle, sharded):
        query = query_from(oracle, 640, 48)
        sdb = sharded[("range", 2)]
        spec = _spec(query, "ru-cost-d")
        sdb.reset_cache()
        shared = sdb.run_query(query, spec, ExecutionControl())
        pages, candidates = _independent_sums(sdb, query, spec)
        assert shared.stats.page_accesses < pages
        assert shared.stats.candidates < candidates


class TestThreadExecutorTakesTurns:
    """The calling thread runs a fan-out's shards in turn, one whole run
    each, in shard order."""

    @pytest.fixture(scope="class")
    def threaded(self):
        dbs = {
            cell: build_sharded_golden_db(cell[1], cell[0])
            for cell in (("range", 2), ("hash", 3))
        }
        yield dbs
        for db in dbs.values():
            db.close()

    @pytest.fixture(scope="class")
    def gold(self, oracle):
        query = query_from(oracle, 640, 48)
        return query, brute_force_topk(oracle.store, query, k=10**6, rho=2)

    @pytest.mark.parametrize("cancel_after", [1, 7, 64])
    @pytest.mark.parametrize("label", ENGINE_LABELS)
    @pytest.mark.parametrize(
        "cell", [("range", 2), ("hash", 3)], ids="{0[0]}-N{0[1]}".format
    )
    def test_counters_repeat_exactly(
        self, oracle, threaded, gold, cell, label, cancel_after
    ):
        query, everything = gold
        sdb = threaded[cell]
        spec = _spec(query, label)
        want = oracle.run_query(query, spec, ExecutionControl())
        runs = set()
        for _ in range(3):
            sdb.reset_cache()
            result = sdb.run_query(query, spec, ExecutionControl())
            assert result.matches == want.matches
            runs.add((result.stats.page_accesses, result.stats.candidates))
        assert len(runs) == 1
        (got,) = runs
        independent = _independent_sums(sdb, query, spec)
        assert got[0] <= independent[0] and got[1] <= independent[1]
        # A run a token ends after ``cancel_after`` checks repeats too,
        # and what it claims is sound.
        cut = set()
        for _ in range(2):
            sdb.reset_cache()
            token = CancellationToken(cancel_after_checks=cancel_after)
            result = sdb.run_query(
                query, spec, ExecutionControl(token=token)
            )
            # Every fan-out takes more than one check, so a token that
            # cancels after the first one always cuts it short.
            if cancel_after == 1:
                assert isinstance(result, PartialResult)
            if isinstance(result, PartialResult):
                assert result.reason == REASON_CANCELLED
            _assert_sound(result, everything, spec.k)
            cut.add((
                tuple(result.matches),
                result.stats.page_accesses,
                result.stats.candidates,
            ))
        assert len(cut) == 1

    def test_shard_runs_are_not_charged_their_waits(self, oracle, threaded):
        # A ranked union (ru-cost-d) steps its shards' operators in turn,
        # and any other fan-out (hlmj-d) runs them one after another;
        # either way the shards' own times can only add up to the
        # caller's latency if no shard is charged the time it spent
        # waiting for the others.
        query = query_from(oracle, 640, 48)
        sdb = threaded[("range", 2)]
        for label in ("ru-cost-d", "hlmj-d"):
            sdb.reset_cache()
            started = time.perf_counter()
            result = sdb.run_query(
                query, _spec(query, label), ExecutionControl()
            )
            latency = time.perf_counter() - started
            assert len(result.shard_stats) == 2, label
            assert result.stats.checkpoints > 2, label
            assert sum(
                stats.wall_time_s for stats in result.shard_stats.values()
            ) <= latency, label

    def test_a_cancelled_fan_out_ends_soundly(self, threaded, gold):
        # One sequential fan-out (hlmj) and one ranked union (ru-cost-d).
        query, everything = gold
        sdb = threaded[("range", 2)]
        for label in ("hlmj", "ru-cost-d"):
            sdb.reset_cache()
            token = CancellationToken(cancel_after_checks=9)
            result = sdb.run_query(
                query, _spec(query, label), ExecutionControl(token=token)
            )
            assert isinstance(result, PartialResult), label
            assert result.reason == REASON_CANCELLED, label
            assert sorted(result.shard_stats) == sorted(sdb.shards), label
            _assert_sound(result, everything, 5)

    @pytest.mark.parametrize("change", ["inject", "heal"])
    def test_a_failure_changed_mid_fan_out_is_not_half_seen(
        self, oracle, monkeypatch, change
    ):
        # The fan-out decides once, before the first shard runs, which
        # shards are lost: a shard failed or healed while an earlier
        # shard runs is neither skipped unreported nor both lost and run.
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(3, "hash") as sdb:
            first, *_, last = sorted(sdb.shards)
            if change == "heal":
                sdb.inject_shard_failure(last)
            flip = {
                "inject": sdb.inject_shard_failure, "heal": sdb.heal_shard
            }[change]
            real = HlmjEngine._run
            flipped = []

            def flip_then_run(engine, window_set, evaluator, spec):
                if engine.index is sdb.shards[first].index:
                    flipped.append(first)
                    flip(last)
                real(engine, window_set, evaluator, spec)

            monkeypatch.setattr(HlmjEngine, "_run", flip_then_run)
            result = sdb.search(
                query, k=5, rho=2, method="hlmj", on_fault="degrade"
            )
            assert flipped == [first]
            ran = set(result.shard_stats)
            if change == "inject":
                assert not isinstance(result, PartialResult)
                assert ran == set(sdb.shards)
            else:
                assert isinstance(result, PartialResult)
                assert result.reason == REASON_SHARD_LOST
                assert ran == set(sdb.shards) - {last}


class TestShardLostAfterPublishing:
    def test_certificate_is_the_only_claim(self, oracle, monkeypatch):
        # The victim runs first and verifies its matches into the
        # shared collector, then fails: they stay in the answer, and
        # the survivor pruned against them.
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(2, "range") as sdb:
            victim = sdb.plan.assignment[0]  # holds the query's matches
            survivor = sdb.plan.assignment[1]
            assert victim < survivor
            real = HlmjEngine._run
            verified = []

            def run_then_fail(engine, window_set, evaluator, spec):
                real(engine, window_set, evaluator, spec)
                if engine.index is not sdb.shards[victim].index:
                    return
                verified.extend(
                    evaluator.collector.matches(window_set.length)
                )
                raise StorageError(f"shard {victim} lost after verifying")

            monkeypatch.setattr(HlmjEngine, "_run", run_then_fail)
            sdb.reset_cache()
            result = sdb.search(
                query, k=5, rho=2, method="hlmj", on_fault="degrade"
            )
            assert len(verified) == 5
            assert isinstance(result, PartialResult)
            assert result.certificate == 0.0
            assert result.reason == REASON_SHARD_LOST
            assert result.degraded
            # The lost shard keeps the counters of what it verified.
            assert list(result.shard_stats) == [survivor, victim]
            assert result.shard_stats[victim].candidates > 0
            assert result.matches == verified
            # Sound: every match is a real one at its true distance.
            gold = {
                (m.sid, m.start): m.distance
                for m in brute_force_topk(oracle.store, query, k=10**6, rho=2)
            }
            for match in result.matches:
                assert match.distance == pytest.approx(
                    gold[(match.sid, match.start)]
                )
            # The survivor pruned against the lost shard's matches, so
            # it did less than it does alone.
            alone = sdb.shards[survivor].run_query(
                query, _spec(query, "hlmj"), ExecutionControl()
            )
            assert (
                result.shard_stats[survivor].candidates
                < alone.stats.candidates
            )
