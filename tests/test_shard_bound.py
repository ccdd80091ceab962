"""What the shards of one fan-out share.

A ranked-union fan-out (``ru`` / ``ru-cost``: ``knn`` and every
``stream``) is one union over every shard's ``Φ_i`` with one collector,
driven in the calling thread.  Any other ``knn`` fan-out mints one
:class:`~repro.control.KthBound`; every shard run prunes against the
tighter of its own k-th distance and that bound, and feeds it whenever
its collector holds ``k`` verified matches.  These tests pin what the
sharing may and may not change:

* **Ties** — a sequence duplicated across two shards ties the global
  k-th distance across the shards; in either shard order the answer is
  the unsharded one, byte for byte, for batch queries and streams.
* **Counters** — merged ``page_accesses`` / ``candidates`` never exceed
  the sum of running each shard alone; the values are pinned.
* **Threads** — a ranked-union fan-out reads every page from the
  calling thread, and a page cap one shard trips ends it with a sound
  certificate.
* **Turns** — the thread-pool fan-out's shards take turns in a
  :class:`~repro.control.Rotation`, so its counters repeat exactly
  from run to run, whatever the turn length, and a cancelled rotation
  ends.
* **Lost mid-run** — a shard that fed the shared bound or collector and
  then failed leaves the survivors pruned against matches nobody
  vouches for: the certificate ``0.0`` is the only claim.
"""

import math
import threading
import time

import pytest

import repro.control
from repro import SubsequenceDatabase
from repro.control import (
    REASON_CANCELLED,
    REASON_PAGE_BUDGET,
    CancellationToken,
    ExecutionControl,
    KthBound,
    QueryBudget,
)
from repro.core.reference import brute_force_topk
from repro.engines.base import PartialResult, QuerySpec
from repro.exceptions import StorageError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shard import REASON_SHARD_LOST, ShardedDatabase, hash_shard
from repro.storage.buffer import BufferPool
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


class TestBoundPlumbing:
    def test_derive_attaches_the_bound_and_nothing_else_has_one(self):
        bound = KthBound()
        control = ExecutionControl()
        assert control.bound is None
        assert control.derive().bound is None
        assert control.derive(bound).bound is bound
        # A control reused for the next query carries no stale bound.
        assert control.bound is None

    def test_offer_only_lowers(self):
        bound = KthBound()
        assert math.isinf(bound.value_pow)
        bound.offer(math.inf)
        assert math.isinf(bound.value_pow)
        bound.offer(4.0)
        bound.offer(9.0)
        assert bound.value_pow == 4.0
        bound.offer(1.0)
        assert bound.value_pow == 1.0

    def test_range_fan_out_mints_no_bound(self, oracle, monkeypatch):
        seen = []
        real = ExecutionControl.derive

        def spy(self, bound=None, rotation=None, party=0):
            seen.append(bound)
            return real(self, bound, rotation, party)

        monkeypatch.setattr(ExecutionControl, "derive", spy)
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(2, "range") as sdb:
            sdb.range_search(query, epsilon=2.5, rho=2)
            assert seen == [None, None]
            del seen[:]
            sdb.search(query, k=5, rho=2, method="hlmj")
            assert len(seen) == 2 and seen[0] is seen[1] is not None
            first = seen[0]
            del seen[:]
            sdb.search(query, k=5, rho=2, method="hlmj")
            assert len(seen) == 2 and seen[0] is seen[1] is not None
            assert seen[0] is not first  # one bound per fan-out
            del seen[:]
            # A ranked-union fan-out shares one collector instead.
            sdb.search(query, k=5, rho=2)
            list(sdb.iter_matches(query, k=5, rho=2))
            assert seen == [None] * 4

    def test_only_a_thread_top_k_takes_turns(self, oracle, monkeypatch):
        seen = []
        real = ExecutionControl.derive

        def spy(self, bound=None, rotation=None, party=0):
            seen.append((rotation, party))
            return real(self, bound, rotation, party)

        monkeypatch.setattr(ExecutionControl, "derive", spy)
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(2, "range") as sdb:
            sdb.search(query, k=5, rho=2, method="hlmj")
            sdb.range_search(query, epsilon=2.5, rho=2)
            sdb.search(query, k=5, rho=2, method="ru")
            list(sdb.iter_matches(query, k=5, rho=2))
        rotations = [rotation for rotation, _ in seen]
        # hlmj knn (a rotation), range, ru knn, stream
        assert rotations[0] is rotations[1] is not None
        assert [party for _, party in seen[:2]] == [0, 1]
        assert rotations[2:] == [None] * 6


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
        db.build()
    assert len(sdb.shards) == 3
    yield oracle, sdb
    sdb.close()


class TestRankedUnionFanOut:
    """``ru`` / ``ru-cost`` fan-outs are one union in the calling thread."""

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
        for method in ("ru", "ru-cost"):
            for deferred in (False, True):
                sdb.reset_cache()
                result = sdb.search(
                    query, k=5, rho=2, method=method, deferred=deferred
                )
                assert len(result.shard_stats) == 3
            stream = sdb.iter_matches(query, k=5, rho=2, method=method)
            assert len(list(stream)) == 5
        assert readers and set(readers) == {threading.get_ident()}
        # The recording sees other threads: hlmj still runs on the pool.
        del readers[:]
        sdb.reset_cache()
        sdb.search(query, k=5, rho=2, method="hlmj")
        assert readers and threading.get_ident() not in readers

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
        bar = result.certificate
        if len(result.matches) == 5:
            bar = min(bar, result.matches[-1].distance)
        reported = {(m.sid, m.start) for m in result.matches}
        missing = [
            (m.sid, m.start) for m in gold
            if m.distance < bar - 1e-9 and (m.sid, m.start) not in reported
        ]
        assert missing == []

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
        trips = [
            event
            for root in tracer.roots
            for event in root.events
            if event.name == "control.interrupted"
        ]
        assert [trip.attrs["reason"] for trip in trips] == [
            REASON_PAGE_BUDGET
        ]
        assert all(
            any(event.name == "control.checkpoint" for event in root.events)
            for root in tracer.roots
        )

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
        assert sorted(result.shard_stats) == sorted(
            shard for shard in sdb.shards if shard != victim
        )
        assert result.stats.page_accesses == sum(
            stats.page_accesses for stats in result.shard_stats.values()
        )


def _tied_sids(first_shard_holds_lower_sid):
    """Two sids on different hash shards of N = 2, ordered as asked.

    Shard 0 holds the rotation's first turn, so this picks which copy of
    the duplicated sequence publishes first.
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
#: nothing is shared there.  The ``ru*`` cells are the one-union
#: fan-out's (one collector); the others are the thread-pool fan-out's
#: (a shared bound, ``TURN_CHECKPOINTS`` = 64).  Running the shards one
#: after the other (the deleted serial executor) spent the same in
#: every cell but ``hlmj-wg-d`` on the split cells: (40, 60) there,
#: (44, 75) here, because in a rotation the second shard starts after
#: 64 of the first shard's checkpoints, not after all of them, so it
#: can read a looser bound.  Both stay within the independent (97, 192).
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
            "hlmj-wg-d": ((44, 75), (97, 192)),
            "ru": ((259, 216), (465, 529)),
            "ru-d": ((203, 216), (347, 529)),
            "ru-cost": ((261, 213), (463, 493)),
            "ru-cost-d": ((204, 213), (349, 493)),
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
    @pytest.fixture(scope="class")
    def threaded(self):
        dbs = {
            cell: build_sharded_golden_db(cell[1], cell[0])
            for cell in (("range", 2), ("hash", 3))
        }
        yield dbs
        for db in dbs.values():
            db.close()

    @pytest.mark.parametrize("turn", [1, 7, 64])
    @pytest.mark.parametrize("label", ENGINE_LABELS)
    @pytest.mark.parametrize(
        "cell", [("range", 2), ("hash", 3)], ids="{0[0]}-N{0[1]}".format
    )
    def test_counters_repeat_exactly(
        self, oracle, threaded, monkeypatch, cell, label, turn
    ):
        monkeypatch.setattr(repro.control, "TURN_CHECKPOINTS", turn)
        query = query_from(oracle, 640, 48)
        sdb = threaded[cell]
        spec = _spec(query, label)
        gold = oracle.run_query(query, spec, ExecutionControl())
        runs = set()
        for _ in range(3):
            sdb.reset_cache()
            result = sdb.run_query(query, spec, ExecutionControl())
            assert result.matches == gold.matches
            runs.add((result.stats.page_accesses, result.stats.candidates))
        assert len(runs) == 1
        (got,) = runs
        independent = _independent_sums(sdb, query, spec)
        assert got[0] <= independent[0] and got[1] <= independent[1]

    def test_shard_runs_are_not_charged_their_waits(
        self, oracle, threaded, monkeypatch
    ):
        # Turns are exclusive, so the shard runs' own times can only add
        # up to the caller's latency if waiting for a turn is left out.
        monkeypatch.setattr(repro.control, "TURN_CHECKPOINTS", 1)
        query = query_from(oracle, 640, 48)
        sdb = threaded[("range", 2)]
        sdb.reset_cache()
        started = time.perf_counter()
        result = sdb.run_query(
            query, _spec(query, "ru-cost-d"), ExecutionControl()
        )
        latency = time.perf_counter() - started
        assert len(result.shard_stats) == 2
        assert result.stats.checkpoints > 2
        assert sum(
            stats.wall_time_s for stats in result.shard_stats.values()
        ) <= latency

    def test_a_cancelled_rotation_ends(self, oracle, threaded, monkeypatch):
        monkeypatch.setattr(repro.control, "TURN_CHECKPOINTS", 1)
        query = query_from(oracle, 640, 48)
        sdb = threaded[("range", 2)]
        sdb.reset_cache()
        result = sdb.run_query(
            query,
            _spec(query, "ru-cost-d"),
            ExecutionControl(token=CancellationToken(cancel_after_checks=9)),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_CANCELLED


class TestShardLostAfterPublishing:
    def test_certificate_is_the_only_claim(self, oracle, monkeypatch):
        # Only the thread-pool fan-out (here hlmj) has a bound to feed.
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(2, "range") as sdb:
            victim = sdb.plan.assignment[0]  # holds the query's matches
            survivor = sdb.plan.assignment[1]
            real = sdb.shards[victim].run_query
            published = []

            def run_then_fail(query, spec, control):
                real(query, spec, control)
                published.append(control.bound.value_pow)
                raise StorageError(f"shard {victim} lost after publishing")

            monkeypatch.setattr(
                sdb.shards[victim], "run_query", run_then_fail
            )
            sdb.reset_cache()
            result = sdb.search(
                query, k=5, rho=2, method="hlmj", on_fault="degrade"
            )
            assert published and not math.isinf(published[0])
            assert isinstance(result, PartialResult)
            assert result.certificate == 0.0
            assert result.reason == REASON_SHARD_LOST
            assert result.degraded
            assert list(result.shard_stats) == [survivor]
            # The survivor pruned against the lost shard's matches, so
            # its answer is not what it would return alone.
            alone = sdb.shards[survivor].run_query(
                query, _spec(query, "hlmj"), ExecutionControl()
            )
            assert result.matches != alone.matches
