"""Differential tests: sharded execution vs the single-shard oracle.

The tentpole invariant of the sharding subsystem is *byte identity*:
for every engine configuration in the golden table, a sharded database
must return exactly the matches — same distances bit-for-bit, same
tie-breaking order — that the unsharded oracle returns, for every shard
count and partitioning policy.  These tests enumerate that grid
directly; the Hypothesis suite (``test_property_shard.py``) walks
randomized workloads, and the chaos suite covers faults.

The N=1 column doubles as an accounting check: a single shard holds
the sequences in the original insertion order, so its index geometry —
and therefore every golden NUM_IO counter — is identical to the
unsharded database's.
"""

import inspect
import json
import math
import pathlib

import pytest

from repro.control import ExecutionControl, QueryBudget
from repro.core.metrics import QueryStats
from repro.core.reference import brute_force_topk
from repro.core.results import Match
from repro.engines.base import PartialResult, QuerySpec, SearchResult
from repro.exceptions import ConfigurationError, IntegrityError, StorageError
from repro.shard import (
    POLICIES,
    REASON_SHARD_LOST,
    SHARD_MANIFEST_NAME,
    LostShard,
    ShardedDatabase,
    ShardPlanner,
    hash_shard,
    merge_search_results,
)
from tests.conftest import (
    build_golden_db,
    build_golden_psm_db,
    make_walk,
    query_from,
)
from tests.test_engines_stats import (
    GOLDEN_COUNTERS,
    GOLDEN_DISTANCES,
    GOLDEN_MATCHES,
    GOLDEN_PSM_DISTANCES,
    GOLDEN_PSM_MATCHES,
    GOLDEN_STAT_KEYS,
)

SHARD_COUNTS = (1, 2, 3, 7)  # 3 and 7 exceed num_sequences (= 2)

ENGINE_LABELS = (
    "seqscan", "hlmj", "hlmj-d", "hlmj-wg", "hlmj-wg-d",
    "ru", "ru-d", "ru-cost", "ru-cost-d",
)

GRID = [
    (n, policy) for n in SHARD_COUNTS for policy in POLICIES
]

#: ``(label, kind)`` cases of the one-source parity test: every engine
#: label, ``psm`` and a range query, plain and page-capped; a stream of
#: each ranked-union method; ``hlmj`` losing its source mid-run.
ONE_SOURCE_CASES = [
    (label, kind)
    for label in ENGINE_LABELS + ("psm", "range")
    for kind in ("knn", "capped-knn")
] + [
    (label, "stream") for label in ("ru", "ru-cost")
] + [("hlmj", "lost")]


def _method_of(label):
    deferred = label.endswith("-d")
    return (label[:-2] if deferred else label), deferred


def build_sharded_golden_db(num_shards, policy):
    """The golden workload, partitioned across ``num_shards``."""
    db = ShardedDatabase(
        num_shards=num_shards,
        policy=policy,
        omega=16,
        features=4,
        buffer_fraction=0.1,
    )
    db.insert(0, make_walk(3000, seed=11))
    db.insert(1, make_walk(2200, seed=12))
    db.build()
    return db


@pytest.fixture(scope="module")
def oracle():
    return build_golden_db()


@pytest.fixture(scope="module")
def sharded():
    """One sharded golden database per (num_shards, policy) cell."""
    dbs = {
        (n, policy): build_sharded_golden_db(n, policy)
        for n, policy in GRID
    }
    yield dbs
    for db in dbs.values():
        db.close()


@pytest.fixture(scope="module")
def psm_pair():
    """The golden PSM database and its one-shard twins, both policies."""
    sharded = []
    for policy in POLICIES:
        db = ShardedDatabase(
            num_shards=1, policy=policy, omega=8, features=4,
            buffer_fraction=0.1,
        )
        db.insert(0, make_walk(900, seed=21))
        db.insert(1, make_walk(700, seed=22))
        db.build(psm=True)
        sharded.append(db)
    yield build_golden_psm_db(), sharded
    for db in sharded:
        db.close()


def _num_io_adds_up(result):
    assert not isinstance(result, PartialResult)
    assert result.shard_stats
    assert result.stats.page_accesses == sum(
        stats.page_accesses for stats in result.shard_stats.values()
    )
    assert result.stats.candidates == sum(
        stats.candidates for stats in result.shard_stats.values()
    )


class TestGoldenDifferential:
    """Every golden engine config, every shard count, every policy."""

    @pytest.mark.parametrize("label", ENGINE_LABELS)
    @pytest.mark.parametrize("num_shards,policy", GRID)
    def test_byte_identical_topk(
        self, oracle, sharded, label, num_shards, policy
    ):
        method, deferred = _method_of(label)
        query = query_from(oracle, 640, 48)
        sdb = sharded[(num_shards, policy)]
        sdb.reset_cache()
        result = sdb.search(
            query, k=5, rho=2, method=method, deferred=deferred
        )
        # Bit-identical distances and the pinned tie-breaking order.
        assert [repr(m.distance) for m in result.matches] == GOLDEN_DISTANCES
        assert [(m.sid, m.start) for m in result.matches] == GOLDEN_MATCHES
        oracle.reset_cache()
        gold = oracle.search(
            query, k=5, rho=2, method=method, deferred=deferred
        )
        assert result.matches == gold.matches
        _num_io_adds_up(result)

    @pytest.mark.parametrize("num_shards,policy", GRID)
    def test_range_search_identical(self, oracle, sharded, num_shards, policy):
        query = query_from(oracle, 640, 48)
        sdb = sharded[(num_shards, policy)]
        sdb.reset_cache()
        result = sdb.range_search(query, epsilon=2.5, rho=2)
        oracle.reset_cache()
        gold = oracle.range_search(query, epsilon=2.5, rho=2)
        assert result.matches == gold.matches
        assert [repr(m.distance) for m in result.matches] == GOLDEN_DISTANCES
        _num_io_adds_up(result)

    @pytest.mark.parametrize("num_shards,policy", GRID)
    def test_stream_identical_and_nondecreasing(
        self, oracle, sharded, num_shards, policy
    ):
        query = query_from(oracle, 640, 48)
        sdb = sharded[(num_shards, policy)]
        sdb.reset_cache()
        stream = sdb.iter_matches(query, k=5, rho=2)
        got = list(stream)
        oracle.reset_cache()
        gold_stream = oracle.iter_matches(query, k=5, rho=2)
        want = list(gold_stream)
        gold_stream.close()
        assert got == want
        keys = [(m.distance, m.sid, m.start) for m in got]
        assert keys == sorted(keys)
        assert stream.stats is not None
        assert stream.stats.page_accesses == sum(
            stats.page_accesses for stats in stream.shard_stats.values()
        )
        assert math.isinf(stream.certificate)

    @pytest.mark.parametrize("label", ENGINE_LABELS)
    def test_single_shard_matches_golden_counters(self, sharded, label):
        """N=1 is bit-identical to the unsharded database — NUM_IO too."""
        method, deferred = _method_of(label)
        for policy in POLICIES:
            sdb = sharded[(1, policy)]
            query = sdb.shards[0].store.peek_subsequence(0, 640, 48).copy()
            sdb.reset_cache()
            result = sdb.search(
                query, k=5, rho=2, method=method, deferred=deferred
            )
            expected = GOLDEN_COUNTERS[label]
            got = {
                key: getattr(result.stats, key) for key in GOLDEN_STAT_KEYS
            }
            want = {key: expected.get(key, 0) for key in GOLDEN_STAT_KEYS}
            assert got == want, f"{label}/{policy}: N=1 counters drifted"

    @pytest.mark.parametrize("label,kind", ONE_SOURCE_CASES)
    def test_single_shard_is_the_unsharded_run(
        self, oracle, sharded, psm_pair, monkeypatch, label, kind
    ):
        """N=1 and the unsharded database run one driver over one source:
        the same matches, the same result type and certificate, the same
        ``shard_stats`` keys and every counter but the wall time equal,
        ``checkpoints`` included.  ``capped-knn`` caps pages at half of
        the uncapped run's; ``lost`` fails the source's
        ``store.length`` from its eleventh call, under ``degrade``."""
        if label == "psm":
            gold_db, dbs = psm_pair
            query = query_from(gold_db, 200, 32)
            spec = QuerySpec.for_query(query, rho=1, k=3, method="psm")
        else:
            gold_db, dbs = oracle, [sharded[(1, p)] for p in POLICIES]
            query = query_from(oracle, 640, 48)
            if label == "range":
                fields = {"kind": "range", "epsilon": 6.0}
            else:
                method, deferred = _method_of(label)
                fields = {
                    "kind": "stream" if kind == "stream" else "knn",
                    "method": method,
                    "deferred": deferred,
                }
            spec = QuerySpec.for_query(
                query,
                rho=2,
                k=5,
                on_fault="degrade" if kind == "lost" else "raise",
                **fields,
            )
        cap = None
        if kind == "capped-knn":
            gold_db.reset_cache()
            full = gold_db.run_query(query, spec, ExecutionControl())
            cap = QueryBudget(max_page_accesses=full.stats.page_accesses // 2)

        def run(db):
            db.reset_cache()
            if kind == "lost":
                store = (db if db is gold_db else db.shards[0]).index.store
                real_length = store.length
                calls = []

                def failing_length(sid):
                    calls.append(sid)
                    if len(calls) > 10:
                        raise StorageError("the store went away")
                    return real_length(sid)

                monkeypatch.setattr(store, "length", failing_length)
            control = ExecutionControl(budget=cap)
            if kind == "stream":
                stream = db.open_stream(query, spec, control)
                list(stream)
                return stream.result
            try:
                return db.run_query(query, spec, control)
            finally:
                monkeypatch.undo()

        def counters(stats):
            fields = stats.as_dict()
            del fields["wall_time_s"]
            return fields

        gold = run(gold_db)
        assert isinstance(gold, PartialResult) == (
            kind in ("capped-knn", "lost")
        )
        for db in dbs:
            got = run(db)
            assert got.matches == gold.matches
            assert type(got) is type(gold)
            assert getattr(got, "certificate", None) == getattr(
                gold, "certificate", None
            )
            assert getattr(got, "reason", None) == getattr(
                gold, "reason", None
            )
            assert counters(got.stats) == counters(gold.stats), db.policy
            assert list(got.shard_stats) == list(gold.shard_stats) == [0]
            assert counters(got.shard_stats[0]) == counters(
                gold.shard_stats[0]
            )


class TestRankedUnionAgainstBruteForce:
    """The one-union fan-out of ``ru`` / ``ru-cost``, deferred or not,
    batch and stream, returns the brute-force top-k, raw and z-normalized,
    at N in {1, 3} under both policies."""

    @pytest.fixture(scope="class")
    def truth(self, oracle):
        query = query_from(oracle, 640, 48)
        return query, {
            normalize: brute_force_topk(
                oracle.store, query, k=5, rho=2, normalize=normalize
            )
            for normalize in (False, True)
        }

    @staticmethod
    def _assert_brute_force(matches, gold):
        assert [(m.sid, m.start) for m in matches] == [
            (m.sid, m.start) for m in gold
        ]
        for got, want in zip(matches, gold):
            assert math.isclose(
                got.distance, want.distance, rel_tol=1e-9, abs_tol=1e-9
            )

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "znorm"])
    @pytest.mark.parametrize(
        "num_shards,policy", [(n, p) for n in (1, 3) for p in POLICIES]
    )
    def test_knn_and_stream(
        self, sharded, truth, num_shards, policy, normalize
    ):
        query, gold = truth
        sdb = sharded[(num_shards, policy)]
        for method in ("ru", "ru-cost"):
            for deferred in (False, True):
                sdb.reset_cache()
                result = sdb.search(
                    query, k=5, rho=2, method=method, deferred=deferred,
                    normalize=normalize,
                )
                self._assert_brute_force(result.matches, gold[normalize])
                _num_io_adds_up(result)
            stream = sdb.iter_matches(
                query, k=5, rho=2, method=method, normalize=normalize
            )
            self._assert_brute_force(list(stream), gold[normalize])
            assert math.isinf(stream.certificate)


class TestShardLoss:
    """A shard failing wholesale follows ``on_fault`` on every entry."""

    @pytest.fixture()
    def wounded(self):
        # "range" places the two golden sequences on different shards;
        # the query is cut from sequence 0, so lose the other one.
        sdb = build_sharded_golden_db(2, "range")
        victim = sdb.plan.assignment[1]
        sdb.inject_shard_failure(victim)
        yield sdb, victim
        sdb.close()

    def _run(self, sdb, kind, query, **kwargs):
        if kind == "knn":
            return sdb.search(query, k=5, rho=2, **kwargs)
        if kind == "range":
            return sdb.range_search(query, epsilon=2.5, rho=2, **kwargs)
        stream = sdb.iter_matches(query, k=5, rho=2, **kwargs)
        matches = list(stream)
        assert stream.interrupted == isinstance(stream.result, PartialResult)
        assert stream.certificate == getattr(
            stream.result, "certificate", math.inf
        )
        assert stream.result.matches == matches
        return stream.result

    @pytest.mark.parametrize("kind", ["knn", "range", "stream"])
    def test_raise_policy_propagates(self, oracle, wounded, kind):
        sdb, _victim = wounded
        with pytest.raises(StorageError):
            self._run(sdb, kind, query_from(oracle, 640, 48))

    @pytest.mark.parametrize("kind", ["knn", "range", "stream"])
    def test_degrade_policy_drops_the_shard(self, oracle, wounded, kind):
        sdb, victim = wounded
        query = query_from(oracle, 640, 48)
        result = self._run(sdb, kind, query, on_fault="degrade")
        assert isinstance(result, PartialResult)
        assert result.certificate == 0.0
        assert result.reason == REASON_SHARD_LOST
        assert result.degraded
        assert [e.error for e in result.fault_report.events] == ["ShardLost"]
        assert victim not in result.shard_stats
        survivors = {
            sid for sid, shard in sdb.plan.assignment.items()
            if shard != victim
        }
        assert result.matches
        assert {m.sid for m in result.matches} <= survivors
        sdb.heal_shard(victim)
        healed = self._run(sdb, kind, query, on_fault="degrade")
        assert not isinstance(healed, PartialResult)
        assert victim in healed.shard_stats


class TestPsmDifferential:
    @pytest.mark.parametrize("num_shards,policy", GRID)
    def test_psm_byte_identical(self, num_shards, policy):
        oracle = build_golden_psm_db()
        sdb = ShardedDatabase(
            num_shards=num_shards,
            policy=policy,
            omega=8,
            features=4,
            buffer_fraction=0.1,
        )
        sdb.insert(0, make_walk(900, seed=21))
        sdb.insert(1, make_walk(700, seed=22))
        sdb.build(psm=True)
        try:
            query = query_from(oracle, 200, 32)
            result = sdb.search(query, k=3, rho=1, method="psm")
            gold = oracle.search(query, k=3, rho=1, method="psm")
            assert result.matches == gold.matches
            assert [
                repr(m.distance) for m in result.matches
            ] == GOLDEN_PSM_DISTANCES
            assert [
                (m.sid, m.start) for m in result.matches
            ] == GOLDEN_PSM_MATCHES
            _num_io_adds_up(result)
        finally:
            sdb.close()


class TestTieBreakRegression:
    """Duplicated sequences force exact cross-shard distance ties.

    With distance-only tie-breaking the merged order depended on which
    shard answered first; the pinned total order (distance, sid, start)
    makes sharded and unsharded answers identical even when every
    distance appears twice.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("num_shards", (2, 3))
    def test_duplicated_sequences(self, policy, num_shards):
        from repro import SubsequenceDatabase

        walk = make_walk(1200, seed=33)
        oracle = SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.1
        )
        sdb = ShardedDatabase(
            num_shards=num_shards,
            policy=policy,
            omega=16,
            features=4,
            buffer_fraction=0.1,
        )
        for db in (oracle, sdb):
            db.insert(0, walk)
            db.insert(1, walk)  # exact duplicate: every distance ties
        oracle.build()
        sdb.build()
        try:
            # Only meaningful when the duplicates live on *different*
            # shards — otherwise the tie never crosses the merge.
            assignment = sdb.plan.assignment
            if num_shards > 1 and policy == "range":
                assert assignment[0] != assignment[1]
            query = oracle.store.peek_subsequence(0, 500, 48).copy()
            for method in ("seqscan", "hlmj", "ru", "ru-cost"):
                gold = oracle.search(query, k=6, rho=2, method=method)
                got = sdb.search(query, k=6, rho=2, method=method)
                assert got.matches == gold.matches, method
                # The duplicate pair straddles sids: ties resolve to
                # the lower sid first under the total order.
                by_key = [(m.distance, m.sid) for m in gold.matches]
                assert by_key == sorted(by_key)
        finally:
            sdb.close()


class TestTopology:
    def test_more_shards_than_sequences(self, sharded):
        sdb = sharded[(7, "hash")]
        assert len(sdb.shards) <= 2  # only 2 sequences exist
        assert sdb.plan.empty_shards  # surplus shards stay empty

    def test_hash_routing_is_process_independent(self):
        # Pinned values: hash_shard must never pick up Python's salted
        # builtin hash (PYTHONHASHSEED would break cross-process plans).
        assert [hash_shard(sid, 4) for sid in range(8)] == [
            0, 2, 0, 1, 1, 0, 2, 3,
        ]

    def test_range_policy_keeps_adjacent_ids_together(self):
        plan = ShardPlanner(num_shards=2, policy="range").plan(
            [5, 1, 9, 3, 7, 11]
        )
        assert plan.members(0) == [1, 3, 5]
        assert plan.members(1) == [7, 9, 11]

    def test_duplicate_sids_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlanner(num_shards=2).plan([1, 2, 1])


class TestPersistenceAndExecutors:
    def test_save_load_round_trip(self, oracle, tmp_path):
        sdb = build_sharded_golden_db(3, "hash")
        query = query_from(oracle, 640, 48)
        gold = sdb.search(query, k=5, rho=2, method="ru").matches
        root = tmp_path / "sharded"
        sdb.save(str(root))
        sdb.close()
        with ShardedDatabase.load(str(root)) as reloaded:
            assert reloaded.plan.policy == "hash"
            assert reloaded.plan.num_shards == 3
            result = reloaded.search(query, k=5, rho=2, method="ru")
            assert result.matches == gold
            _num_io_adds_up(result)

    @pytest.mark.parametrize(
        "key,name",
        [
            ("1", "../elsewhere"),
            ("1", "{absolute}"),
            ("7", "shard-0007"),
        ],
    )
    def test_load_rejects_directory_names_it_did_not_write(
        self, oracle, tmp_path, key, name
    ):
        # Every named directory exists and holds shard 1, so only the
        # check on the name itself can refuse it.
        root = tmp_path / "sharded"
        with build_sharded_golden_db(2, "range") as sdb:
            sdb.save(root)
            sdb.shards[1].save(tmp_path / "elsewhere")
            sdb.shards[1].save(root / "shard-0007")
        manifest_path = root / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["shard_dirs"] == {"0": "shard-0000", "1": "shard-0001"}
        del manifest["shard_dirs"]["1"]
        manifest["shard_dirs"][key] = name.format(
            absolute=tmp_path / "elsewhere"
        )
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError, match="expected 'shard-"):
            ShardedDatabase.load(root)

    def test_failed_commit_leaves_previous_root_loadable(
        self, oracle, tmp_path, monkeypatch
    ):
        query = query_from(oracle, 640, 48)
        root = tmp_path / "sharded"
        real_rename = pathlib.Path.rename

        def rename(self, target):
            # Every shard directory commits; the root's own temp
            # directory then fails to land after the previous root has
            # already been moved aside.
            if self.name.startswith(".sharded.tmp-"):
                raise OSError("disk went away mid-commit")
            return real_rename(self, target)

        with build_sharded_golden_db(2, "hash") as sdb:
            gold = sdb.search(query, k=5, rho=2, method="ru").matches
            sdb.save(root)
            monkeypatch.setattr(pathlib.Path, "rename", rename)
            with pytest.raises(OSError, match="mid-commit"):
                sdb.save(root)
            monkeypatch.undo()
        assert [entry.name for entry in tmp_path.iterdir()] == ["sharded"]
        with ShardedDatabase.load(root) as reloaded:
            result = reloaded.search(query, k=5, rho=2, method="ru")
            assert result.matches == gold

    def test_both_savers_refuse_a_directory_that_is_not_theirs(
        self, oracle, tmp_path
    ):
        foreign = tmp_path / "precious"
        foreign.mkdir()
        (foreign / "thesis.tex").write_text("years of work")
        with build_sharded_golden_db(2, "hash") as sdb:
            for saver in (oracle, sdb):
                with pytest.raises(ConfigurationError, match="refusing"):
                    saver.save(foreign)
            assert (foreign / "thesis.tex").read_text() == "years of work"
            # Nor does either overwrite the other kind of database.
            oracle.save(tmp_path / "single")
            sdb.save(tmp_path / "sharded")
            with pytest.raises(ConfigurationError, match="SHARDS"):
                sdb.save(tmp_path / "single")
            with pytest.raises(ConfigurationError, match="MANIFEST"):
                oracle.save(tmp_path / "sharded")

    def test_only_the_thread_executor_is_accepted(self):
        for removed in ("serial", "process"):
            with pytest.raises(ConfigurationError, match="were removed"):
                ShardedDatabase(num_shards=2, executor=removed)
        with ShardedDatabase(num_shards=2, executor="thread", omega=16) as sdb:
            sdb.insert(0, make_walk(600, seed=5))
            sdb.build()
            assert sdb.describe()["sequences"] == 1
        parameters = inspect.signature(ShardedDatabase.load).parameters
        assert "executor" not in parameters

    def test_thread_executor_identical(self, oracle):
        query = query_from(oracle, 640, 48)
        with build_sharded_golden_db(3, "hash") as sdb:
            for method in ("ru", "ru-cost", "hlmj"):
                gold = oracle.search(query, k=5, rho=2, method=method)
                got = sdb.search(query, k=5, rho=2, method=method)
                assert got.matches == gold.matches


class TestMergeOfShardTopKs:
    """``merge_search_results(outcomes, k=k)``, the call the end-to-end
    bench times on a captured sharded answer."""

    @staticmethod
    def _outcomes():
        def answer(pages, *matches):
            return SearchResult(
                matches=[
                    Match(distance=d, sid=sid, start=start, length=8)
                    for d, sid, start in matches
                ],
                stats=QueryStats(page_accesses=pages, candidates=2 * pages),
            )

        return [
            (0, answer(3, (1.0, 3, 5), (2.0, 1, 0), (4.0, 0, 9))),
            (1, answer(5, (1.0, 3, 2), (2.0, 0, 7), (3.0, 2, 0))),
        ]

    def test_keeps_the_k_best_under_distance_sid_start(self):
        outcomes = self._outcomes()
        merged = merge_search_results(outcomes, k=3)
        assert not isinstance(merged, PartialResult)
        # Equal distances fall to sid, then start; k = 3 cuts the tie
        # at 2.0 between sid 0 and sid 1.
        assert [(m.distance, m.sid, m.start) for m in merged.matches] == [
            (1.0, 3, 2), (1.0, 3, 5), (2.0, 0, 7),
        ]
        assert merged.stats.page_accesses == 8
        assert merged.stats.candidates == 16
        assert merged.shard_stats == {
            shard: outcome.stats for shard, outcome in outcomes
        }

    def test_a_lost_shard_certifies_nothing(self):
        merged = merge_search_results(
            self._outcomes(), k=3, lost=[LostShard(shard=2, detail="gone")]
        )
        assert isinstance(merged, PartialResult)
        assert merged.certificate == 0.0
        assert merged.reason == REASON_SHARD_LOST
        assert merged.degraded
        assert len(merged.matches) == 3
