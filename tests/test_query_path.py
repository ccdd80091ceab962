"""One query path: every entry answers the same spec the same way.

A query is described once — a :class:`~repro.engines.base.QuerySpec`
plus an :class:`~repro.control.ExecutionControl` — and handed unchanged
from the API/protocol edge to the engines.  This module builds each
spec kind once and pushes it through every entry that accepts it: the
keyword methods and the spec entry of :class:`SubsequenceDatabase`,
:class:`ShardedDatabase` for N in {1, 3}, and :class:`QueryService`
for what the wire carries.  Matches must be
identical everywhere; with one shard the NUM_IO counters must be too.

Both facades inherit the keyword API, ``search_scaled`` and the
lifecycle from :class:`~repro.api.QueryFacade`; the last tests pin that
there is one definition and one ``close()`` contract.
"""

import inspect
import pickle

import pytest

from repro import (
    ExecutionControl,
    QueryBudget,
    QueryService,
    QuerySpec,
    ShardedDatabase,
    SubsequenceDatabase,
)
from repro.engines.base import PartialResult, default_rho
from repro.exceptions import ConfigurationError, QueryError, UsageError
from tests.conftest import make_walk

#: (kind, the keyword arguments that select it) — built once per case.
KINDS = {
    "knn-ru-cost": ("knn", {"k": 5, "method": "ru-cost"}),
    "knn-hlmj": ("knn", {"k": 5, "method": "hlmj"}),
    "knn-seqscan": ("knn", {"k": 5, "method": "seqscan"}),
    "range": ("range", {"epsilon": 4.0}),
    "stream": ("stream", {"k": 5}),
}
CASES = [
    (label, normalize) for label in KINDS for normalize in (False, True)
]
LENGTHS = (1500, 1300, 1100, 900)
RHO = 2


def _fill(db):
    for sid, length in enumerate(LENGTHS):
        db.insert(sid, make_walk(length, seed=40 + sid))
    db.build()
    return db


@pytest.fixture(scope="module")
def world():
    oracle = _fill(
        SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    )
    sharded = {
        n: _fill(
            ShardedDatabase(
                num_shards=n, omega=16, features=4, buffer_fraction=0.1
            )
        )
        for n in (1, 3)
    }
    query = oracle.store.peek_subsequence(0, 640, 48).copy()
    yield oracle, sharded, query
    for sdb in sharded.values():
        sdb.close()


def _by_keywords(db, kind, query, kwargs, normalize):
    db.reset_cache()
    if kind == "knn":
        return db.search(query, rho=RHO, normalize=normalize, **kwargs)
    if kind == "range":
        return db.range_search(query, rho=RHO, normalize=normalize, **kwargs)
    stream = db.iter_matches(query, rho=RHO, normalize=normalize, **kwargs)
    emitted = list(stream)
    assert stream.result.matches == emitted
    return stream.result


def _by_spec(db, query, spec):
    db.reset_cache()
    if spec.kind != "stream":
        return db.run_query(query, spec, ExecutionControl())
    stream = db.open_stream(query, spec, ExecutionControl())
    list(stream)
    return stream.result


_SUMMED = ("page_accesses", "candidates", "node_scorings")


def _counters(result):
    return tuple(getattr(result.stats, key) for key in _SUMMED)


def _shard_sums(result):
    parts = result.shard_stats.values()
    return tuple(
        sum(getattr(stats, key) for stats in parts) for key in _SUMMED
    )


@pytest.mark.parametrize("label,normalize", CASES)
def test_every_entry_agrees(world, label, normalize):
    oracle, sharded, query = world
    kind, kwargs = KINDS[label]
    spec = QuerySpec.for_query(
        query, RHO, kind=kind, p=oracle.p, normalize=normalize, **kwargs
    )
    assert pickle.loads(pickle.dumps(spec)) == spec

    gold = _by_keywords(oracle, kind, query, kwargs, normalize)
    assert gold.matches
    assert gold.shard_stats == {0: gold.stats}
    assert pickle.loads(pickle.dumps(gold)) == gold

    # The keyword methods are shims over the spec entry.
    direct = _by_spec(oracle, query, spec)
    assert direct.matches == gold.matches
    assert _counters(direct) == _counters(gold)

    for n, sdb in sharded.items():
        for got in (
            _by_keywords(sdb, kind, query, kwargs, normalize),
            _by_spec(sdb, query, spec),
        ):
            assert got.matches == gold.matches
            assert got.shard_stats and _shard_sums(got) == _counters(got)
            assert pickle.loads(pickle.dumps(got)) == got
            if n == 1:
                assert _counters(got) == _counters(gold)

    if not normalize:  # the wire has no normalize field
        request = {"kind": kind, "query": list(query), "rho": RHO, **kwargs}
        with QueryService(oracle) as service:
            oracle.reset_cache()
            served = service.query(request, timeout=30.0).result
            assert served.matches == gold.matches
            assert _counters(served) == _counters(gold)
        with QueryService(sharded[3]) as service:
            served = service.query(request, timeout=30.0).result
            assert served.matches == gold.matches


def test_default_rho_is_resolved_once_at_the_edge(world):
    oracle, sharded, query = world
    spec = QuerySpec.for_query(query, k=3)
    assert spec.rho == default_rho(len(query)) == 2
    assert default_rho(10) == 1  # never below one
    explicit = oracle.search(query, k=3, rho=spec.rho)
    for db in (oracle, sharded[3]):
        assert db.search(query, k=3).matches == explicit.matches
        ranged = db.range_search(query, epsilon=4.0)
        assert ranged.matches == db.range_search(
            query, epsilon=4.0, rho=spec.rho
        ).matches
        assert list(db.iter_matches(query, k=3)) == explicit.matches


@pytest.mark.parametrize("method", ["ru", "ru-cost"])
def test_a_stream_emits_the_search_of_its_method(world, method):
    """``method`` names one ranked-union engine for ``knn`` and
    ``stream`` alike, unsharded and sharded."""
    oracle, sharded, query = world
    for db in (oracle, sharded[3]):
        want = db.search(query, k=5, rho=RHO, method=method).matches
        stream = db.iter_matches(query, k=5, rho=RHO, method=method)
        assert list(stream) == want


@pytest.mark.parametrize(
    "call,fields,error",
    [
        ("search", {"k": 0}, ConfigurationError),
        ("search", {"rho": -1}, ConfigurationError),
        ("search", {"method": "nope"}, ConfigurationError),
        ("search", {"on_fault": "explode"}, ConfigurationError),
        ("range_search", {"epsilon": -1.0}, QueryError),
        ("range_search", {"epsilon": 1.0, "on_fault": "x"},
         ConfigurationError),
        ("iter_matches", {"method": "nope"}, ConfigurationError),
        ("iter_matches", {"k": 0}, ConfigurationError),
        # A stream runs only a ranked-union method.
        ("iter_matches", {"method": "hlmj"}, ConfigurationError),
    ],
)
def test_validation_lives_in_the_spec(world, call, fields, error):
    oracle, sharded, query = world
    kind = {"search": "knn", "range_search": "range",
            "iter_matches": "stream"}[call]
    with pytest.raises(error):
        QuerySpec.for_query(query, kind=kind, **fields)
    for db in (oracle, sharded[3]):
        with pytest.raises(error):
            getattr(db, call)(query, **fields)


def test_partial_results_survive_pickling(world):
    oracle, _sharded, query = world
    oracle.reset_cache()
    partial = oracle.search(
        query, k=5, rho=RHO, method="hlmj",
        budget=QueryBudget(max_page_accesses=3),
    )
    assert isinstance(partial, PartialResult)
    clone = pickle.loads(pickle.dumps(partial))
    assert clone == partial
    assert (clone.reason, clone.certificate) == (
        partial.reason, partial.certificate
    )


#: The keyword signatures as they were when each facade had its own copy.
KEYWORD_SIGNATURES = {
    "search": (
        "(self, query: 'Sequence[float]', k: 'int' = 10, "
        "rho: 'Optional[int]' = None, method: 'str' = 'ru-cost', "
        "deferred: 'bool' = False, "
        "on_fault: 'str' = 'raise', budget: 'Optional[QueryBudget]' = None, "
        "deadline: 'Optional[Deadline]' = None, "
        "token: 'Optional[CancellationToken]' = None, "
        "normalize: 'bool' = False)"
    ),
    "range_search": (
        "(self, query: 'Sequence[float]', epsilon: 'float', "
        "rho: 'Optional[int]' = None, on_fault: 'str' = 'raise', "
        "budget: 'Optional[QueryBudget]' = None, "
        "deadline: 'Optional[Deadline]' = None, "
        "token: 'Optional[CancellationToken]' = None, "
        "normalize: 'bool' = False)"
    ),
    "iter_matches": (
        "(self, query: 'Sequence[float]', k: 'int' = 10, "
        "rho: 'Optional[int]' = None, method: 'str' = 'ru-cost', "
        "on_fault: 'str' = 'raise', budget: 'Optional[QueryBudget]' = None, "
        "deadline: 'Optional[Deadline]' = None, "
        "token: 'Optional[CancellationToken]' = None, "
        "normalize: 'bool' = False)"
    ),
}


def test_the_keyword_api_is_defined_once():
    for name in (*KEYWORD_SIGNATURES, "search_scaled"):
        assert getattr(ShardedDatabase, name) is getattr(
            SubsequenceDatabase, name
        )
    for name in (
        *KEYWORD_SIGNATURES, "search_scaled", "tracer", "__enter__", "__exit__"
    ):
        assert name not in vars(ShardedDatabase)
        assert name not in vars(SubsequenceDatabase)
    for name, expected in KEYWORD_SIGNATURES.items():
        signature = inspect.signature(getattr(ShardedDatabase, name))
        assert str(
            signature.replace(return_annotation=inspect.Signature.empty)
        ) == expected


def test_search_scaled_is_inherited_by_the_sharded_facade(world):
    oracle, sharded, query = world
    oracle.reset_cache()
    gold = oracle.search_scaled(query, k=5)
    assert gold.matches
    for n, sdb in sharded.items():
        sdb.reset_cache()
        got = sdb.search_scaled(query, k=5)
        assert got.matches == gold.matches
        if n == 1:
            assert _counters(got) == _counters(gold)


@pytest.mark.parametrize("sharded", [False, True])
def test_close_is_idempotent_and_never_reads_as_unbuilt(sharded):
    db = _fill(
        ShardedDatabase(num_shards=2, omega=16, features=4)
        if sharded
        else SubsequenceDatabase(omega=16, features=4, backend="mmap")
    )
    query = make_walk(LENGTHS[0], seed=40)[640:688]
    with db as entered:
        assert entered is db
        gold = db.search(query, k=3, rho=RHO).matches
    db.close()  # a second close is a no-op
    # The contract of QueryFacade: what can still answer does, what
    # cannot says "used after close()" — not "call build()".
    if sharded:
        for call in (
            lambda: db.search(query, k=3, rho=RHO),
            lambda: db.range_search(query, epsilon=4.0, rho=RHO),
            lambda: db.iter_matches(query, k=3, rho=RHO),
            db.describe,
        ):
            with pytest.raises(UsageError, match=r"used after close\(\)"):
                call()
    else:
        assert db.search(query, k=3, rho=RHO).matches == gold
