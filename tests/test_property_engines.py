"""Hypothesis property tests for engine exactness and tree invariants.

Each example builds a small database from generated data and checks
that every engine agrees with brute force — the strongest guard against
subtle pruning bugs in the bounds or the scheduling.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.rstar import LeafRecord, RStarTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager

from tests.conftest import build_property_db, engine_distances, gold_topk

ENGINE_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ENGINE_SETTINGS
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 8),
    rho=st.integers(0, 3),
    deferred=st.booleans(),
    method=st.sampled_from(["hlmj", "ru", "ru-cost"]),
)
def test_index_engines_equal_brute_force(seed, k, rho, deferred, method):
    rng = np.random.default_rng(seed)
    db = build_property_db(rng)
    length = int(rng.integers(15, 40))
    query = rng.standard_normal(length).cumsum()
    gold = gold_topk(db, query, k, rho)
    result = db.search(query, k=k, rho=rho, method=method, deferred=deferred)
    assert engine_distances(result) == pytest.approx(gold, abs=1e-6)


@ENGINE_SETTINGS
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
def test_psm_equals_brute_force(seed, k):
    rng = np.random.default_rng(seed)
    db = build_property_db(rng, lengths=(250,), psm=True)
    query = db.store.peek_subsequence(
        0, int(rng.integers(0, 200)), 17
    ).copy()
    gold = gold_topk(db, query, k, rho=1)
    result = db.search(query, k=k, rho=1, method="psm")
    assert engine_distances(result) == pytest.approx(gold, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(5, 120),
    max_entries=st.integers(4, 12),
    dimensions=st.integers(1, 5),
)
def test_rstar_invariants_under_random_inserts(
    seed, count, max_entries, dimensions
):
    rng = np.random.default_rng(seed)
    pager = Pager(page_size=4096)
    tree = RStarTree(
        pager,
        BufferPool(pager, 8),
        dimensions=dimensions,
        max_entries=max_entries,
    )
    for index in range(count):
        tree.insert(
            rng.standard_normal(dimensions),
            LeafRecord(sid=0, window_index=index),
        )
    tree.check_invariants()
    records = {
        record.window_index
        for leaf in tree.iter_leaves()
        for record in leaf.refs
    }
    assert records == set(range(count))
