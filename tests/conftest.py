"""Shared fixtures for the test suite.

The session-scoped databases are intentionally small (a few thousand
points) so the full suite runs in well under a minute while still
exercising multi-level R*-trees, buffer eviction, and deferred flushes.
"""

from __future__ import annotations

import numpy as np
import pytest

from typing import Optional

from repro import SubsequenceDatabase
from repro.control import ExecutionControl
from repro.core.reference import brute_force_topk
from repro.engines.base import Engine, QuerySpec, SearchResult, query_window_set
from repro.engines.ranked_union import run_in_turn
from repro.obs import Tracer
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore


def make_walk(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n).cumsum()


def query_from(db: SubsequenceDatabase, start, length, sid=0):
    """The paper-style query: a subsequence peeked from stored data."""
    return db.store.peek_subsequence(sid, start, length).copy()


def build_golden_db(
    tracer: Optional[Tracer] = None,
) -> SubsequenceDatabase:
    """A fresh database matching the golden capture run exactly.

    Deliberately *not* the shared ``walk_db`` fixture: golden counters
    must not depend on what other tests ran first, so callers get a
    database (and cache history) rebuilt from scratch.  The optional
    ``tracer`` lets the trace-conformance suite run the same golden
    workload with the observability plane on.
    """
    db = SubsequenceDatabase(
        omega=16, features=4, buffer_fraction=0.1, tracer=tracer
    )
    db.insert(0, make_walk(3000, seed=11))
    db.insert(1, make_walk(2200, seed=12))
    db.build()
    return db


def build_golden_psm_db(
    tracer: Optional[Tracer] = None,
) -> SubsequenceDatabase:
    """The golden PSM workload's database (see :func:`build_golden_db`)."""
    db = SubsequenceDatabase(
        omega=8, features=4, buffer_fraction=0.1, tracer=tracer
    )
    db.insert(0, make_walk(900, seed=21))
    db.insert(1, make_walk(700, seed=22))
    db.build(psm=True)
    return db


#: Counters a query's own schedule fixes: neither what its buffer pool
#: held when it started nor what other queries read meanwhile may move
#: them (``page_accesses`` may: a warm pool saves physical reads).
SCHEDULE_COUNTERS = (
    "candidates",
    "heap_pops",
    "node_expansions",
    "logical_reads",
    "dtw_computations",
)


def schedule_of(stats) -> dict:
    """The :data:`SCHEDULE_COUNTERS` of one result's stats."""
    return {name: getattr(stats, name) for name in SCHEDULE_COUNTERS}


def build_half_buffered_db() -> SubsequenceDatabase:
    """Many small pages and a pool that holds half of them, so what one
    query leaves buffered covers much of another's candidates."""
    db = SubsequenceDatabase(
        omega=16, features=4, buffer_fraction=0.5, page_size=512
    )
    db.insert(0, make_walk(12000, seed=11))
    db.insert(1, make_walk(8000, seed=12))
    db.build()
    return db


def build_property_db(
    rng: np.random.Generator,
    lengths=(300, 200),
    psm: bool = False,
) -> SubsequenceDatabase:
    """The small seeded database the hypothesis engine tests generate."""
    db = SubsequenceDatabase(omega=8, features=4, buffer_fraction=0.2)
    for sid, n in enumerate(lengths):
        db.insert(sid, rng.standard_normal(n).cumsum())
    db.build(psm=psm)
    return db


@pytest.fixture(scope="module")
def golden_db() -> SubsequenceDatabase:
    return build_golden_db()


@pytest.fixture(scope="module")
def golden_psm_db() -> SubsequenceDatabase:
    return build_golden_psm_db()


@pytest.fixture(scope="session")
def walk_db() -> SubsequenceDatabase:
    """Two random-walk sequences, omega=16, f=4, multi-level tree."""
    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    db.insert(0, make_walk(3000, seed=11))
    db.insert(1, make_walk(2200, seed=12))
    db.build()
    return db


@pytest.fixture(scope="session")
def psm_db() -> SubsequenceDatabase:
    """A smaller database that also carries PSM's sliding index."""
    db = SubsequenceDatabase(omega=8, features=4, buffer_fraction=0.1)
    db.insert(0, make_walk(900, seed=21))
    db.insert(1, make_walk(700, seed=22))
    db.build(psm=True)
    return db


@pytest.fixture()
def fresh_store():
    """An empty pager/buffer/store triple for storage-layer tests."""
    pager = Pager(page_size=512)
    buffer = BufferPool(pager, capacity_pages=4)
    return pager, buffer, SequenceStore(pager, buffer)


def gold_topk(db: SubsequenceDatabase, query, k: int, rho: int):
    """Brute-force distances, rounded for robust comparison."""
    return [
        round(match.distance, 6)
        for match in brute_force_topk(db.store, query, k, rho)
    ]


def run_engine(
    engine: Engine,
    query,
    spec: QuerySpec,
    control: Optional[ExecutionControl] = None,
) -> SearchResult:
    """One query on ``engine`` through the batch driver, its one source."""
    return run_in_turn(
        [(0, engine)],
        spec,
        control if control is not None else ExecutionControl(),
        query_window_set(query, engine.index, spec),
    )


def engine_distances(result) -> list:
    return [round(match.distance, 6) for match in result.matches]
