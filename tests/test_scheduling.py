"""Unit tests for queue selection: each ``Φ``'s ``_select`` is
:func:`repro.engines.ranked_union.max_delta` (RU) or
:meth:`repro.engines.cost_density.CostAwareDensityScheduler.select`
(RU-COST)."""

import hashlib
import math

import pytest

from repro.core.metrics import QueryStats
from repro.core.windows import QueryWindowSet
from repro.engines.base import QuerySpec
from repro.engines.bounds import NodeGrid
from repro.engines.cost_density import STICKY_POPS, CostAwareDensityScheduler
from repro.engines.queues import WindowQueue
from repro.engines.ranked_union import PhiOperator, max_delta
from repro.exceptions import ConfigurationError
from tests.conftest import query_from
from tests.test_operators import make_phi


class FakeQueue:
    """Minimal stand-in exposing what max-delta consumes."""

    def __init__(self, top):
        self._top = top
        self.reference_top_pow = 0.0
        self.is_empty = False

    def top_pow(self):
        return self._top


class TestMaxDelta:
    def test_picks_largest_growth(self):
        queues = [FakeQueue(1.0), FakeQueue(5.0), FakeQueue(2.0)]
        queues[1].reference_top_pow = 0.0
        queues[2].reference_top_pow = 1.9
        assert max_delta(queues) is queues[1]

    def test_after_pop_resets_reference(self, walk_db):
        # A pop leaves the popped queue's reference at its new top.
        query = walk_db.store.peek_subsequence(0, 100, 48).copy()
        phi, _evaluator, _window_set = make_phi(walk_db, query)
        queue = phi.queues[0]
        queue.reference_top_pow = -1.0
        phi._pop(queue)
        assert queue.reference_top_pow == queue.top_pow()

    def test_ties_pick_first(self):
        queues = [FakeQueue(1.0), FakeQueue(1.0)]
        assert max_delta(queues) is queues[0]


def selector(db, method):
    query = db.store.peek_subsequence(0, 100, 48).copy()
    phi, _evaluator, _window_set = make_phi(db, query, method=method)
    return phi._select


class TestFactory:
    """The method names the selector each ``Φ`` builds."""

    def test_simple_names(self, walk_db):
        assert selector(walk_db, "ru") is max_delta

    def test_unknown_name(self):
        # No selector for a name outside ranked union: the spec refuses
        # it, for a knn query and a stream alike.
        with pytest.raises(ConfigurationError):
            QuerySpec(rho=2, method="mystery")
        with pytest.raises(ConfigurationError):
            QuerySpec(rho=2, kind="stream", method="mystery")

    def test_cost_aware_construction(self, walk_db):
        select = selector(walk_db, "ru-cost")
        assert isinstance(select.__self__, CostAwareDensityScheduler)
        assert select.__func__ is CostAwareDensityScheduler.select


class TestStickiness:
    def test_sticky_reuses_selection(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 100, 48).copy()
        window_set = QueryWindowSet.from_query(
            query, omega=16, features=4, rho=2
        )
        grid = NodeGrid(
            window_set.windows, walk_db.index, 2.0, QueryStats(),
            include_far=True,
        )
        queues = [
            WindowQueue(grid.probe(window))
            for window in window_set.classes[0]
        ]
        scheduler = CostAwareDensityScheduler(
            store=walk_db.store,
            query_length=48,
            omega=16,
            blocking_factor=walk_db.index.tree.blocking_factor,
            p=2.0,
            cap_for=lambda _queue: math.inf,
            pages_seen={},
        )
        calls = {"count": 0}

        def densest(live):
            calls["count"] += 1
            return live[0]

        scheduler._densest = densest
        picks = [scheduler.select(queues) for _ in range(2 * STICKY_POPS)]
        assert all(pick is queues[0] for pick in picks)
        assert calls["count"] == 2  # re-evaluated every STICKY_POPS pops


#: SHA-256 prefix of every pop's ``(class_index, queue position,
#: dist_pow)``, in pop order, and the number of pops, for the golden
#: query (``golden_db``, sid 0 at 640, 48 points, k = 5).  Captured
#: before the selectors moved onto ``PhiOperator``; a moved digest means
#: a queue pick changed.
PICK_DIGESTS = {
    ("ru", "immediate", "raw"): (273, "a0bcda044b6f68aa"),
    ("ru", "immediate", "znorm"): (1191, "e927db468e944001"),
    ("ru", "deferred", "raw"): (273, "a0bcda044b6f68aa"),
    ("ru", "deferred", "znorm"): (1191, "e927db468e944001"),
    ("ru-cost", "immediate", "raw"): (255, "08c25beefccdefa4"),
    ("ru-cost", "immediate", "znorm"): (1218, "2242e9c41bd9fab9"),
    ("ru-cost", "deferred", "raw"): (252, "e73f61c4859edb65"),
    ("ru-cost", "deferred", "znorm"): (1210, "c4b429dee4b4a398"),
}


class TestPickDigest:
    """Every queue pick, not only the counters it adds up to, is pinned."""

    @pytest.mark.parametrize("cell", sorted(PICK_DIGESTS), ids="-".join)
    def test_picks_are_pinned(self, golden_db, monkeypatch, cell):
        method, timing, values = cell
        picks = []
        pop = PhiOperator._pop

        def spy(phi, queue):
            position = next(
                index
                for index, candidate in enumerate(phi.queues)
                if candidate is queue
            )
            picks.append((phi.class_index, position, queue.top_pow()))
            pop(phi, queue)

        monkeypatch.setattr(PhiOperator, "_pop", spy)
        golden_db.reset_cache()
        golden_db.search(
            query_from(golden_db, 640, 48),
            k=5,
            rho=2,
            method=method,
            deferred=timing == "deferred",
            normalize=values == "znorm",
        )
        digest = hashlib.sha256(repr(picks).encode()).hexdigest()[:16]
        assert (len(picks), digest) == PICK_DIGESTS[cell]
