"""Unit tests for queue selection (repro.engines.scheduling)."""

import pytest

from repro.core.metrics import QueryStats
from repro.core.windows import QueryWindowSet
from repro.engines.base import QuerySpec
from repro.engines.bounds import NodeGrid
from repro.engines.cost_density import STICKY_POPS
from repro.engines.queues import WindowQueue
from repro.engines.ranked_union import RankedUnionEngine
from repro.engines.scheduling import CostAwareStrategy, MaxDeltaStrategy
from repro.exceptions import ConfigurationError
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
        strategy = MaxDeltaStrategy()
        assert strategy.select(queues) is queues[1]

    def test_after_pop_resets_reference(self):
        queue = FakeQueue(5.0)
        strategy = MaxDeltaStrategy()
        strategy.after_pop(queue)
        assert queue.reference_top_pow == 5.0

    def test_ties_pick_first(self):
        queues = [FakeQueue(1.0), FakeQueue(1.0)]
        assert MaxDeltaStrategy().select(queues) is queues[0]


def selector(db, method):
    query = db.store.peek_subsequence(0, 100, 48).copy()
    phi, _evaluator, _window_set = make_phi(db, query, method=method)
    return phi._strategy


class TestFactory:
    """The method names the selector each ``Φ`` builds."""

    def test_simple_names(self, walk_db):
        assert isinstance(selector(walk_db, "ru"), MaxDeltaStrategy)

    def test_unknown_name(self, walk_db):
        # No selector for a name outside ranked union: the engine and
        # the stream spec both refuse it.
        with pytest.raises(ConfigurationError):
            RankedUnionEngine(walk_db.index, method="mystery")
        with pytest.raises(ConfigurationError):
            QuerySpec(rho=2, kind="stream", method="mystery")

    def test_cost_aware_construction(self, walk_db):
        strategy = selector(walk_db, "ru-cost")
        assert isinstance(strategy, CostAwareStrategy)
        assert strategy._sticky_pops == STICKY_POPS


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
        calls = {"count": 0}

        class CountingScheduler:
            def select(self, live):
                calls["count"] += 1
                return live[0]

        strategy = CostAwareStrategy(CountingScheduler(), sticky_pops=3)
        picks = [strategy.select(queues) for _ in range(6)]
        assert all(pick is queues[0] for pick in picks)
        assert calls["count"] == 2  # re-evaluated every 3 pops
