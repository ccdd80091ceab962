"""Unit tests for queue-selection strategies (repro.engines.scheduling)."""

import math

import pytest

from repro.core.metrics import QueryStats
from repro.core.windows import QueryWindowSet
from repro.engines.bounds import NodeGrid
from repro.engines.queues import WindowQueue
from repro.engines.scheduling import (
    GlobalMinStrategy,
    MaxDeltaStrategy,
    RoundRobinStrategy,
    make_strategy,
)
from repro.exceptions import ConfigurationError


class FakeQueue:
    """Minimal stand-in exposing what the simple strategies consume."""

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


class TestGlobalMin:
    def test_picks_smallest_top(self):
        queues = [FakeQueue(3.0), FakeQueue(0.5), FakeQueue(2.0)]
        assert GlobalMinStrategy().select(queues) is queues[1]


class TestRoundRobin:
    def test_cycles(self):
        queues = [FakeQueue(1.0), FakeQueue(2.0)]
        strategy = RoundRobinStrategy()
        picks = [strategy.select(queues) for _ in range(4)]
        assert picks == [queues[0], queues[1], queues[0], queues[1]]


class TestFactory:
    def test_simple_names(self):
        assert make_strategy("max-delta").name == "max-delta"
        assert make_strategy("global-min").name == "global-min"
        assert make_strategy("round-robin").name == "round-robin"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_strategy("mystery")

    def test_cost_aware_needs_context(self):
        with pytest.raises(ConfigurationError):
            make_strategy("cost-aware")

    def test_cost_aware_construction(self, walk_db):
        strategy = make_strategy(
            "cost-aware",
            store=walk_db.store,
            query_length=48,
            omega=16,
            blocking_factor=8,
            cap_for=lambda _q: math.inf,
        )
        assert strategy.name == "cost-aware"


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

        from repro.engines.scheduling import CostAwareStrategy

        strategy = CostAwareStrategy(CountingScheduler(), sticky_pops=3)
        picks = [strategy.select(queues) for _ in range(6)]
        assert all(pick is queues[0] for pick in picks)
        assert calls["count"] == 2  # re-evaluated every 3 pops
