"""Unit tests for RU-COST's density machinery (repro.engines.cost_density)."""

import math

import pytest

from repro.engines import cost_density
from repro.engines.cost_density import CostAwareDensityScheduler
from repro.exceptions import ConfigurationError
from tests.conftest import build_half_buffered_db, query_from, schedule_of


class TestConfig:
    def test_paper_defaults(self, walk_db):
        # Definition 7's weights, and h = the index blocking factor.
        assert cost_density.ALPHA == 1.0
        assert cost_density.BETA == 0.0
        assert cost_density.EXPANSIONS_PER_SELECT == 1
        assert cost_density.STICKY_POPS == 12
        blocking_factor = walk_db.index.tree.blocking_factor
        scheduler = CostAwareDensityScheduler(
            store=walk_db.store,
            query_length=48,
            omega=16,
            blocking_factor=blocking_factor,
            p=2.0,
            cap_for=lambda _queue: math.inf,
            pages_seen={},
        )
        assert scheduler._h == blocking_factor


class TestEstimateHthDistance:
    estimate = staticmethod(
        CostAwareDensityScheduler._estimate_hth_distance
    )

    def test_uniform_single_range(self):
        # 10 leaves uniform on [0, 10]: the 5th sits at distance 5.
        assert self.estimate([(0.0, 10.0, 10.0)], 5) == pytest.approx(5.0)

    def test_point_masses(self):
        # 3 leaves exactly at 2.0; h=2 reached at 2.0.
        assert self.estimate([(2.0, 2.0, 3.0)], 2) == pytest.approx(2.0)

    def test_mixture(self):
        ranges = [(0.0, 0.0, 1.0), (1.0, 3.0, 4.0)]
        # 1 point at 0, then uniform density 2/unit on [1,3]; h=3 needs
        # 2 more units of mass -> reached at 2.0.
        assert self.estimate(ranges, 3) == pytest.approx(2.0)

    def test_h_beyond_total_mass_returns_last_endpoint(self):
        assert self.estimate([(0.0, 4.0, 2.0)], 100) == pytest.approx(4.0)

    def test_empty_ranges(self):
        assert self.estimate([], 5) == math.inf

    def test_points_below_the_first_range(self):
        # 4 leaves at 1.0, then 4 uniform on [5, 10]: the 4th leaf sits
        # at 1.0, below where the first range starts.
        ranges = [(1.0, 1.0, 4.0), (5.0, 10.0, 4.0)]
        assert self.estimate(ranges, 4) == pytest.approx(1.0)
        # Two more leaves are 2.5 units into the range (0.8 per unit).
        assert self.estimate(ranges, 6) == pytest.approx(7.5)

    def test_unbounded_range_treated_as_point_mass(self):
        assert self.estimate([(1.5, math.inf, 10.0)], 5) == pytest.approx(
            1.5
        )


class TestDensityKeyOrdering:
    def test_zero_density_ties_break_on_denominator(self):
        # The paper: among zero-density queues pick the smallest
        # denominator.  Keys are (density, denominator) tuples.
        sparse_key = (0.0, 5.0)
        tight_key = (0.0, 1.0)
        assert tight_key < sparse_key

    def test_nonzero_density_dominates(self):
        assert (0.0, 100.0) < (0.5, 0.1)


class TestSchedulerOnRealQueues(object):
    """Exercise density computation through a real RU-COST search."""

    def test_lb_never_exceeds_exact(self, walk_db):
        """Lemma 7, checked empirically on live queues."""
        from repro.core.windows import QueryWindowSet
        from repro.engines.base import CandidateEvaluator, QuerySpec
        from repro.engines.bounds import NodeGrid
        from repro.engines.queues import WindowQueue
        from repro.core.metrics import QueryStats

        query = walk_db.store.peek_subsequence(0, 500, 48).copy()
        window_set = QueryWindowSet.from_query(
            query, omega=16, features=4, rho=2
        )
        stats = QueryStats()
        grid = NodeGrid(
            window_set.windows, walk_db.index, 2.0, stats,
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
            pages_seen=stats.pages_seen,
        )
        # Resolve each queue somewhat, then compare the bound pair.
        for queue in queues:
            for _ in range(3):
                queue.expand_first_node()
        for queue in queues:
            lb = scheduler._lb_cdens(queue, 4)
            exact, _resolved = scheduler._exact_cdens(queue, 4)
            assert lb <= exact

    def test_select_returns_live_queue(self, walk_db):
        from repro.core.windows import QueryWindowSet
        from repro.engines.bounds import NodeGrid
        from repro.engines.queues import WindowQueue
        from repro.core.metrics import QueryStats

        query = walk_db.store.peek_subsequence(0, 900, 48).copy()
        window_set = QueryWindowSet.from_query(
            query, omega=16, features=4, rho=2
        )
        grid = NodeGrid(
            window_set.windows, walk_db.index, 2.0, QueryStats(),
            include_far=True,
        )
        queues = [
            WindowQueue(grid.probe(window))
            for window in window_set.classes[1]
        ]
        scheduler = CostAwareDensityScheduler(
            store=walk_db.store,
            query_length=48,
            omega=16,
            blocking_factor=8,
            p=2.0,
            cap_for=lambda _queue: math.inf,
            pages_seen={},
        )
        chosen = scheduler.select(queues)
        assert chosen in queues
        assert not chosen.is_empty

    def test_select_requires_live_queue(self, walk_db):
        scheduler = CostAwareDensityScheduler(
            store=walk_db.store,
            query_length=48,
            omega=16,
            blocking_factor=8,
            p=2.0,
            cap_for=lambda _queue: math.inf,
            pages_seen={},
        )
        with pytest.raises(ConfigurationError):
            scheduler.select([])


class TestPricesOnlyItsOwnReads:
    """``NUM_IO`` reads the query's own image of the pool, so a query
    schedules the same whatever other queries left buffered."""

    @pytest.fixture(scope="class")
    def paged_db(self):
        return build_half_buffered_db()

    @pytest.mark.parametrize(
        "deferred", [False, True], ids=["immediate", "deferred"]
    )
    def test_warm_after_other_queries_schedules_as_cold(
        self, paged_db, deferred
    ):
        db = paged_db
        queries = [
            query_from(db, start, 48, sid)
            for sid, start in ((0, 500), (1, 900), (0, 1700), (1, 300))
        ]
        for query in queries:
            db.reset_cache()
            cold = db.search(
                query, k=5, rho=2, method="ru-cost", deferred=deferred
            )
            for other in queries:
                if other is not query:
                    db.search(
                        other, k=5, rho=2, method="ru-cost",
                        deferred=deferred,
                    )
            warm = db.search(
                query, k=5, rho=2, method="ru-cost", deferred=deferred
            )
            assert warm.matches == cold.matches
            assert schedule_of(warm.stats) == schedule_of(cold.stats)
            # The pool really was warm: the rerun read fewer pages.
            assert warm.stats.page_accesses < cold.stats.page_accesses
