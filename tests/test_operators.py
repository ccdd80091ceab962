"""Unit tests for the extended iterator operators (Definition 5, Sec 3.2)."""

import gc
import itertools
import math
import weakref

import pytest

from repro.control import CancellationToken, ExecutionControl
from repro.core.results import TopKCollector
from repro.core.windows import QueryWindowSet
from repro.engines.base import CandidateEvaluator, QuerySpec
from repro.engines.cost_density import CostAwareDensityScheduler
from repro.engines.operators import RankedTuple, Status
from repro.engines.queues import WindowQueue
from repro.engines.ranked_union import PhiOperator, UnionOperator, _cap_pow
from tests.conftest import make_walk


def make_phi(db, query, class_index=0, k=3, method="ru"):
    config = QuerySpec(k=k, rho=2)
    window_set = QueryWindowSet.from_query(
        query, omega=db.omega, features=db.features, rho=config.rho
    )
    evaluator = CandidateEvaluator(
        index=db.index,
        window_set=window_set,
        spec=config,
        stats=__import__(
            "repro.core.metrics", fromlist=["QueryStats"]
        ).QueryStats(),
        collector=TopKCollector(config.k, p=config.p),
    )
    phi = PhiOperator(
        class_index=class_index,
        window_set=window_set,
        index=db.index,
        evaluator=evaluator,
        spec=config,
        method=method,
    )
    return phi, evaluator, window_set


class TestCapPow:
    def test_no_threshold_admits_everything(self):
        assert _cap_pow(math.inf, 5.0) == math.inf

    def test_exhausted_sibling_prunes_everything(self):
        assert _cap_pow(10.0, math.inf) == -math.inf
        assert _cap_pow(math.inf, math.inf) == -math.inf

    def test_finite_headroom(self):
        assert _cap_pow(10.0, 4.0) == 6.0


class TestPhiOperator:
    def test_initial_state(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 200, 48).copy()
        phi, _evaluator, window_set = make_phi(walk_db, query)
        assert len(phi.queues) == len(window_set.classes[0])
        # Every queue starts with the root pair at distance 0.
        assert phi.frontier_pow() == 0.0
        assert phi.current_lower_bound_pow() == 0.0

    def test_get_next_returns_lb_then_eventually_tuples(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 200, 48).copy()
        phi, _evaluator, _ws = make_phi(walk_db, query)
        statuses = []
        for _ in range(4000):
            status, payload = phi.get_next()
            statuses.append(status)
            if status == Status.EOR:
                break
        assert Status.LB in statuses
        assert Status.TUPLE in statuses
        assert statuses[-1] == Status.EOR

    def test_tuples_arrive_in_distance_order(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 200, 48).copy()
        phi, _evaluator, _ws = make_phi(walk_db, query, k=5)
        distances = []
        for _ in range(6000):
            status, payload = phi.get_next()
            if status == Status.TUPLE:
                distances.append(payload.distance_pow)
            elif status == Status.EOR:
                break
        assert distances == sorted(distances)

    def test_frontier_is_monotone_nondecreasing(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 200, 48).copy()
        phi, _evaluator, _ws = make_phi(walk_db, query)
        previous = 0.0
        for _ in range(300):
            status, _payload = phi.get_next()
            if status == Status.EOR:
                break
            frontier = phi.frontier_pow()
            assert frontier >= previous - 1e-9
            previous = frontier


class TestUnionOperator:
    def test_drives_children_to_eor(self, walk_db):
        query = walk_db.store.peek_subsequence(1, 300, 48).copy()
        config = QuerySpec(k=3, rho=2)
        window_set = QueryWindowSet.from_query(
            query, omega=16, features=4, rho=2
        )
        from repro.core.metrics import QueryStats

        evaluator = CandidateEvaluator(
            index=walk_db.index,
            window_set=window_set,
            spec=config,
            stats=QueryStats(),
            collector=TopKCollector(config.k, p=config.p),
        )
        children = [
            PhiOperator(
                class_index=index,
                window_set=window_set,
                index=walk_db.index,
                evaluator=evaluator,
                spec=config,
                method="ru",
            )
            for index in range(window_set.num_classes)
        ]
        union = UnionOperator(
            children, evaluator.control, evaluator.collector
        )
        emitted = []
        for _ in range(100_000):
            status, payload = union.get_next()
            if status == Status.EOR:
                break
            if status == Status.TUPLE:
                emitted.append(payload)
        assert isinstance(emitted[0], RankedTuple)
        # The union stops once delta_cur covers every child bound; the
        # collector holds the exact top-k.
        assert evaluator.collector.is_full
        distances = [t.distance_pow for t in emitted]
        assert distances == sorted(distances)


class TestUnionStepCost:
    """One union step reads a bounded number of queue tops.

    A host-independent guard on the union's step cost: a limited query
    must not re-sum every child's frontier per step, so the queue-top
    reads per ``Φ`` step are bounded by a multiple of the queues *one*
    class owns, however many classes the union has.
    """

    def test_limited_query_reads_few_tops_per_step(
        self, golden_db, monkeypatch
    ):
        query = make_walk(64, seed=71)
        counts = {"tops": 0, "steps": 0}
        top_pow = WindowQueue.top_pow
        get_next = PhiOperator.get_next

        def counted_top_pow(queue):
            counts["tops"] += 1
            return top_pow(queue)

        def counted_get_next(phi):
            counts["steps"] += 1
            return get_next(phi)

        monkeypatch.setattr(WindowQueue, "top_pow", counted_top_pow)
        monkeypatch.setattr(PhiOperator, "get_next", counted_get_next)
        golden_db.reset_cache()
        result = golden_db.search(
            query,
            k=5,
            rho=3,
            method="ru",
            deferred=True,
            token=CancellationToken(),
        )
        assert len(result.matches) == 5
        window_set = QueryWindowSet.from_query(
            query, omega=golden_db.omega, features=golden_db.features, rho=3
        )
        queues_per_class = max(len(group) for group in window_set.classes)
        # Re-summing every class's tops once per step would break the
        # bound below on its own.
        all_queues = sum(len(group) for group in window_set.classes)
        assert all_queues > 4 * queues_per_class
        # Max-delta selection, the sibling sum and the frontier each
        # read one class's tops: at most 3q + 1 per step.
        assert counts["steps"] > 0
        assert counts["tops"] <= 4 * queues_per_class * counts["steps"]


class TestFinishedTreesAreFreed:
    """With the cycle collector off, reference counting alone frees every
    ``Φ_i``, window queue and RU-COST scheduler of a finished ``knn`` and
    of a closed stream: no finished operator tree waits for a collection
    to give back its memory."""

    @pytest.mark.parametrize(
        "deferred,kind",
        [(False, "knn"), (True, "knn"), (False, "stream")],
        ids=["plain-knn", "d-knn", "plain-stream"],
    )
    @pytest.mark.parametrize("method", ["ru", "ru-cost"])
    def test_no_cycle_outlives_the_query(
        self, golden_db, monkeypatch, method, deferred, kind
    ):
        refs = {}
        for cls in (PhiOperator, WindowQueue, CostAwareDensityScheduler):
            real = cls.__init__

            def spy(self, *args, _real=real, _cls=cls, **kwargs):
                _real(self, *args, **kwargs)
                refs.setdefault(_cls.__name__, []).append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", spy)
        query = golden_db.store.peek_subsequence(0, 640, 48).copy()
        spec = QuerySpec.for_query(
            query, rho=2, k=5, kind=kind, method=method, deferred=deferred
        )
        gc.collect()
        gc.disable()
        try:
            if kind == "knn":
                answer = golden_db.run_query(query, spec, ExecutionControl())
            else:
                answer = golden_db.open_stream(query, spec, ExecutionControl())
                assert len(list(itertools.islice(answer, 2))) == 2
                answer.close()
            alive = {
                name: sum(ref() is not None for ref in held)
                for name, held in refs.items()
            }
        finally:
            gc.enable()
        built = {name: len(held) for name, held in refs.items()}
        assert built["PhiOperator"] > 0 and built["WindowQueue"] > 0
        assert ("CostAwareDensityScheduler" in built) == (method == "ru-cost")
        assert alive == {name: 0 for name in built}
