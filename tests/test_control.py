"""Tests for the budget/deadline/cancellation control plane.

Unit coverage for :mod:`repro.control` plus engine integration: partial
results, exactness certificates and zero-overhead parity for unlimited
controls.
"""

import math

import pytest

from repro.control import (
    REASON_CANCELLED,
    REASON_CANDIDATE_BUDGET,
    REASON_DEADLINE,
    REASON_PAGE_BUDGET,
    CancellationToken,
    Deadline,
    ExecutionControl,
    QueryBudget,
    certificate_from_pow,
)
from repro.core.clock import FakeClock
from repro.core.metrics import QueryStats
from repro.engines.base import PartialResult
from repro.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
)
from tests.conftest import engine_distances, gold_topk, make_walk

ENGINES = ("seqscan", "hlmj", "ru", "ru-cost")


class TestQueryBudget:
    def test_defaults_are_unlimited(self):
        assert QueryBudget().unlimited

    def test_any_cap_makes_it_limited(self):
        assert not QueryBudget(max_page_accesses=10).unlimited
        assert not QueryBudget(max_candidates=10).unlimited

    def test_negative_caps_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryBudget(max_page_accesses=-1)
        with pytest.raises(ConfigurationError):
            QueryBudget(max_candidates=-1)


class TestDeadline:
    def test_expires_on_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(5.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(-1.0, clock=FakeClock())

    def test_auto_advance_expires_after_fixed_polls(self):
        clock = FakeClock(auto_advance=1.0)
        deadline = Deadline.after(2.5, clock=clock)
        polls = 0
        while not deadline.expired:
            polls += 1
        # after() consumed one tick; expiry is deterministic in polls.
        assert polls == 2


class TestCancellationToken:
    def test_manual_cancel(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        assert token.is_cancelled()

    def test_cancelled_property_has_no_side_effects(self):
        token = CancellationToken(cancel_after_checks=1)
        for _ in range(10):
            assert not token.cancelled
        assert not token.is_cancelled()  # first counted poll
        assert token.is_cancelled()  # countdown exhausted

    def test_negative_countdown_rejected(self):
        with pytest.raises(ConfigurationError):
            CancellationToken(cancel_after_checks=-1)


class TestExecutionControl:
    def test_default_control_never_raises(self):
        control = ExecutionControl()
        assert not control.limited
        for _ in range(100):
            control.checkpoint(1.0)
        assert control.checkpoints == 100
        assert control.frontier_pow == 1.0

    def test_none_frontier_keeps_previous_value(self):
        control = ExecutionControl()
        control.checkpoint(4.0)
        control.checkpoint()
        assert control.frontier_pow == 4.0

    def test_cancellation_raises_with_reason(self):
        control = ExecutionControl(token=CancellationToken(cancel_after_checks=0))
        with pytest.raises(ExecutionInterrupted) as excinfo:
            control.checkpoint()
        assert excinfo.value.reason == REASON_CANCELLED

    def test_deadline_raises_with_reason(self):
        clock = FakeClock()
        control = ExecutionControl(deadline=Deadline.after(1.0, clock=clock))
        control.checkpoint()
        clock.advance(2.0)
        with pytest.raises(ExecutionInterrupted) as excinfo:
            control.checkpoint()
        assert excinfo.value.reason == REASON_DEADLINE

    def test_page_budget_enforced_against_bound_counter(self):
        control = ExecutionControl(budget=QueryBudget(max_page_accesses=3))
        stats = QueryStats(page_accesses=3)
        control.bind(stats)
        control.checkpoint()
        stats.page_accesses = 4
        with pytest.raises(ExecutionInterrupted) as excinfo:
            control.checkpoint()
        assert excinfo.value.reason == REASON_PAGE_BUDGET

    def test_candidate_budget_enforced_against_stats(self):
        stats = QueryStats()
        control = ExecutionControl(budget=QueryBudget(max_candidates=2))
        control.bind(stats)
        stats.candidates = 3
        with pytest.raises(ExecutionInterrupted) as excinfo:
            control.checkpoint()
        assert excinfo.value.reason == REASON_CANDIDATE_BUDGET

    def test_unlimited_budget_is_not_limited(self):
        assert not ExecutionControl(budget=QueryBudget()).limited
        assert ExecutionControl(budget=QueryBudget(max_candidates=1)).limited


class TestCertificateFromPow:
    def test_inf_stays_inf(self):
        assert math.isinf(certificate_from_pow(math.inf, 2.0))

    def test_negative_noise_clamps_to_zero(self):
        assert certificate_from_pow(-1e-12, 2.0) == 0.0

    def test_rooting(self):
        assert certificate_from_pow(9.0, 2.0) == pytest.approx(3.0)


class TestEngineIntegration:
    QUERY = make_walk(64, seed=71)

    def test_unlimited_control_is_invisible(self, walk_db):
        """Zero-budget parity: identical top-k and identical NUM_IO."""
        for method in ENGINES:
            walk_db.reset_cache()
            plain = walk_db.search(self.QUERY, k=5, rho=3, method=method)
            walk_db.reset_cache()
            controlled = walk_db.search(
                self.QUERY, k=5, rho=3, method=method, budget=QueryBudget()
            )
            assert engine_distances(controlled) == engine_distances(plain)
            assert (
                controlled.stats.page_accesses == plain.stats.page_accesses
            )
            assert not isinstance(controlled, PartialResult)

    @pytest.mark.parametrize("method", ENGINES)
    def test_page_budget_returns_partial(self, walk_db, method):
        walk_db.reset_cache()
        result = walk_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method=method,
            budget=QueryBudget(max_page_accesses=0),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_PAGE_BUDGET
        assert result.stats.interrupted == 1
        assert result.stats.checkpoints > 0

    @pytest.mark.parametrize("method", ENGINES)
    def test_cancellation_returns_partial(self, walk_db, method):
        walk_db.reset_cache()
        result = walk_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method=method,
            token=CancellationToken(cancel_after_checks=0),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_CANCELLED

    def test_candidate_budget_returns_partial(self, walk_db):
        walk_db.reset_cache()
        result = walk_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method="ru",
            budget=QueryBudget(max_candidates=1),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_CANDIDATE_BUDGET

    def test_deadline_returns_partial(self, walk_db):
        clock = FakeClock(auto_advance=0.01)
        walk_db.reset_cache()
        result = walk_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method="ru",
            deadline=Deadline.after(0.05, clock=clock),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_DEADLINE

    @pytest.mark.parametrize("method", ENGINES)
    def test_partial_certificate_is_sound(self, walk_db, method):
        """No gold match strictly below the certified bar may be missing."""
        k = 5
        gold = gold_topk(walk_db, self.QUERY, 10**6, rho=3)
        for cap in (5, 20, 60):
            walk_db.reset_cache()
            result = walk_db.search(
                self.QUERY,
                k=k,
                rho=3,
                method=method,
                budget=QueryBudget(max_page_accesses=cap),
            )
            if not isinstance(result, PartialResult):
                assert engine_distances(result) == gold[:k]
                continue
            assert not result.exact or math.isinf(result.certificate)
            bar = result.certificate
            if len(result.matches) >= k:
                bar = min(bar, result.matches[-1].distance)
            reported = engine_distances(result)
            for distance in gold[:k]:
                if distance < round(bar, 6) - 1e-6:
                    assert distance in reported

    def test_partial_matches_are_true_distances(self, walk_db):
        gold = set(gold_topk(walk_db, self.QUERY, 10**6, rho=3))
        walk_db.reset_cache()
        result = walk_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method="ru",
            budget=QueryBudget(max_page_accesses=30),
        )
        for distance in engine_distances(result):
            assert distance in gold

    def test_range_search_budget_surface(self, walk_db):
        walk_db.reset_cache()
        result = walk_db.range_search(
            self.QUERY,
            epsilon=20.0,
            rho=3,
            budget=QueryBudget(max_page_accesses=0),
        )
        assert isinstance(result, PartialResult)
        assert result.reason == REASON_PAGE_BUDGET
        assert result.certificate == 0.0

    def test_iter_matches_interrupt_surface(self, walk_db):
        walk_db.reset_cache()
        stream = walk_db.iter_matches(
            self.QUERY,
            k=5,
            rho=3,
            budget=QueryBudget(max_page_accesses=0),
        )
        matches = list(stream)
        assert stream.interrupted
        assert stream.reason == REASON_PAGE_BUDGET
        assert stream.stats is not None
        assert stream.stats.interrupted == 1
        assert len(matches) < 5

    def test_iter_matches_stats_surface_without_limits(self, walk_db):
        walk_db.reset_cache()
        stream = walk_db.iter_matches(self.QUERY, k=3, rho=3)
        matches = list(stream)
        assert len(matches) == 3
        assert not stream.interrupted
        assert stream.stats is not None
        assert stream.stats.page_accesses > 0
        assert math.isinf(stream.certificate)


class TestInterruptInsideDrain:
    """A limit that trips between two retrievals of one deferred drain.

    The candidates the drain already retrieved are counted and paid for,
    so they must still go through the cascade before the partial result
    is cut: nothing examined may sit unoffered below the certificate.
    """

    QUERY = make_walk(64, seed=71)
    K = 5
    RHO = 3

    @pytest.fixture()
    def drain_events(self, monkeypatch):
        """Order of requeues and cascades, recorded per query."""
        from repro.engines.base import CandidateEvaluator
        from repro.storage.deferred import DeferredRetrievalBuffer

        events = []
        requeue = DeferredRetrievalBuffer.requeue
        cascade = CandidateEvaluator._cascade

        def spy_requeue(self, requests):
            events.append("requeue")
            requeue(self, requests)

        def spy_cascade(self, rows, sids, starts):
            events.append("cascade")
            cascade(self, rows, sids, starts)

        monkeypatch.setattr(DeferredRetrievalBuffer, "requeue", spy_requeue)
        monkeypatch.setattr(CandidateEvaluator, "_cascade", spy_cascade)
        return events

    def _assert_sound(self, result, gold):
        stats = result.stats
        assert stats.candidates == (
            stats.pruned_by_lb_keogh + stats.dtw_computations
        )
        bar = result.certificate
        if len(result.matches) >= self.K:
            bar = min(bar, result.matches[-1].distance)
        reported = engine_distances(result)
        for distance in gold[: self.K]:
            if distance < round(bar, 6) - 1e-6:
                assert distance in reported

    def _sweep(self, walk_db, drain_events, method, limits):
        """Run one limited query per limit; count mid-drain interrupts."""
        gold = gold_topk(walk_db, self.QUERY, 10**6, rho=self.RHO)
        mid_drain = 0
        for limit in limits:
            del drain_events[:]
            walk_db.reset_cache()
            result = walk_db.search(
                self.QUERY, k=self.K, rho=self.RHO, method=method,
                deferred=True, **limit(),
            )
            if not isinstance(result, PartialResult):
                assert engine_distances(result) == gold[: self.K]
                continue
            self._assert_sound(result, gold)
            # "requeue" then "cascade": the signal arrived with rows
            # already retrieved, and they were verified before it left.
            if "requeue" in drain_events:
                after = drain_events[drain_events.index("requeue") + 1 :]
                mid_drain += after == ["cascade"]
        return mid_drain

    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_candidate_budget(self, walk_db, drain_events, method):
        limits = [
            lambda cap=cap: {"budget": QueryBudget(max_candidates=cap)}
            for cap in range(1, 60)
        ]
        assert self._sweep(walk_db, drain_events, method, limits) > 0

    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_page_budget(self, walk_db, drain_events, method):
        limits = [
            lambda cap=cap: {"budget": QueryBudget(max_page_accesses=cap)}
            for cap in range(1, 60)
        ]
        assert self._sweep(walk_db, drain_events, method, limits) > 0

    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_fake_clock_deadline(self, walk_db, drain_events, method):
        # One tick per poll: the deadline expires at the N-th checkpoint.
        limits = [
            lambda polls=polls: {
                "deadline": Deadline.after(
                    polls - 0.5, clock=FakeClock(auto_advance=1.0)
                )
            }
            for polls in range(2, 120, 3)
        ]
        assert self._sweep(walk_db, drain_events, method, limits) > 0


def _counters(stats):
    """Every ``QueryStats`` counter except wall time."""
    counters = stats.as_dict()
    del counters["wall_time_s"]
    return counters


def _never_tripping_limits():
    """The limits every served query carries, set never to fire."""
    return {
        "token": CancellationToken(),
        "deadline": Deadline.after(1e9, clock=FakeClock()),
    }


class TestLimitedControlParity:
    """A limited control that never trips changes nothing.

    Every served query carries a token and a deadline, so this is the
    query service's path: matches and every counter, ``checkpoints``
    and ``heap_pops`` included, equal an unlimited search.
    """

    QUERY = make_walk(64, seed=71)

    def _assert_parity(self, db, **query):
        db.reset_cache()
        plain = db.search(self.QUERY, k=5, rho=3, **query)
        db.reset_cache()
        limited = db.search(
            self.QUERY, k=5, rho=3, **query, **_never_tripping_limits()
        )
        assert not isinstance(limited, PartialResult)
        assert limited.matches == plain.matches
        assert _counters(limited.stats) == _counters(plain.stats)
        return plain, limited

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("method", ENGINES)
    def test_every_engine(self, golden_db, method, normalize):
        self._assert_parity(golden_db, method=method, normalize=normalize)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("method", ["ru", "ru-cost"])
    def test_three_shards(self, method, normalize):
        from repro import ShardedDatabase

        db = ShardedDatabase(
            num_shards=3, omega=16, features=4, buffer_fraction=0.1
        )
        db.insert(0, make_walk(3000, seed=11))
        db.insert(1, make_walk(2200, seed=12))
        db.build()
        try:
            plain, limited = self._assert_parity(
                db, method=method, normalize=normalize
            )
        finally:
            db.close()
        assert {
            shard: _counters(stats)
            for shard, stats in limited.shard_stats.items()
        } == {
            shard: _counters(stats)
            for shard, stats in plain.shard_stats.items()
        }


class TestPinnedCertificates:
    """Interrupted ranked-union runs certify the same float, bit for bit.

    ``(float.hex(certificate), checkpoints, matches)`` per interrupted
    run over the golden database.  Soundness is tested above; this pins
    the value the union's frontier reports, so any change to how the
    frontier is found must reproduce it exactly.
    """

    QUERY = make_walk(64, seed=71)

    PAGE_CAPS = {
        ("ru", False, 5): ("0x0.0p+0", 10, 2),
        ("ru", False, 20): ("0x0.0p+0", 25, 5),
        ("ru", False, 60): ("0x1.2a9500dd97b75p+2", 262, 5),
        ("ru", True, 5): ("0x1.0259377560530p-2", 75, 5),
        ("ru", True, 20): ("0x1.4bb18ad7d1f08p+0", 207, 5),
        ("ru", True, 60): ("0x1.a7acd5f72dc2fp+2", 620, 5),
        ("ru-cost", False, 5): ("0x0.0p+0", 7, 2),
        ("ru-cost", False, 20): ("0x0.0p+0", 17, 5),
        ("ru-cost", False, 60): ("0x1.a84aa652b2d07p+1", 181, 5),
        ("ru-cost", True, 5): ("0x1.0259377560530p-2", 59, 5),
        ("ru-cost", True, 20): ("0x1.4bb18ad7d1f08p+0", 191, 5),
        ("ru-cost", True, 60): ("0x1.1ab048f80beeep+2", 475, 5),
    }

    @staticmethod
    def _pinned(result):
        assert isinstance(result, PartialResult)
        return (
            float.hex(result.certificate),
            result.stats.checkpoints,
            len(result.matches),
        )

    @pytest.mark.parametrize(
        "method,deferred,cap", sorted(PAGE_CAPS), ids=str
    )
    def test_page_cap(self, golden_db, method, deferred, cap):
        golden_db.reset_cache()
        result = golden_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method=method,
            deferred=deferred,
            budget=QueryBudget(max_page_accesses=cap),
        )
        assert self._pinned(result) == self.PAGE_CAPS[method, deferred, cap]

    def test_fake_clock_deadline(self, golden_db):
        golden_db.reset_cache()
        result = golden_db.search(
            self.QUERY,
            k=5,
            rho=3,
            method="ru",
            deadline=Deadline.after(
                399.5, clock=FakeClock(auto_advance=1.0)
            ),
        )
        assert self._pinned(result) == ("0x1.096e8e89b9192p+3", 400, 5)

    def test_interrupted_stream(self, golden_db):
        query = golden_db.store.peek_subsequence(0, 1200, 64).copy()
        golden_db.reset_cache()
        stream = golden_db.iter_matches(
            query,
            k=5,
            rho=3,
            method="ru",
            token=CancellationToken(cancel_after_checks=150),
        )
        matches = list(stream)
        assert stream.interrupted
        assert (
            float.hex(stream.certificate),
            stream.stats.checkpoints,
            len(matches),
        ) == ("0x1.d689c81ff7599p+0", 151, 4)
