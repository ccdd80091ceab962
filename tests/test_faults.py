"""Tests for the fault-injection harness, checksums, retries, and
degradation-aware query execution."""

import numpy as np
import pytest

from repro import SubsequenceDatabase
from repro.core.distance import dtw_distance
from repro.core.reference import brute_force_topk
from repro.exceptions import (
    ConfigurationError,
    CorruptPageError,
    TransientIOError,
)
from repro.storage.buffer import BufferPool, RetryPolicy
from repro.storage.faults import (
    CORRUPT,
    LATENCY,
    TORN_WRITE,
    TRANSIENT,
    FaultInjector,
    FaultSpec,
    FaultyPager,
)
from repro.storage.page import PageKind
from repro.storage.pager import Pager
from tests.conftest import make_walk


def make_faulty_db(injector=None, retry_policy=None, *, psm=False):
    db = SubsequenceDatabase(
        omega=16,
        features=4,
        buffer_fraction=0.1,
        fault_injector=injector,
        retry_policy=retry_policy,
    )
    db.insert(0, make_walk(1500, seed=41))
    db.insert(1, make_walk(1100, seed=42))
    db.build(psm=psm)
    return db


def data_pages_of(db, sid):
    meta = db.store.meta(sid)
    return list(range(meta.first_page, meta.first_page + meta.num_pages))


class TestFaultSpec:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(fault="meteor-strike")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(fault=TRANSIENT, probability=1.5)

    def test_latency_requires_duration(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(fault=LATENCY)

    def test_iterables_normalised_to_frozensets(self):
        spec = FaultSpec(
            fault=TRANSIENT, page_ids=[1, 2, 2], page_kinds=[PageKind.DATA]
        )
        assert spec.page_ids == frozenset({1, 2})
        assert spec.page_kinds == frozenset({PageKind.DATA})

    def test_destructive_faults_default_to_once_per_page(self):
        assert FaultSpec(fault=CORRUPT).per_page_budget == 1
        assert FaultSpec(fault=TORN_WRITE).per_page_budget == 1
        assert FaultSpec(fault=TRANSIENT).per_page_budget is None
        assert FaultSpec(fault=TRANSIENT, max_per_page=2).per_page_budget == 2


class TestFaultInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        def run(seed):
            injector = FaultInjector(
                seed=seed,
                specs=[FaultSpec(fault=TRANSIENT, probability=0.3)],
            )
            return [
                bool(injector.read_faults(page_id, PageKind.DATA))
                for page_id in range(200)
            ]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_global_budget_caps_firing(self):
        injector = FaultInjector(
            specs=[FaultSpec(fault=TRANSIENT, max_triggers=3)]
        )
        fired = sum(
            bool(injector.read_faults(page_id, PageKind.DATA))
            for page_id in range(10)
        )
        assert fired == 3

    def test_per_page_budget(self):
        injector = FaultInjector.transient_reads([5], times=2)
        assert injector.read_faults(5, PageKind.DATA)
        assert injector.read_faults(5, PageKind.DATA)
        assert not injector.read_faults(5, PageKind.DATA)
        assert not injector.read_faults(6, PageKind.DATA)

    def test_kind_filter(self):
        injector = FaultInjector(
            specs=[
                FaultSpec(
                    fault=TRANSIENT, page_kinds=frozenset({PageKind.DATA})
                )
            ]
        )
        assert injector.read_faults(0, PageKind.DATA)
        assert not injector.read_faults(1, PageKind.INDEX_LEAF)

    def test_disabled_injector_fires_nothing(self):
        injector = FaultInjector(specs=[FaultSpec(fault=TRANSIENT)])
        injector.enabled = False
        assert not injector.read_faults(0, PageKind.DATA)


class TestFaultyPager:
    def _pager_with_page(self, injector=None, seal=True):
        pager = FaultyPager(injector=injector)
        values = np.arange(64, dtype=np.float64)
        page_id = pager.allocate(PageKind.DATA, values)
        if seal:
            pager.seal()
        return pager, page_id

    def test_no_specs_behaves_like_plain_pager(self):
        plain = Pager()
        faulty = FaultyPager()
        for pager in (plain, faulty):
            pid = pager.allocate(PageKind.DATA, np.arange(8, dtype=float))
            pager.seal()
            for _ in range(3):
                pager.read(pid)
        assert faulty.stats.physical_reads == plain.stats.physical_reads
        assert faulty.stats.physical_writes == plain.stats.physical_writes

    def test_transient_counts_the_failed_attempt(self):
        injector = FaultInjector.transient_reads([0], times=1)
        pager, page_id = self._pager_with_page(injector)
        with pytest.raises(TransientIOError):
            pager.read(page_id)
        assert pager.stats.physical_reads == 1
        payload = pager.read(page_id)  # second attempt succeeds
        assert pager.stats.physical_reads == 2
        assert payload[3] == 3.0
        assert injector.stats.transient_faults == 1

    def test_corrupt_detected_on_sealed_pager(self):
        injector = FaultInjector.corrupt_pages([0], seed=5)
        pager, page_id = self._pager_with_page(injector)
        with pytest.raises(CorruptPageError):
            pager.read(page_id)
        # Permanent: every later read keeps failing.
        with pytest.raises(CorruptPageError):
            pager.read(page_id)
        assert injector.stats.corruptions == 1
        assert injector.stats.corrupted_pages == [page_id]

    def test_corrupt_silent_on_unsealed_pager(self):
        injector = FaultInjector.corrupt_pages([0], seed=5)
        pager, page_id = self._pager_with_page(injector, seal=False)
        payload = pager.read(page_id)  # no checksum — flows through
        reference = np.arange(64, dtype=np.float64)
        assert not np.array_equal(payload, reference)
        assert np.sum(payload != reference) == 1  # exactly one value hit

    def test_torn_write_detected_on_next_read(self):
        injector = FaultInjector(specs=[FaultSpec(fault=TORN_WRITE)])
        pager, page_id = self._pager_with_page(injector)
        pager.write(page_id, np.ones(64))
        assert injector.stats.torn_writes == 1
        with pytest.raises(CorruptPageError):
            pager.read(page_id)
        stored = pager.peek(page_id)
        assert stored.shape[0] == 32  # only the prefix "reached disk"

    def test_latency_injection_counts_and_succeeds(self):
        injector = FaultInjector(
            specs=[FaultSpec(fault=LATENCY, latency_s=0.001)]
        )
        pager, page_id = self._pager_with_page(injector)
        payload = pager.read(page_id)
        assert payload[0] == 0.0
        assert injector.stats.latency_injections == 1
        assert injector.stats.latency_total_s == pytest.approx(0.001)


class TestPagerChecksums:
    def test_verify_all_clean_after_seal(self):
        pager = Pager()
        pager.allocate(PageKind.DATA, np.arange(10, dtype=float))
        pager.allocate(PageKind.DATA, np.arange(5, dtype=float))
        pager.seal()
        assert pager.sealed
        assert pager.verify_all() == []

    def test_verify_all_reports_tampered_page(self):
        pager = Pager()
        good = pager.allocate(PageKind.DATA, np.arange(10, dtype=float))
        bad = pager.allocate(PageKind.DATA, np.arange(5, dtype=float))
        pager.seal()
        pager._payloads[bad] = np.arange(5, dtype=float) + 1  # noqa: SLF001
        assert pager.verify_all() == [bad]
        assert pager.verify_page(good)
        assert not pager.verify_page(bad)

    def test_write_after_seal_keeps_checksum_current(self):
        pager = Pager()
        page_id = pager.allocate(PageKind.DATA, np.arange(10, dtype=float))
        pager.seal()
        pager.write(page_id, np.ones(10))
        assert pager.verify_page(page_id)
        np.testing.assert_array_equal(pager.read(page_id), np.ones(10))

    def test_verification_does_not_count_io(self):
        pager = Pager()
        page_id = pager.allocate(PageKind.DATA, np.arange(10, dtype=float))
        pager.seal()
        before = pager.stats.physical_reads
        pager.verify_all()
        assert pager.stats.physical_reads == before
        pager.read(page_id)
        assert pager.stats.physical_reads == before + 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)

    def test_transient_fault_recovered_within_budget(self):
        injector = FaultInjector.transient_reads([0], times=2)
        pager = FaultyPager(injector=injector)
        page_id = pager.allocate(PageKind.DATA, np.arange(4, dtype=float))
        pager.seal()
        pool = BufferPool(
            pager, capacity_pages=2, retry_policy=RetryPolicy(max_attempts=3)
        )
        payload = pool.get(page_id)
        assert payload[2] == 2.0
        assert pool.stats.retries == 2
        # Two failed attempts + one success, all counted as physical I/O.
        assert pager.stats.physical_reads == 3

    def test_budget_exhaustion_propagates(self):
        injector = FaultInjector.transient_reads([0], times=5)
        pager = FaultyPager(injector=injector)
        page_id = pager.allocate(PageKind.DATA, np.arange(4, dtype=float))
        pager.seal()
        pool = BufferPool(
            pager, capacity_pages=2, retry_policy=RetryPolicy(max_attempts=2)
        )
        with pytest.raises(TransientIOError):
            pool.get(page_id)
        assert pool.stats.retries == 1  # one retry, then the final failure

    def test_corruption_never_retried(self):
        injector = FaultInjector.corrupt_pages([0])
        pager = FaultyPager(injector=injector)
        page_id = pager.allocate(PageKind.DATA, np.arange(4, dtype=float))
        pager.seal()
        pool = BufferPool(
            pager, capacity_pages=2, retry_policy=RetryPolicy(max_attempts=5)
        )
        with pytest.raises(CorruptPageError):
            pool.get(page_id)
        assert pool.stats.retries == 0
        assert pager.stats.physical_reads == 1


class TestFaultsDisabledParity:
    """With no faults configured, the harness must be invisible."""

    def test_identical_topk_and_page_accesses(self):
        baseline = make_faulty_db(injector=None)
        harnessed = make_faulty_db(injector=FaultInjector(seed=0))
        assert isinstance(harnessed.pager, FaultyPager)
        query = baseline.store.peek_subsequence(0, 400, 64).copy()
        for method in ("seqscan", "hlmj", "ru", "ru-cost"):
            baseline.reset_cache()
            harnessed.reset_cache()
            expected = baseline.search(query, k=5, rho=2, method=method)
            actual = harnessed.search(query, k=5, rho=2, method=method)
            assert [m.key() for m in actual.matches] == [
                m.key() for m in expected.matches
            ]
            assert [m.distance for m in actual.matches] == [
                m.distance for m in expected.matches
            ]
            assert (
                actual.stats.page_accesses == expected.stats.page_accesses
            )
            assert not actual.degraded
            assert actual.fault_report is None


class TestTransientRetryExactness:
    def test_results_exact_under_transient_faults(self):
        baseline = make_faulty_db()
        injector = FaultInjector(
            seed=9,
            specs=[
                FaultSpec(
                    fault=TRANSIENT, probability=0.05, max_triggers=50
                )
            ],
        )
        db = make_faulty_db(
            injector=injector, retry_policy=RetryPolicy(max_attempts=3)
        )
        query = baseline.store.peek_subsequence(0, 400, 64).copy()
        baseline.reset_cache()
        db.reset_cache()
        injector.enabled = False  # keep the build/reset phases clean
        injector.enabled = True
        expected = baseline.search(query, k=5, rho=2, method="ru")
        actual = db.search(query, k=5, rho=2, method="ru")
        assert injector.stats.transient_faults > 0
        assert actual.stats.retries == injector.stats.transient_faults
        assert [m.key() for m in actual.matches] == [
            m.key() for m in expected.matches
        ]
        assert [m.distance for m in actual.matches] == [
            m.distance for m in expected.matches
        ]
        assert not actual.degraded
        # Each failed attempt is an extra physical read.
        assert actual.stats.page_accesses == (
            expected.stats.page_accesses + injector.stats.transient_faults
        )


class TestDegradedQueries:
    @pytest.mark.parametrize("method", ["seqscan", "hlmj", "ru", "ru-cost"])
    def test_raise_is_the_default(self, method):
        injector = FaultInjector(seed=1)
        db = make_faulty_db(injector=injector)
        injector.add(
            FaultSpec(fault=CORRUPT, page_ids=data_pages_of(db, 0))
        )
        query = db.store.peek_subsequence(0, 400, 64).copy()
        db.reset_cache()
        with pytest.raises(CorruptPageError):
            db.search(query, k=5, rho=2, method=method)

    @pytest.mark.parametrize("method", ["seqscan", "hlmj", "ru", "ru-cost"])
    def test_degrade_skips_unreadable_candidates(self, method):
        injector = FaultInjector(seed=1)
        db = make_faulty_db(injector=injector)
        injector.add(
            FaultSpec(fault=CORRUPT, page_ids=data_pages_of(db, 0))
        )
        query = db.store.peek_subsequence(0, 400, 64).copy()
        db.reset_cache()
        result = db.search(
            query, k=5, rho=2, method=method, on_fault="degrade"
        )
        assert result.degraded
        assert result.fault_report is not None
        assert result.fault_report.total > 0
        assert result.stats.faults_skipped == result.fault_report.total
        # Well-formed top-k: sorted, k results, all from the intact
        # sequence (sid 0's data pages are all corrupt).
        assert len(result.matches) == 5
        distances = [m.distance for m in result.matches]
        assert distances == sorted(distances)
        assert all(m.sid == 1 for m in result.matches)

    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_degrade_mid_drain_verifies_the_readable_rest(self, method):
        # One corrupt data page in the middle of the file: every deferred
        # drain that sweeps across it loses the candidates on that page
        # and must still cascade the ones retrieved before and after.
        injector = FaultInjector(seed=3)
        db = make_faulty_db(injector=injector)
        query = db.store.peek_subsequence(0, 400, 64).copy()
        victim = db.store.pages_for_range(0, 600, 1)[0]
        injector.add(FaultSpec(fault=CORRUPT, page_ids=[victim]))
        db.reset_cache()
        result = db.search(
            query, k=5, rho=2, method=method, deferred=True,
            on_fault="degrade",
        )
        assert result.degraded
        skipped = set(result.fault_report.skipped_candidates)
        assert skipped
        assert all(
            victim in db.store.pages_for_range(sid, start, 64)
            for sid, start in skipped
        )
        stats = result.stats
        assert stats.faults_skipped == result.fault_report.total
        assert stats.candidates == (
            stats.pruned_by_lb_keogh + stats.dtw_computations
        )
        # Exact over everything readable: the brute-force ranking with
        # the unreadable offsets struck out.
        readable = [
            match
            for match in brute_force_topk(db.store, query, 200, 2)
            if victim not in db.store.pages_for_range(
                match.sid, match.start, 64
            )
        ][:5]
        assert [m.key() for m in result.matches] == [
            m.key() for m in readable
        ]
        assert [m.distance for m in result.matches] == [
            m.distance for m in readable
        ]

    def test_degrade_survives_corrupt_index_leaves(self):
        self.check_index_fault_arm("ru")

    @pytest.mark.parametrize(
        "method", ["ru-cost", "hlmj", "hlmj-wg", "psm", "range_search"]
    )
    def test_every_traversal_drops_unreadable_index_pages(self, method):
        self.check_index_fault_arm(method)

    @staticmethod
    def check_index_fault_arm(method):
        """Every traversal reads index pages through the one node step:
        under ``degrade`` it drops the unreadable subtrees and reports
        them, under the default ``raise`` the corruption propagates."""
        injector = FaultInjector(seed=2)
        db = make_faulty_db(injector=injector, psm=method == "psm")
        # Every second leaf (of every tree): the searches lose subtrees
        # but still reach candidates.
        leaves = [
            page_id
            for page_id in range(db.pager.num_pages)
            if db.pager.kind_of(page_id) == PageKind.INDEX_LEAF
        ][::2]
        injector.add(FaultSpec(fault=CORRUPT, page_ids=leaves))
        query = db.store.peek_subsequence(0, 400, 64).copy()

        def run(on_fault):
            db.reset_cache()
            if method == "range_search":
                return db.range_search(
                    query, epsilon=12.0, rho=2, on_fault=on_fault
                )
            return db.search(
                query, k=5, rho=2, method=method, on_fault=on_fault
            )

        result = run("degrade")
        assert result.degraded
        assert result.fault_report.total > 0
        assert set(result.fault_report.failed_pages) <= set(leaves)
        assert result.stats.faults_skipped == result.fault_report.total
        distances = [m.distance for m in result.matches]
        assert distances == sorted(distances)
        for match in result.matches:
            values = db.store.peek_subsequence(match.sid, match.start, 64)
            assert match.distance == pytest.approx(
                dtw_distance(values, query, 2)
            )
        if method != "range_search":
            assert len(result.matches) <= 5
        with pytest.raises(CorruptPageError):
            run("raise")

    def test_degrade_survives_pages_whose_retries_run_out(self):
        # Transient failures on 90 % of data-page reads outlast a
        # two-attempt budget: candidates are dropped, never fabricated.
        injector = FaultInjector(seed=5)
        db = make_faulty_db(
            injector=injector, retry_policy=RetryPolicy(max_attempts=2)
        )
        injector.add(
            FaultSpec(
                fault=TRANSIENT,
                page_kinds=frozenset({PageKind.DATA}),
                probability=0.9,
            )
        )
        query = make_walk(48, seed=52)
        db.reset_cache()
        result = db.search(query, k=3, rho=2, method="ru", on_fault="degrade")
        assert result.degraded
        assert result.fault_report.total > 0
        assert result.matches
        for match in result.matches:
            values = db.store.peek_subsequence(match.sid, match.start, 48)
            assert match.distance == pytest.approx(
                dtw_distance(values, query, 2)
            )

    def test_raise_propagates_pages_whose_retries_run_out(self):
        # The same schedule under the default policy: the first page
        # whose retries run out fails the query.
        injector = FaultInjector(seed=5)
        db = make_faulty_db(
            injector=injector, retry_policy=RetryPolicy(max_attempts=2)
        )
        injector.add(
            FaultSpec(
                fault=TRANSIENT,
                page_kinds=frozenset({PageKind.DATA}),
                probability=0.9,
            )
        )
        query = make_walk(48, seed=53)
        db.reset_cache()
        with pytest.raises(TransientIOError):
            db.search(query, k=3, rho=2, method="ru", on_fault="raise")

    def test_degrade_psm(self):
        injector = FaultInjector(seed=3)
        db = SubsequenceDatabase(
            omega=8,
            features=4,
            buffer_fraction=0.1,
            fault_injector=injector,
        )
        db.insert(0, make_walk(900, seed=21))
        db.insert(1, make_walk(700, seed=22))
        db.build(psm=True)
        injector.add(
            FaultSpec(fault=CORRUPT, page_ids=data_pages_of(db, 0))
        )
        query = db.store.peek_subsequence(0, 100, 24).copy()
        db.reset_cache()
        result = db.search(
            query, k=3, rho=1, method="psm", on_fault="degrade"
        )
        assert result.degraded
        assert all(m.sid == 1 for m in result.matches)

    def test_invalid_on_fault_rejected(self, walk_db):
        query = walk_db.store.peek_subsequence(0, 100, 48).copy()
        with pytest.raises(ConfigurationError):
            walk_db.search(query, k=3, method="ru", on_fault="shrug")

    def test_fault_report_caps_events(self):
        from repro.engines.base import _MAX_FAULT_EVENTS, FaultReport

        report = FaultReport()
        for index in range(_MAX_FAULT_EVENTS + 10):
            report.record(CorruptPageError("x"), page_id=index)
        assert len(report.events) == _MAX_FAULT_EVENTS
        assert report.suppressed == 10
        assert report.total == _MAX_FAULT_EVENTS + 10


class TestVerifyIntegrity:
    def test_clean_database_verifies(self):
        db = make_faulty_db()
        report = db.verify_integrity()
        assert report["ok"]
        assert report["sealed"]
        assert report["corrupt_pages"] == []
        assert report["tree_errors"] == []
        assert report["counter_errors"] == []
        assert report["pages"] == db.pager.num_pages

    def test_detects_injected_corruption(self):
        injector = FaultInjector(seed=4)
        db = make_faulty_db(injector=injector)
        victim = data_pages_of(db, 0)[0]
        injector.add(FaultSpec(fault=CORRUPT, page_ids=[victim]))
        db.reset_cache()
        query = db.store.peek_subsequence(0, 10, 64).copy()
        with pytest.raises(CorruptPageError):
            db.search(query, k=3, rho=2, method="seqscan")
        report = db.verify_integrity()
        assert not report["ok"]
        assert victim in report["corrupt_pages"]

class TestInjectableClock:
    """Retry backoff and latency faults spend simulated, not real, time."""

    def make_faulty_pool(self, times, policy, clock):
        injector = FaultInjector.transient_reads([0], times=times)
        pager = FaultyPager(page_size=512, injector=injector, clock=clock)
        page = pager.allocate(PageKind.DATA)
        pager.write(page, np.arange(4.0))
        return BufferPool(
            pager, capacity_pages=2, retry_policy=policy, clock=clock
        )

    def test_backoff_sleeps_on_injected_clock(self):
        from repro.core.clock import FakeClock

        clock = FakeClock()
        pool = self.make_faulty_pool(
            times=3,
            policy=RetryPolicy(max_attempts=4, backoff_s=0.01, multiplier=2.0),
            clock=clock,
        )
        assert pool.get(0) is not None
        assert pool.stats.retries == 3
        # Geometric backoff entirely on the fake clock: 10 + 20 + 40 ms.
        assert clock.slept_s == pytest.approx(0.07)

    def test_zero_backoff_never_touches_the_clock(self):
        from repro.core.clock import FakeClock

        clock = FakeClock()
        pool = self.make_faulty_pool(
            times=1, policy=RetryPolicy(max_attempts=2), clock=clock
        )
        assert pool.get(0) is not None
        assert clock.slept_s == 0.0

    def test_latency_faults_sleep_on_injected_clock(self):
        from repro.core.clock import FakeClock

        clock = FakeClock()
        injector = FaultInjector(
            specs=[FaultSpec(fault=LATENCY, latency_s=0.5, max_triggers=2)]
        )
        pager = FaultyPager(page_size=512, injector=injector, clock=clock)
        page = pager.allocate(PageKind.DATA)
        pager.write(page, np.arange(4.0))
        pager.read(page)
        pager.read(page)
        assert clock.slept_s == pytest.approx(1.0)
        assert injector.stats.latency_total_s == pytest.approx(1.0)
