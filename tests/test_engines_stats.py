"""Integration tests for engine instrumentation and behaviour.

Beyond exactness, the paper's comparisons rest on the counters being
meaningful: candidates, page accesses, pops, prunes, and the deferred
mechanism's effect on access patterns.  The golden tests at the bottom
pin the exact counter values and result digests of every engine on a
fixed workload: the vectorized kernels must not shift NUM_IO accounting
or top-k sets by a single unit.
"""

import pytest

from tests.conftest import query_from, run_engine


class TestSeqScanBehaviour:
    def test_candidates_independent_of_k(self, walk_db):
        query = query_from(walk_db, 300, 48)
        counts = {
            walk_db.search(query, k=k, rho=2, method="seqscan").stats.candidates
            for k in (1, 10, 30)
        }
        assert len(counts) == 1  # "SeqScan shows constant values"

    def test_considers_every_offset(self, walk_db):
        query = query_from(walk_db, 300, 48)
        stats = walk_db.search(query, k=1, rho=2, method="seqscan").stats
        expected = sum(
            walk_db.store.length(sid) - 48 + 1
            for sid in walk_db.store.sequence_ids()
        )
        assert stats.candidates == expected

    def test_reads_all_data_pages_once_from_cold(self, walk_db):
        query = query_from(walk_db, 300, 48)
        walk_db.reset_cache()
        stats = walk_db.search(query, k=1, rho=2, method="seqscan").stats
        assert stats.page_accesses == walk_db.store.total_data_pages
        # Sequential scan: almost every read rides the sweep.
        assert stats.sequential_page_accesses >= stats.page_accesses - 2

    def test_lb_keogh_prunes_most_dtw(self, walk_db):
        query = query_from(walk_db, 300, 48)
        stats = walk_db.search(query, k=1, rho=2, method="seqscan").stats
        assert stats.dtw_computations < stats.candidates
        assert stats.pruned_by_lb_keogh > 0


class TestIndexEngineCounters:
    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_counters_populated(self, walk_db, method):
        query = query_from(walk_db, 640, 48)
        stats = walk_db.search(query, k=5, rho=2, method=method).stats
        assert stats.heap_pops > 0
        assert stats.node_expansions > 0
        assert stats.candidates > 0
        assert stats.wall_time_s > 0
        assert stats.logical_reads >= stats.page_accesses

    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_index_engines_prune_versus_seqscan(self, walk_db, method):
        query = query_from(walk_db, 640, 48)
        seq = walk_db.search(query, k=5, rho=2, method="seqscan").stats
        index_stats = walk_db.search(query, k=5, rho=2, method=method).stats
        assert index_stats.candidates < seq.candidates / 5

    def test_duplicates_are_suppressed(self, walk_db):
        # In HLMJ every sliding window can rediscover the same
        # candidate, so the seen-set must fire on realistic queries.
        query = query_from(walk_db, 640, 64)
        stats = walk_db.search(query, k=5, rho=2, method="hlmj").stats
        assert stats.duplicates_suppressed > 0

    def test_larger_k_needs_more_work(self, walk_db):
        query = query_from(walk_db, 640, 48)
        small = walk_db.search(query, k=1, rho=2, method="ru-cost").stats
        large = walk_db.search(query, k=30, rho=2, method="ru-cost").stats
        assert large.candidates >= small.candidates


class TestDeferredBehaviour:
    @pytest.mark.parametrize("method", ["hlmj", "ru", "ru-cost"])
    def test_deferred_flushes_happen(self, walk_db, method):
        query = query_from(walk_db, 100, 48)
        stats = walk_db.search(
            query, k=10, rho=2, method=method, deferred=True
        ).stats
        assert stats.deferred_flushes >= 1

    def test_deferred_improves_sequentiality(self, walk_db):
        query = query_from(walk_db, 100, 48)
        walk_db.reset_cache()
        plain = walk_db.search(query, k=10, rho=2, method="hlmj").stats
        walk_db.reset_cache()
        deferred = walk_db.search(
            query, k=10, rho=2, method="hlmj", deferred=True
        ).stats
        plain_fraction = plain.sequential_page_accesses / max(
            1, plain.page_accesses
        )
        deferred_fraction = deferred.sequential_page_accesses / max(
            1, deferred.page_accesses
        )
        assert deferred_fraction >= plain_fraction


class TestSchedulingVariants:
    """``method`` names the queue scheduling of the one ranked union."""

    @pytest.mark.parametrize(
        "method",
        [
            pytest.param("ru", id="max-delta"),
            pytest.param("ru-cost", id="cost-aware"),
        ],
    )
    def test_all_strategies_exact(self, walk_db, method):
        from repro.control import ExecutionControl
        from repro.engines.base import QuerySpec

        query = query_from(walk_db, 900, 48)
        reference = walk_db.search(query, k=5, rho=2, method="seqscan")
        result = walk_db.run_query(
            query, QuerySpec(k=5, rho=2, method=method), ExecutionControl()
        )
        assert [round(m.distance, 6) for m in result.matches] == [
            round(m.distance, 6) for m in reference.matches
        ]

    def test_engine_names(self, walk_db):
        from repro.control import ExecutionControl
        from repro.engines.base import QuerySpec
        from repro.obs import Tracer

        query = query_from(walk_db, 900, 48)
        names = {}
        for method in ("ru", "ru-cost"):
            result = walk_db.run_query(
                query,
                QuerySpec(k=5, rho=2, method=method),
                ExecutionControl(tracer=Tracer(enabled=True)),
            )
            names[method] = result.profile.span.attrs["engine"]
        assert names == {"ru": "RU", "ru-cost": "RU-COST"}

    def test_unknown_scheduling_rejected(self):
        from repro.engines.base import QuerySpec
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            QuerySpec(rho=2, method="nope")
        # A stream runs only a ranked-union method, and never deferred.
        with pytest.raises(ConfigurationError):
            QuerySpec(rho=2, kind="stream", method="hlmj")
        with pytest.raises(ConfigurationError):
            QuerySpec(rho=2, kind="stream", method="ru", deferred=True)


# ----------------------------------------------------------------------
# Golden counters: captured from the scalar (pre-vectorization) engines
# on the fixed workload below.  The batched kernels are required to be
# byte-identical end to end, so every counter, every distance repr, and
# every (sid, start) pair is pinned exactly.  If one of these moves, a
# kernel changed engine behaviour — that is a bug, not a baseline drift.
# One deliberate re-pin since: the set-at-a-time verification cascade
# (deferred drains, SeqScan blocks) moved ``dtw_computations`` and
# ``pruned_by_lb_keogh`` of the five labels that use it, and nothing
# else.
# ----------------------------------------------------------------------

GOLDEN_STAT_KEYS = (
    "candidates",
    "page_accesses",
    "sequential_page_accesses",
    "random_page_accesses",
    "logical_reads",
    "dtw_computations",
    "lb_keogh_computations",
    "heap_pops",
    "node_expansions",
    "node_scorings",
    "bloom_calls",
    "deferred_flushes",
    "pruned_by_lower_bound",
    "pruned_by_lb_keogh",
    "duplicates_suppressed",
    "window_group_evaluations",
)

# Only non-zero counters are listed, and ``node_scorings`` on every row;
# every key absent from a row is asserted to be exactly zero.
GOLDEN_COUNTERS = {
    "seqscan": {
        "candidates": 5106, "page_accesses": 11,
        "sequential_page_accesses": 10, "random_page_accesses": 1,
        "logical_reads": 11, "dtw_computations": 16,
        "lb_keogh_computations": 5106, "pruned_by_lb_keogh": 5090,
        "node_scorings": 0,
    },
    "hlmj": {
        "candidates": 228, "page_accesses": 179,
        "sequential_page_accesses": 105, "random_page_accesses": 74,
        "logical_reads": 365, "dtw_computations": 24,
        "lb_keogh_computations": 228, "heap_pops": 350,
        "node_expansions": 110, "pruned_by_lb_keogh": 204,
        "duplicates_suppressed": 11,
        "node_scorings": 4,
    },
    "hlmj-d": {
        "candidates": 228, "page_accesses": 124,
        "sequential_page_accesses": 98, "random_page_accesses": 26,
        "logical_reads": 365, "dtw_computations": 31,
        "lb_keogh_computations": 228, "heap_pops": 350,
        "node_expansions": 110, "deferred_flushes": 18,
        "pruned_by_lb_keogh": 197, "duplicates_suppressed": 11,
        "node_scorings": 4,
    },
    "hlmj-wg": {
        "candidates": 46, "page_accesses": 45,
        "sequential_page_accesses": 26, "random_page_accesses": 19,
        "logical_reads": 160, "dtw_computations": 24,
        "lb_keogh_computations": 46, "heap_pops": 350,
        "node_expansions": 110, "pruned_by_lower_bound": 182,
        "pruned_by_lb_keogh": 22, "duplicates_suppressed": 11,
        "window_group_evaluations": 228,
        "node_scorings": 4,
    },
    "hlmj-wg-d": {
        "candidates": 60, "page_accesses": 39,
        "sequential_page_accesses": 26, "random_page_accesses": 13,
        "logical_reads": 175, "dtw_computations": 32,
        "lb_keogh_computations": 60, "heap_pops": 350,
        "node_expansions": 110, "deferred_flushes": 5,
        "pruned_by_lower_bound": 168, "pruned_by_lb_keogh": 28,
        "duplicates_suppressed": 11, "window_group_evaluations": 228,
        "node_scorings": 4,
    },
    "ru": {
        "candidates": 216, "page_accesses": 229,
        "sequential_page_accesses": 132, "random_page_accesses": 97,
        "logical_reads": 317, "dtw_computations": 24,
        "lb_keogh_computations": 216, "heap_pops": 273,
        "node_expansions": 57, "pruned_by_lb_keogh": 192,
        "node_scorings": 4,
    },
    "ru-d": {
        "candidates": 216, "page_accesses": 149,
        "sequential_page_accesses": 115, "random_page_accesses": 34,
        "logical_reads": 317, "dtw_computations": 31,
        "lb_keogh_computations": 216, "heap_pops": 273,
        "node_expansions": 57, "deferred_flushes": 17,
        "pruned_by_lb_keogh": 185,
        "node_scorings": 4,
    },
    "ru-cost": {
        "candidates": 214, "page_accesses": 248,
        "sequential_page_accesses": 144, "random_page_accesses": 104,
        "logical_reads": 355, "dtw_computations": 24,
        "lb_keogh_computations": 214, "heap_pops": 255,
        "node_expansions": 99, "pruned_by_lb_keogh": 190,
        "duplicates_suppressed": 3,
        "node_scorings": 4,
    },
    "ru-cost-d": {
        "candidates": 212, "page_accesses": 161,
        "sequential_page_accesses": 125, "random_page_accesses": 36,
        "logical_reads": 352, "dtw_computations": 31,
        "lb_keogh_computations": 212, "heap_pops": 252,
        "node_expansions": 98, "deferred_flushes": 17,
        "pruned_by_lb_keogh": 181, "duplicates_suppressed": 2,
        "node_scorings": 4,
    },
    "range": {
        "candidates": 431, "page_accesses": 517,
        "sequential_page_accesses": 263, "random_page_accesses": 254,
        "logical_reads": 635, "dtw_computations": 5,
        "lb_keogh_computations": 431, "node_expansions": 125,
        "pruned_by_lb_keogh": 426, "duplicates_suppressed": 44,
        "node_scorings": 4,
    },
    "psm": {
        "candidates": 3, "page_accesses": 5,
        "sequential_page_accesses": 1, "random_page_accesses": 4,
        "logical_reads": 37, "dtw_computations": 3,
        "lb_keogh_computations": 3, "heap_pops": 38,
        "node_expansions": 34, "bloom_calls": 882,
        "node_scorings": 4,
    },
}

# Full-precision reprs: the ranked engines and range search all return
# the identical five matches on this workload.
GOLDEN_DISTANCES = [
    "0.0",
    "0.6557656093859874",
    "0.6909614700562021",
    "1.3058718531149556",
    "1.6013218650370529",
]
GOLDEN_MATCHES = [(0, 640), (0, 639), (0, 641), (0, 642), (0, 638)]

GOLDEN_PSM_DISTANCES = ["0.0", "0.831178482643337", "2.646050360682022"]
GOLDEN_PSM_MATCHES = [(0, 200), (0, 199), (0, 201)]


# The golden_db / golden_psm_db fixtures live in tests/conftest.py
# (shared with the trace-conformance suite); they rebuild the database
# from scratch per module so cache history from other tests cannot
# shift the counters.


def assert_golden(result, label, distances, matches):
    expected = GOLDEN_COUNTERS[label]
    got = {key: getattr(result.stats, key) for key in GOLDEN_STAT_KEYS}
    want = {key: expected.get(key, 0) for key in GOLDEN_STAT_KEYS}
    assert got == want, f"{label}: counters drifted"
    # Every retrieved candidate is either LB_Keogh-pruned or DTW'd.
    if not result.stats.faults_skipped:
        assert got["candidates"] == (
            got["pruned_by_lb_keogh"] + got["dtw_computations"]
        ), f"{label}: cascade lost a candidate"
    assert [repr(m.distance) for m in result.matches] == distances
    assert [(m.sid, m.start) for m in result.matches] == matches


class TestGoldenCounters:
    @pytest.mark.parametrize(
        "label",
        [
            "seqscan", "hlmj", "hlmj-d", "hlmj-wg", "hlmj-wg-d",
            "ru", "ru-d", "ru-cost", "ru-cost-d",
        ],
    )
    def test_ranked_engines_match_goldens(self, golden_db, label):
        deferred = label.endswith("-d")
        method = label[:-2] if deferred else label
        query = query_from(golden_db, 640, 48)
        golden_db.reset_cache()
        result = golden_db.search(
            query, k=5, rho=2, method=method, deferred=deferred
        )
        assert_golden(result, label, GOLDEN_DISTANCES, GOLDEN_MATCHES)

    def test_range_search_matches_goldens(self, golden_db):
        from repro.engines.base import QuerySpec
        from repro.engines.range_search import RangeSearchEngine

        query = query_from(golden_db, 640, 48)
        golden_db.reset_cache()
        result = run_engine(
            RangeSearchEngine(golden_db.index),
            query,
            QuerySpec(kind="range", epsilon=2.5, rho=2),
        )
        assert_golden(result, "range", GOLDEN_DISTANCES, GOLDEN_MATCHES)

    def test_psm_matches_goldens(self, golden_psm_db):
        query = query_from(golden_psm_db, 200, 32)
        golden_psm_db.reset_cache()
        result = golden_psm_db.search(query, k=3, rho=1, method="psm")
        assert_golden(
            result, "psm", GOLDEN_PSM_DISTANCES, GOLDEN_PSM_MATCHES
        )


class TestNodeScorings:
    """Each touched node is scored once per query, against every window."""

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "method", ["hlmj", "hlmj-wg", "ru", "ru-cost", "range", "psm"]
    )
    def test_at_most_one_scoring_per_node(
        self, golden_db, golden_psm_db, method, normalize
    ):
        from repro.engines.base import QuerySpec
        from repro.engines.range_search import RangeSearchEngine

        psm = method == "psm"
        db = golden_psm_db if psm else golden_db
        query = query_from(db, 200, 32) if psm else query_from(db, 640, 48)
        db.reset_cache()
        if method == "range":
            result = run_engine(
                RangeSearchEngine(db.index),
                query,
                QuerySpec(
                    kind="range", epsilon=2.5, rho=2, normalize=normalize
                ),
            )
        else:
            result = db.search(
                query, k=5, rho=2, method=method, normalize=normalize
            )
        # PSM runs on its own J = 1 tree.
        index = db._sliding_index if psm else db.index
        stats = result.stats
        assert 0 < stats.node_scorings <= min(
            stats.node_expansions, index.tree.node_count()
        )

    @pytest.mark.parametrize("normalize", [False, True])
    def test_seqscan_scores_no_node(self, golden_db, normalize):
        query = query_from(golden_db, 640, 48)
        result = golden_db.search(
            query, k=5, rho=2, method="seqscan", normalize=normalize
        )
        assert result.stats.node_scorings == 0
