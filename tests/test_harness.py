"""Integration tests for the benchmark harness (repro.bench)."""

import pytest

from repro.bench import (
    EngineSpec,
    Harness,
    format_series_table,
    format_speedups,
    modeled_wall_time_s,
)
from repro.core.metrics import QueryStats


@pytest.fixture(scope="module")
def harness():
    return Harness("WALK", size=9000, omega=16, features=4, seed=1)


class TestEngineSpec:
    def test_labels_follow_paper_legends(self):
        assert EngineSpec("seqscan").label == "SeqScan"
        assert EngineSpec("hlmj", deferred=True).label == "HLMJ(D)"
        assert EngineSpec("ru-cost", deferred=True).label == "RU-COST(D)"


class TestModeledTime:
    def test_io_dominates_for_random_reads(self):
        stats = QueryStats(random_page_accesses=100)
        assert modeled_wall_time_s(stats, 128, 6) == pytest.approx(0.5)

    def test_sequential_is_fifty_times_cheaper(self):
        random = QueryStats(random_page_accesses=50)
        sequential = QueryStats(sequential_page_accesses=50)
        assert modeled_wall_time_s(
            random, 128, 6
        ) == pytest.approx(
            50 * modeled_wall_time_s(sequential, 128, 6)
        )

    def test_cpu_terms_counted(self):
        stats = QueryStats(dtw_computations=10, lb_keogh_computations=10)
        assert modeled_wall_time_s(stats, 128, 6) > 0


class TestHarnessRuns:
    def test_run_produces_metrics(self, harness):
        queries = harness.regular_queries(length=48, count=2)
        result = harness.run(EngineSpec("ru-cost", deferred=True), queries, k=3)
        assert result.queries == 2
        assert result.candidates > 0
        assert result.modeled_time_s > 0
        assert result.metric("candidates") == result.candidates
        assert result.metric("heap_pops") > 0

    def test_run_lineup_keys_by_label(self, harness):
        queries = harness.regular_queries(length=48, count=1)
        specs = (EngineSpec("seqscan"), EngineSpec("ru", deferred=True))
        results = harness.run_lineup(specs, queries, k=2)
        assert set(results) == {"SeqScan", "RU(D)"}

    def test_buffer_fraction_override(self, harness):
        queries = harness.regular_queries(length=48, count=1)
        harness.run(
            EngineSpec("ru"), queries, k=2, buffer_fraction=0.02
        )
        assert harness.db.buffer_fraction == 0.02
        harness.run(
            EngineSpec("ru"), queries, k=2, buffer_fraction=0.05
        )

    def test_workload_helpers(self, harness):
        assert len(harness.regular_queries(48, 2)) == 2
        assert len(harness.dense_queries(48, 2)) == 2


class TestReporting:
    def test_series_table_contains_all_cells(self, harness):
        queries = harness.regular_queries(length=48, count=1)
        specs = (EngineSpec("seqscan"), EngineSpec("ru-cost", deferred=True))
        rows = {k: harness.run_lineup(specs, queries, k=k) for k in (1, 3)}
        table = format_series_table("t", "k", rows, "candidates")
        assert "SeqScan" in table and "RU-COST(D)" in table
        assert table.count("\n") >= 5

    def test_speedups_quote_reference(self, harness):
        queries = harness.regular_queries(length=48, count=1)
        specs = (EngineSpec("seqscan"), EngineSpec("ru-cost", deferred=True))
        rows = {3: harness.run_lineup(specs, queries, k=3)}
        line = format_speedups(
            rows, "candidates", "RU-COST(D)", ["SeqScan"]
        )
        assert "RU-COST(D) vs SeqScan" in line
