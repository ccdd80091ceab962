"""Unit tests for the perf-regression subsystem (``repro bench``).

The gate logic (:func:`repro.bench.perf.compare`), the report schema
round-trip, and the CLI exit-code contract are tested on synthetic
reports so the suite stays fast; one real kernel benchmark runs end to
end as a smoke check.
"""

import copy

import numpy as np
import pytest

from repro.__main__ import main
from repro.bench import perf


def make_report(**suites):
    return {
        "schema": perf.SCHEMA_VERSION,
        "kind": "repro-bench",
        "created": "2026-01-01T00:00:00Z",
        "seed": 0,
        "quick": False,
        "environment": {"python": "x", "numpy": "y", "machine": "z"},
        "suites": suites,
    }


def kernel_block(speedup=10.0, exact=True):
    return {
        "dtw_wavefront_len256": {
            "exact": exact,
            "scalar_ms": 1.0,
            "batch_ms_per_candidate": 0.1,
            "speedup": speedup,
        }
    }


def engine_block(candidates=100, distance="1.5"):
    return {
        "ru": {
            "counters": {
                "candidates": candidates,
                "page_accesses": 7,
                "dtw_computations": 3,
                "heap_pops": 11,
            },
            "distances": [distance],
            "matches": [[0, 640]],
            "wall_time_s": 0.01,
        }
    }


def serve_block(qps=60.0, exact=True, errors=0):
    return {
        "load_mixed_knn": {
            "clients": 8,
            "workers": 4,
            "requests": 96,
            "completed": 96,
            "errors": errors,
            "exact": exact,
            "throughput_qps": qps,
            "p50_ms": 100.0,
            "p99_ms": 200.0,
            "mean_queue_wait_ms": 50.0,
        }
    }


def shard_block(speedup=1.3, exact=True):
    return {
        "ru_cost_shards4": {
            "shards": 4,
            "executor": "thread",
            "unsharded_ms": 100.0,
            "sharded_ms": 100.0 / speedup,
            "speedup": speedup,
            "exact": exact,
        }
    }


class TestCompareGate:
    def test_identical_reports_pass(self):
        report = make_report(
            kernels=kernel_block(), engines=engine_block()
        )
        assert perf.compare(report, copy.deepcopy(report)) == []

    def test_wall_time_is_never_gated(self):
        base = make_report(engines=engine_block())
        cur = copy.deepcopy(base)
        cur["suites"]["engines"]["ru"]["wall_time_s"] = 99.0
        assert perf.compare(cur, base) == []

    def test_speedup_within_tolerance_passes(self):
        base = make_report(kernels=kernel_block(speedup=10.0))
        cur = make_report(kernels=kernel_block(speedup=8.01))
        assert perf.compare(cur, base) == []

    def test_environment_drift_above_floor_passes(self):
        # More than 20% below the baseline ratio, but still above the
        # absolute floor for dtw_wavefront_len256: the dual criterion
        # reads this as environment drift, not a regression.
        floor = perf.SPEEDUP_FLOORS["dtw_wavefront_len256"]
        base = make_report(kernels=kernel_block(speedup=2.0 * floor))
        cur = make_report(kernels=kernel_block(speedup=1.5 * floor))
        assert perf.compare(cur, base) == []

    def test_speedup_regression_fails(self):
        # Below the relative floor AND below the absolute floor: a
        # real regression (e.g. a de-vectorized kernel).
        base = make_report(kernels=kernel_block(speedup=10.0))
        cur = make_report(kernels=kernel_block(speedup=4.0))
        regressions = perf.compare(cur, base)
        assert len(regressions) == 1
        assert regressions[0].suite == "kernels"
        assert "fell below" in str(regressions[0])
        assert "absolute floor" in str(regressions[0])

    def test_unregistered_kernel_keeps_relative_gate(self):
        # A kernel with no SPEEDUP_FLOORS entry falls back to the pure
        # relative criterion (safe default for newly added benches).
        base = make_report(
            kernels={"new_kernel": dict(kernel_block()["dtw_wavefront_len256"])}
        )
        cur = copy.deepcopy(base)
        cur["suites"]["kernels"]["new_kernel"]["speedup"] = 7.9
        regressions = perf.compare(cur, base)
        assert len(regressions) == 1
        assert "absolute floor" not in str(regressions[0])

    def test_exactness_failure_fails(self):
        base = make_report(kernels=kernel_block())
        cur = make_report(kernels=kernel_block(exact=False))
        regressions = perf.compare(cur, base)
        assert any("oracle" in r.message for r in regressions)

    def test_missing_benchmark_fails(self):
        base = make_report(kernels=kernel_block())
        cur = make_report(kernels={})
        regressions = perf.compare(cur, base)
        assert any("disappeared" in r.message for r in regressions)

    def test_counter_drift_fails(self):
        base = make_report(engines=engine_block(candidates=100))
        cur = make_report(engines=engine_block(candidates=101))
        regressions = perf.compare(cur, base)
        assert len(regressions) == 1
        assert "candidates" in regressions[0].message

    def test_distance_digest_drift_fails(self):
        base = make_report(engines=engine_block(distance="1.5"))
        cur = make_report(engines=engine_block(distance="1.5000001"))
        regressions = perf.compare(cur, base)
        assert any("distances" in r.message for r in regressions)

    def test_only_shared_suites_compared(self):
        # A kernels-only CI run against an all-suites baseline must not
        # complain about the missing engine data.
        base = make_report(
            kernels=kernel_block(), engines=engine_block()
        )
        cur = make_report(kernels=kernel_block())
        assert perf.compare(cur, base) == []

    def test_regression_renders_as_suite_slash_name(self):
        regression = perf.Regression("kernels", "dtw", "broke")
        assert str(regression) == "kernels/dtw: broke"


class TestServeGate:
    def test_identical_reports_pass(self):
        report = make_report(serve=serve_block())
        assert perf.compare(report, copy.deepcopy(report)) == []

    def test_inexact_responses_fail(self):
        base = make_report(serve=serve_block())
        cur = make_report(serve=serve_block(exact=False))
        regressions = perf.compare(cur, base)
        assert any("oracle" in r.message for r in regressions)

    def test_errors_fail(self):
        base = make_report(serve=serve_block())
        cur = make_report(serve=serve_block(errors=2))
        regressions = perf.compare(cur, base)
        assert any("errored" in r.message for r in regressions)

    def test_missing_run_fails(self):
        base = make_report(serve=serve_block())
        cur = make_report(serve={})
        regressions = perf.compare(cur, base)
        assert any("disappeared" in r.message for r in regressions)

    def test_throughput_dual_criterion(self):
        base = make_report(serve=serve_block(qps=60.0))
        # Below the relative floor (60 * 0.5 = 30) but above the 5 qps
        # absolute floor: environment drift, not a regression.
        slow_host = make_report(serve=serve_block(qps=10.0))
        assert perf.compare(slow_host, base) == []
        # Below both criteria: a real throughput regression.
        broken = make_report(serve=serve_block(qps=2.0))
        regressions = perf.compare(broken, base)
        assert len(regressions) == 1
        assert "absolute floor" in regressions[0].message

    def test_format_report_renders_serve(self):
        text = perf.format_report(make_report(serve=serve_block()))
        assert "load_mixed_knn" in text
        assert "qps" in text

    def test_quick_suite_smoke(self):
        block = perf.run_serve_suite(seed=0, quick=True)
        record = block["load_mixed_knn"]
        assert record["exact"] is True
        assert record["errors"] == 0
        assert record["completed"] == record["requests"]
        assert record["throughput_qps"] > 0
        assert record["p99_ms"] >= record["p50_ms"]


class TestShardGate:
    def test_identical_reports_pass(self):
        report = make_report(shard=shard_block())
        assert perf.compare(report, copy.deepcopy(report)) == []

    def test_exactness_always_gated(self):
        base = make_report(shard=shard_block())
        cur = make_report(shard=shard_block(exact=False))
        regressions = perf.compare(cur, base)
        assert any("byte-identical" in r.message for r in regressions)

    def test_missing_run_fails(self):
        base = make_report(shard=shard_block())
        cur = make_report(shard={})
        regressions = perf.compare(cur, base)
        assert any("disappeared" in r.message for r in regressions)

    def test_speedup_dual_criterion(self):
        base = make_report(shard=shard_block(speedup=1.3))
        # Below the 1.0x floor but within the relative tolerance of the
        # committed baseline (1.3 * 0.5 = 0.65): a single-core host, not
        # a regression.
        single_core = make_report(shard=shard_block(speedup=0.7))
        assert perf.compare(single_core, base) == []
        # Below the floor AND collapsed versus the baseline: a genuine
        # parallel-path regression.
        broken = make_report(shard=shard_block(speedup=0.2))
        regressions = perf.compare(broken, base)
        assert len(regressions) == 1
        assert "floor" in regressions[0].message

    def test_speedup_above_floor_never_fails(self):
        # A host that still clears the absolute floor passes no matter
        # how fast the baseline host was.
        base = make_report(shard=shard_block(speedup=3.5))
        cur = make_report(shard=shard_block(speedup=1.05))
        assert perf.compare(cur, base) == []

    def test_format_report_renders_shard(self):
        text = perf.format_report(make_report(shard=shard_block()))
        assert "ru_cost_shards4" in text
        assert "speedup" in text

    def test_quick_suite_smoke(self):
        block = perf.run_shard_suite(seed=0, quick=True)
        for record in block.values():
            assert record["exact"] is True
            assert record["speedup"] > 0
            assert record["sharded_ms"] > 0


def storage_block(exact=True, page_accesses=248):
    return {
        "ru_cost_raw": {
            "normalize": False,
            "file_ms": 20.0,
            "mmap_ms": 16.0,
            "speedup": 1.25,
            "page_accesses": page_accesses,
            "exact": exact,
        }
    }


class TestStorageGate:
    def test_identical_reports_pass(self):
        report = make_report(storage=storage_block())
        assert perf.compare(report, copy.deepcopy(report)) == []

    def test_exactness_always_gated(self):
        base = make_report(storage=storage_block())
        cur = make_report(storage=storage_block(exact=False))
        regressions = perf.compare(cur, base)
        assert any("byte-identical" in r.message for r in regressions)

    def test_num_io_drift_fails(self):
        base = make_report(storage=storage_block())
        cur = make_report(storage=storage_block(page_accesses=249))
        regressions = perf.compare(cur, base)
        assert any("NUM_IO drifted" in r.message for r in regressions)

    def test_missing_run_fails(self):
        base = make_report(storage=storage_block())
        cur = make_report(storage={})
        regressions = perf.compare(cur, base)
        assert any("disappeared" in r.message for r in regressions)

    def test_timing_is_never_gated(self):
        # The mmap-vs-file ratio depends on the host's page cache and
        # allocator; only exactness and NUM_IO are gated.
        base = make_report(storage=storage_block())
        cur = make_report(storage=storage_block())
        cur["suites"]["storage"]["ru_cost_raw"]["speedup"] = 0.01
        cur["suites"]["storage"]["ru_cost_raw"]["mmap_ms"] = 2000.0
        assert perf.compare(cur, base) == []

    def test_format_report_renders_storage(self):
        text = perf.format_report(make_report(storage=storage_block()))
        assert "ru_cost_raw" in text
        assert "mmap" in text

    def test_quick_suite_smoke(self):
        block = perf.run_storage_suite(seed=0, quick=True)
        assert set(block) == {"ru_cost_raw", "ru_cost_znorm"}
        for record in block.values():
            assert record["exact"] is True
            assert record["mmap_ms"] > 0
            assert record["file_ms"] > 0
        assert block["ru_cost_raw"]["page_accesses"] == 248


class TestReportIO:
    def test_round_trip(self, tmp_path):
        report = make_report(kernels=kernel_block())
        path = str(tmp_path / "report.json")
        perf.write_report(report, path)
        assert perf.load_report(path) == report

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = str(tmp_path / "bad.json")
        perf.write_report({"kind": "something-else", "schema": 1}, path)
        with pytest.raises(ValueError, match="not a repro-bench report"):
            perf.load_report(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = str(tmp_path / "bad.json")
        report = make_report()
        report["schema"] = perf.SCHEMA_VERSION + 1
        perf.write_report(report, path)
        with pytest.raises(ValueError, match="schema"):
            perf.load_report(path)

    def test_default_json_name(self):
        from datetime import datetime, timezone

        now = datetime(2026, 8, 6, tzinfo=timezone.utc)
        assert perf.default_json_name(now) == "BENCH_2026-08-06.json"

    def test_run_suites_metadata(self):
        report = perf.run_suites((), seed=3, quick=True)
        assert report["kind"] == "repro-bench"
        assert report["schema"] == perf.SCHEMA_VERSION
        assert report["seed"] == 3
        assert report["quick"] is True
        assert report["suites"] == {}
        assert "numpy" in report["environment"]


class TestCLIExitCodes:
    """The documented contract: 0 gate pass, 1 regression, 2 usage."""

    @pytest.fixture()
    def fake_suite(self, monkeypatch):
        report = make_report(kernels=kernel_block(speedup=10.0))

        def fake_run_suites(suites, seed=0, quick=False):
            return copy.deepcopy(report)

        monkeypatch.setattr(perf, "run_suites", fake_run_suites)
        return report

    def test_missing_baseline_is_usage_error(self, fake_suite, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--baseline", missing]) == 2

    def test_update_baseline_then_gate_passes(self, fake_suite, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        assert main(["bench", "--baseline", baseline, "--update-baseline"]) == 0
        assert main(["bench", "--baseline", baseline]) == 0

    def test_regression_exits_one(self, fake_suite, tmp_path, monkeypatch):
        baseline = str(tmp_path / "baseline.json")
        better = copy.deepcopy(fake_suite)
        better["suites"]["kernels"]["dtw_wavefront_len256"]["speedup"] = 100.0
        perf.write_report(better, baseline)
        # Push the current run below both the relative criterion and
        # the kernel's absolute floor.
        worse = copy.deepcopy(fake_suite)
        worse["suites"]["kernels"]["dtw_wavefront_len256"]["speedup"] = 4.0

        def fake_run_suites(suites, seed=0, quick=False):
            return copy.deepcopy(worse)

        monkeypatch.setattr(perf, "run_suites", fake_run_suites)
        assert main(["bench", "--baseline", baseline]) == 1

    def test_json_report_written(self, fake_suite, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        out = str(tmp_path / "out.json")
        main(["bench", "--baseline", baseline, "--update-baseline",
              "--json", out])
        assert perf.load_report(out)["suites"]["kernels"]

    def test_corrupt_baseline_is_usage_error(self, fake_suite, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"kind": "other"}')
        assert main(["bench", "--baseline", str(baseline)]) == 2


class TestKernelBenchSmoke:
    def test_paa_bench_runs_and_is_exact(self):
        rng = np.random.default_rng(0)
        record = perf._bench_paa(rng, quick=True)
        assert record["exact"] is True
        assert record["speedup"] > 0
        assert record["windows"] == 2048  # quick mode keeps sizes fixed

    def test_quick_mode_keeps_dtw_config(self):
        # The committed baseline was recorded in full mode; quick CI
        # runs stay comparable only if the measured problem is
        # identical.  Guard the config knobs the gate depends on.
        rng = np.random.default_rng(0)
        record = perf._bench_lb_paa(rng, quick=True)
        assert record["entries"] == 1000

    def test_format_report_renders_both_suites(self):
        report = make_report(
            kernels=kernel_block(), engines=engine_block()
        )
        text = perf.format_report(report)
        assert "dtw_wavefront_len256" in text
        assert "ru" in text
        assert "10.00x" in text
