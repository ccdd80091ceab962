"""Unit tests for the kernel perf-regression gate (``repro bench``).

The gate logic (:func:`repro.bench.perf.compare`), the report schema
round-trip, and the CLI exit-code contract are tested on synthetic
reports so the suite stays fast; one real kernel benchmark runs end to
end as a smoke check.
"""

import copy
import pathlib

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


class TestCompareGate:
    def test_identical_reports_pass(self):
        report = make_report(kernels=kernel_block())
        assert perf.compare(report, copy.deepcopy(report)) == []

    def test_wall_time_is_never_gated(self):
        # Only the machine-relative ratio is compared, never raw times.
        base = make_report(kernels=kernel_block())
        cur = copy.deepcopy(base)
        cur["suites"]["kernels"]["dtw_wavefront_len256"]["scalar_ms"] = 99.0
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

    def test_only_shared_suites_compared(self):
        # A report written before the other suites were retired (e.g.
        # BENCH_2026-08-06.json) still works as a baseline: blocks other
        # than ``kernels`` are ignored.
        base = make_report(
            kernels=kernel_block(), engines={"ru": {"counters": {}}}
        )
        cur = make_report(kernels=kernel_block())
        assert perf.compare(cur, base) == []

    def test_regression_renders_as_suite_slash_name(self):
        regression = perf.Regression("kernels", "dtw", "broke")
        assert str(regression) == "kernels/dtw: broke"


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

    def test_run_report_metadata(self, monkeypatch):
        monkeypatch.setattr(
            perf, "run_kernel_suite", lambda seed, quick: kernel_block()
        )
        report = perf.run_report(seed=3, quick=True)
        assert report["kind"] == "repro-bench"
        assert report["schema"] == perf.SCHEMA_VERSION
        assert report["seed"] == 3
        assert report["quick"] is True
        assert report["suites"] == {"kernels": kernel_block()}
        assert "numpy" in report["environment"]

    def test_committed_baseline_holds_exactly_what_bench_runs(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        baseline = perf.load_report(
            str(root / "benchmarks" / "baseline.json")
        )
        assert list(baseline["suites"]) == ["kernels"]
        assert set(baseline["suites"]["kernels"]) == set(
            perf._KERNEL_BENCHES
        )
        assert set(perf.SPEEDUP_FLOORS) == set(perf._KERNEL_BENCHES)


class TestCLIExitCodes:
    """The documented contract: 0 gate pass, 1 regression, 2 usage."""

    @pytest.fixture()
    def fake_suite(self, monkeypatch):
        report = make_report(kernels=kernel_block(speedup=10.0))

        def fake_run_report(seed=0, quick=False):
            return copy.deepcopy(report)

        monkeypatch.setattr(perf, "run_report", fake_run_report)
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

        def fake_run_report(seed=0, quick=False):
            return copy.deepcopy(worse)

        monkeypatch.setattr(perf, "run_report", fake_run_report)
        assert main(["bench", "--baseline", baseline]) == 1

    def test_inexact_kernel_exits_one(self, fake_suite, tmp_path, monkeypatch):
        baseline = str(tmp_path / "baseline.json")
        perf.write_report(fake_suite, baseline)
        broken = make_report(kernels=kernel_block(exact=False))
        monkeypatch.setattr(
            perf, "run_report", lambda seed=0, quick=False: broken
        )
        assert main(["bench", "--baseline", baseline]) == 1
        # Recording a baseline from a broken kernel reports it too.
        assert main(["bench", "--baseline", baseline, "--update-baseline"]) == 1

    def test_retired_suite_flag_is_usage_error(self, fake_suite):
        with pytest.raises(SystemExit) as usage:
            main(["bench", "--suite", "kernels"])
        assert usage.value.code == 2

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

    def test_format_report_renders_kernel_table(self):
        text = perf.format_report(make_report(kernels=kernel_block()))
        assert "dtw_wavefront_len256" in text
        assert "10.00x" in text
