"""Tests for the ASCII chart renderer (repro.bench.figures) and for
how the figure benchmarks write their tables."""

import math

from benchmarks import conftest as figures_conftest
from repro.bench.figures import ascii_chart, chart_from_results


class TestAsciiChart:
    def test_contains_title_labels_and_legend(self):
        chart = ascii_chart(
            "My chart",
            [5, 25, 50],
            {"SeqScan": [100.0, 100.0, 100.0], "RU": [1.0, 2.0, 4.0]},
        )
        assert "My chart" in chart
        assert "o=SeqScan" in chart
        assert "x=RU" in chart
        for label in ("5", "25", "50"):
            assert label in chart

    def test_log_scale_orders_rows(self):
        chart = ascii_chart("t", [1], {"hi": [1000.0], "lo": [1.0]})
        lines = chart.splitlines()
        hi_row = next(i for i, l in enumerate(lines) if "o" in l and "=" not in l)
        lo_row = next(i for i, l in enumerate(lines) if "x" in l and "=" not in l)
        assert hi_row < lo_row  # larger value drawn higher

    def test_handles_empty_and_nonpositive(self):
        assert "(no positive data)" in ascii_chart("t", [1], {"a": [0.0]})
        assert "(no positive data)" in ascii_chart(
            "t", [1], {"a": [math.inf]}
        )

    def test_single_point(self):
        chart = ascii_chart("t", [1], {"a": [5.0]})
        assert "o" in chart


class TestChartFromResults:
    def test_uses_metric_accessor(self):
        class FakeResult:
            def __init__(self, value):
                self._value = value

            def metric(self, name):
                return self._value

        rows = {
            5: {"A": FakeResult(10.0), "B": FakeResult(1.0)},
            25: {"A": FakeResult(20.0), "B": FakeResult(2.0)},
        }
        chart = chart_from_results("c", rows, "candidates")
        assert "o=A" in chart and "x=B" in chart


class TestRecord:
    def test_a_regeneration_leaves_one_copy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(figures_conftest, "RESULTS_DIR", tmp_path)
        table = tmp_path / "fig14_buffer_size.txt"
        for _ in range(2):  # two sessions
            monkeypatch.setattr(figures_conftest, "_RECORDED", set())
            figures_conftest.record("fig14_buffer_size", "block one")
            figures_conftest.record("fig14_buffer_size", "block two")
            assert table.read_text() == "block one\nblock two\n"
