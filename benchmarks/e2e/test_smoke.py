"""Smoke test of the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Two
``--smoke`` runs (sizes / 10, one round) must emit exactly the workloads
and metrics ``BENCHMARK.json`` declares, and repeat every exact count.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from report import BOUNDED_LAYER_METRICS, EXACT_COUNTS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_LAYER = {
    "ingest_restart": (
        "ingest.replayed_records", "storage.wal_bytes_per_user_byte",
    ),
    "knn_raw": ("engines.heap_pops", "index.probe_count", "index.nodes"),
}


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def smoke_run(path: pathlib.Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--seed", "0", "--out", str(path)],
        check=True, cwd=ROOT, timeout=300,
    )
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reports(tmp_path_factory: pytest.TempPathFactory) -> list:
    directory = tmp_path_factory.mktemp("e2e-smoke")
    return [smoke_run(directory / f"smoke{n}.json") for n in (1, 2)]


def test_declaration_is_well_formed(declared: dict) -> None:
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(declared["workloads"]) <= 8
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_emitted_names_and_units_are_the_declared_ones(
    declared: dict, reports: list
) -> None:
    workloads = sorted(w["name"] for w in declared["workloads"])
    for report in reports:
        assert sorted(report["workloads"]) == workloads
        for name, entry in report["workloads"].items():
            assert entry["failed_share"] == 0, name
            for run, kind in (
                (entry["runs"][0], "end_to_end"), (entry["traced"], "per_layer")
            ):
                assert run["correct"] and run["failed"] == 0, (name, kind)
                assert {
                    metric: value["unit"]
                    for metric, value in run["metrics"].items()
                } == {m["name"]: m["unit"] for m in declared[kind]}, (name, kind)
            for metric, value in entry["runs"][0]["metrics"].items():
                assert value["value"] > 0, (name, metric)
            assert {
                metric: value["unit"] for metric, value
                in entry["runs"][0].get("bounded_layer", {}).items()
            } == {
                metric: unit for metric, (unit, _, _)
                in BOUNDED_LAYER_METRICS.get(name, {}).items()
            }, name


def test_exact_counts_repeat(reports: list) -> None:
    first, second = (report["workloads"] for report in reports)
    for metric, names in EXACT_COUNTS.items():
        for name in names:
            assert (
                first[name]["runs"][0]["metrics"][metric]
                == second[name]["runs"][0]["metrics"][metric]
            ), (name, metric)
    for name, metrics in EXACT_LAYER.items():
        for metric in metrics:
            assert (
                first[name]["traced"]["metrics"][metric]
                == second[name]["traced"]["metrics"][metric]
            ), (name, metric)


def test_traced_pass_reconciles_with_num_io(reports: list) -> None:
    for report in reports:
        for name, entry in report["workloads"].items():
            if name == "serve_mixed":
                continue  # the service is a child process; no tracer inside
            metrics = entry["traced"]["metrics"]
            assert metrics["obs.buffer_fetch_spans_equal_num_io"]["value"] == 1
            assert metrics["obs.tracing_overhead_ratio"]["value"] > 0
