#!/usr/bin/env python3
"""End-to-end benchmark of the repro library and its ``repro serve`` program.

One workload, as the benchmark driver calls it (prints the metrics by
name, then one JSON object as the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload knn_raw --seed 0 --seconds 8 --trace 0

Every workload, each in its own subprocess, with a JSON report::

    python3 benchmarks/e2e/run.py --seed 0 --out results/point.json [--trace 1]

Two or more reports against the bounds of ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare base.json other.json

README.md explains the workloads, the metrics and the layers.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

sys.dont_write_bytecode = True

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").exists():
    # Never fall back to a copy of the program installed elsewhere.
    sys.exit(f"run.py: no program under test at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import layers
import report
import workloads
from workloads import INDEXED_CONFIGS, WORKLOADS, Workload

#: An untraced run sets up at least this often and reports the median;
#: cheap set-ups repeat until the budget or the maximum is reached.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 1.0
SELF_TIME_TOLERANCE = 0.05
#: Prefix of the stdout line that carries ``report.bounded_layer``.
BOUNDED_LAYER_TAG = "bounded-layer "


def declared_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def repeated_setup(workload: Workload, minimum: int) -> None:
    """Set up, tear down and set up again; the last set-up stays."""
    started = time.perf_counter()
    done = 0
    while done < minimum or (
        minimum > 1
        and time.perf_counter() - started < SETUP_BUDGET_S
        and done < MAX_SETUPS
    ):
        workload.close()
        workload.timed_setup()
        done += 1


def run_workload(args: argparse.Namespace, workdir: pathlib.Path) -> int:
    declared = declared_benchmark()
    recorder = layers.SpanRecorder()
    expected = workloads.load_expected(args.smoke)
    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, recorder, workdir, expected
    )
    trace = bool(args.trace)
    aggregator: Optional[layers.TraceAggregator] = None
    traced_samples: List[Any] = []
    rounds: List[report.Round] = []
    shape = (0.0, 0.0)
    probes: Dict[str, float] = {}
    try:
        repeated_setup(workload, 1 if (trace or args.smoke) else MIN_SETUPS)
        shape = workload.index_shape()
        workload.warm_up()
        if trace:
            rounds.append(workload.run_round())
            if workload.db is not None:
                aggregator = layers.TraceAggregator()
                traced_samples, _ = workload.run_round(aggregator)
        else:
            started = time.perf_counter()
            while not rounds or time.perf_counter() - started < args.seconds:
                rounds.append(workload.run_round())
        checks = workload.finish(trace)
        if trace:
            probes = workload.probes()
    finally:
        workload.close()

    samples = [s for round_samples, _ in rounds for s in round_samples]
    samples.extend(traced_samples)
    attempted = len(samples) + len(checks)
    failed = sum(not s.ok for s in samples) + sum(not c for c in checks)
    if aggregator is not None:
        conformance = [
            aggregator.fetch_mismatches == 0,
            aggregator.dropped_spans == 0,
            abs(aggregator.self_time_coverage - 1.0) <= SELF_TIME_TOLERANCE,
        ]
        attempted += len(conformance)
        failed += sum(not c for c in conformance)

    also: Dict[str, float] = {}
    if trace:
        values = report.per_layer(
            [m["name"] for m in declared["per_layer"]],
            workload, rounds[0], traced_samples, aggregator, shape, probes,
        )
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = report.end_to_end(workload, rounds)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        also = report.bounded_layer(workload, rounds)
    if set(values) != set(units):
        raise SystemExit(
            f"run.py: metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    if args.spans_out:
        layers.write_chrome_trace(args.spans_out, recorder, aggregator)

    print(f"workload {workload.name}: {len(rounds)} untraced round(s), "
          f"{attempted} attempted, {failed} failed; host.calibration_ms "
          f"{layers.host_calibration_ms():.3f}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.4f} {units[name]}")
    if also:
        layer_units = {
            name: unit for name, (unit, _, _)
            in report.BOUNDED_LAYER_METRICS[workload.name].items()
        }
        for name, value in also.items():
            print(f"  {name:<40} {value:>14.4f} {layer_units[name]}")
        print(BOUNDED_LAYER_TAG + json.dumps({
            name: {"value": value, "unit": layer_units[name]}
            for name, value in also.items()
        }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


def in_scratch_directory(function: Any, args: argparse.Namespace) -> int:
    """Run with every temporary file inside the checkout, then remove them."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    # The mmap backend and the serve child take their scratch from here.
    tempfile.tempdir = str(workdir)
    try:
        return function(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_sha": sha,
        "platform": platform.platform(),
        "host.calibration_ms": layers.host_calibration_ms(),
    }


def child_run(
    args: argparse.Namespace, name: str, trace: int, seconds: int,
    spans_out: Optional[str],
) -> Optional[Dict[str, Any]]:
    """One workload in a child; ``None`` when it printed no result."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if spans_out:
        command += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=600
    )
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(BOUNDED_LAYER_TAG):
            result["bounded_layer"] = json.loads(
                line[len(BOUNDED_LAYER_TAG):]
            )
    return result


def run_suite(args: argparse.Namespace) -> int:
    declared = declared_benchmark()
    seconds = 0 if args.smoke else (
        args.seconds if args.seconds is not None else declared["run_seconds"]
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    document: Dict[str, Any] = {
        "schema": 1,
        "environment": environment(),
        "seed": args.seed,
        "smoke": args.smoke,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in names:
        results = [
            child_run(args, name, 0, seconds, None)
            for _ in range(args.repeats)
        ]
        entry: Dict[str, Any] = {"runs": [run for run in results if run]}
        if entry["runs"]:
            entry["median"] = {
                metric: statistics.median(
                    run["metrics"][metric]["value"] for run in entry["runs"]
                )
                for metric in entry["runs"][0]["metrics"]
            }
        if args.trace:
            spans_out = str(out.with_suffix("")) + f".{name}.trace.json"
            entry["traced"] = child_run(args, name, 1, seconds, spans_out)
            results.append(entry["traced"])
        if None in results:
            # A workload that could not start fails every request it owed.
            entry["failed_share"] = 1.0
        else:
            entry["failed_share"] = sum(
                result["failed"] for result in results
            ) / sum(result["attempted"] for result in results)
        document["workloads"][name] = entry
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"\n{'workload':<16}{'metric':<32}{'median':>14}  unit")
    for name, entry in document["workloads"].items():
        for metric in declared["end_to_end"]:
            value = entry.get("median", {}).get(metric["name"], float("nan"))
            print(f"{name:<16}{metric['name']:<32}{value:>14.4f}  "
                  f"{metric['unit']}")
        for metric, (unit, _, _) in report.BOUNDED_LAYER_METRICS.get(
            name, {}
        ).items():
            values = report.run_values(entry, "bounded_layer", metric)
            value = statistics.median(values) if values else float("nan")
            print(f"{name:<16}{metric:<32}{value:>14.4f}  {unit}")
        print(f"{name:<16}{'failed_share':<32}"
              f"{entry['failed_share']:>14.4f}  fraction")
    print(f"wrote {out}")
    return 0 if all(
        entry["failed_share"] == 0 for entry in document["workloads"].values()
    ) else 1


def run_compare(paths: Sequence[str]) -> int:
    declared = declared_benchmark()
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    any_worse = False
    for path, other in zip(paths[1:], documents[1:]):
        print(f"base {paths[0]}  vs  other {path}")
        rows, worse = report.compare(documents[0], other, declared)
        print("\n".join(rows))
        any_worse = any_worse or worse
    return 1 if any_worse else 0


# ----------------------------------------------------------------------
# --update-expected
# ----------------------------------------------------------------------


def expected_answers(
    args: argparse.Namespace, workdir: pathlib.Path
) -> int:
    """Write the answers every engine configuration agrees on."""
    document: Dict[str, Any] = {}
    recorder = layers.SpanRecorder()
    for scale, smoke in (("full", False), ("smoke", True)):
        section: Dict[str, Any] = {}
        for name in ("knn_raw", "knn_znorm", "scan_baseline", "serve_mixed"):
            workload = WORKLOADS[name](0, smoke, recorder, workdir, None)
            queries = workload.load_population()
            workload.build_database()
            configs = set(INDEXED_CONFIGS) | set(workload.configs)
            answers: Dict[str, Any] = {}
            for index, query in enumerate(queries):
                results = [
                    workloads.answer_of(
                        workload.db.search(
                            query, k=workloads.K, method=config.method,
                            deferred=config.deferred,
                            normalize=workload.normalize,
                        ).matches
                    )
                    for config in sorted(configs, key=lambda c: c.label)
                ]
                for other in results[1:]:
                    if not workloads.answers_equal(other, results[0]):
                        raise SystemExit(
                            f"{name} query {index}: engine configurations "
                            f"disagree; refusing to write expected answers"
                        )
                answers[str(index)] = results[0]
            workload.close()
            section[name] = answers
            print(f"{scale}/{name}: {len(answers)} answers, "
                  f"{len(configs)} configurations agree")
        document[scale] = section
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws request order and written values")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measure whole rounds until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer pass (with --out: as well)")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 10, one round")
    parser.add_argument("--out", help="run every workload, write this report")
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --out: untraced runs per workload")
    parser.add_argument("--spans-out",
                        help="write this run's spans as Chrome-trace JSON")
    parser.add_argument("--compare", nargs="+", metavar="REPORT")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        if len(args.compare) < 2:
            parser.error("--compare needs a base report and at least one other")
        return run_compare(args.compare)
    if args.update_expected:
        return in_scratch_directory(expected_answers, args)
    if args.out:
        return run_suite(args)
    if not args.workload:
        parser.error("give --workload NAME, or --out FILE for every workload")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else declared_benchmark()["run_seconds"]
    return in_scratch_directory(run_workload, args)


if __name__ == "__main__":
    sys.exit(main())
