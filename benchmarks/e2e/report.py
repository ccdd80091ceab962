"""Turns the samples of one run into the metrics ``BENCHMARK.json`` declares.

``end_to_end`` is computed from untraced rounds only.  ``per_layer``
starts every declared metric at 0 and fills in the layers the workload
exercised, so 0 reads "this workload does no work in that layer".
Every value is reported as measured.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import TraceAggregator, host_calibration_ms
from workloads import K, Sample, Workload

Round = Tuple[List[Sample], float]

#: Workloads on which an end-to-end metric is a count that repeats
#: exactly: ``--compare`` holds it to a bound of 0 there, whatever
#: ``BENCHMARK.json`` must allow the noisiest workload.
EXACT_COUNTS = {
    "page_accesses_per_query":
        ("knn_raw", "knn_znorm", "scan_baseline", "shard_fanout"),
    "candidates_per_query":
        ("knn_raw", "knn_znorm", "scan_baseline", "shard_fanout"),
}
#: Per-layer metrics that untraced runs report as well and ``--compare``
#: bounds: they exist on one workload only, so ``BENCHMARK.json`` cannot
#: list them as end-to-end.  workload -> metric -> (unit, better, bound).
BOUNDED_LAYER_METRICS = {
    "ingest_restart": {
        "ingest.ops_per_s": ("1/s", "higher", 0.10),
        "storage.recover_s": ("s", "lower", 0.10),
        "storage.open_s": ("s", "lower", 0.10),
        "storage.wal_bytes_per_user_byte": ("ratio", "lower", 0.0),
    },
}
#: ``setup_s`` counts as worse only beyond its bound and this many seconds.
SETUP_FLOOR_S = 0.5

#: per-layer metric <- repo tracer span whose self-time it reports.
SELF_TIME_SPANS = {
    "engines.run_self_ms": "engine.run",
    "engines.heap_pop_self_ms": "engine.heap_pop",
    "engines.lb_batch_self_ms": "engine.lb_batch",
    "engines.verify_self_ms": "candidate.verify",
    "engines.finalize_self_ms": "engine.finalize",
    "engines.scan_sequence_self_ms": "scan.sequence",
    "index.probe_self_ms": "index.probe",
    "storage.buffer_fetch_self_ms": "buffer.fetch",
    "storage.pager_read_self_ms": "pager.read",
    "storage.deferred_drain_self_ms": "deferred.drain",
}
COUNTERS = ("heap_pops", "node_expansions", "dtw_computations",
            "lb_keogh_computations")
CONFIG_LABELS = ("ru_cost", "ru_cost_d", "ru_d", "hlmj_d")


def answered_queries(samples: Sequence[Sample]) -> List[Sample]:
    return [
        s for s in samples if s.kind == "query" and s.outcome == "answered"
    ]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    workload: Workload, rounds: Sequence[Round]
) -> Dict[str, float]:
    """The metrics a caller of the system sees (tracing off)."""
    queries = answered_queries([s for samples, _ in rounds for s in samples])
    latencies = [s.latency_s for s in queries]
    return {
        "setup_s": statistics.median(workload.setup_times),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "throughput_qps": statistics.median(
            len(samples) / elapsed for samples, elapsed in rounds
        ),
        "page_accesses_per_query": mean(
            [s.stats["page_accesses"] for s in queries]
        ),
        "candidates_per_query": mean([s.stats["candidates"] for s in queries]),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def bounded_layer(
    workload: Workload, rounds: Sequence[Round]
) -> Dict[str, float]:
    """The workload's ``BOUNDED_LAYER_METRICS``, from untraced rounds."""
    if workload.name not in BOUNDED_LAYER_METRICS:
        return {}
    restart: Dict[str, float] = workload.restart  # type: ignore[attr-defined]
    return {
        "ingest.ops_per_s": statistics.median(
            ingest_ops_per_s(samples) for samples, _ in rounds
        ),
        "storage.recover_s": restart["recover_s"],
        "storage.open_s": restart["open_s"],
        "storage.wal_bytes_per_user_byte": restart["wal_bytes_per_user_byte"],
    }


def ingest_ops_per_s(samples: Sequence[Sample]) -> float:
    """The fsynced writes of one round over their own elapsed time."""
    writes = [s.latency_s for s in samples if s.kind != "query"]
    return ratio(len(writes), sum(writes))


def host_metrics() -> Dict[str, float]:
    return {
        "host.calibration_ms": host_calibration_ms(),
        "host.nproc": float(os.cpu_count() or 1),
        "host.loadavg_1m": os.getloadavg()[0],
    }


def per_layer(
    names: Sequence[str],
    workload: Workload,
    untraced: Round,
    traced_samples: Sequence[Sample],
    aggregator: Optional[TraceAggregator],
    index_shape: Tuple[float, float],
    probes: Dict[str, float],
) -> Dict[str, float]:
    metrics = dict.fromkeys(names, 0.0)
    samples, elapsed = untraced
    queries = answered_queries(samples)

    def total(key: str, over: Sequence[Sample] = queries) -> float:
        return float(sum(s.stats.get(key, 0) for s in over))

    for counter in COUNTERS:
        metrics[f"engines.{counter}"] = ratio(total(counter), len(queries))
    metrics["engines.lb_keogh_prune_ratio"] = ratio(
        total("pruned_by_lb_keogh"), total("lb_keogh_computations")
    )
    metrics["engines.dtw_per_result"] = ratio(
        total("dtw_computations"), len(queries) * K
    )
    for label in CONFIG_LABELS:
        latencies = [s.latency_s for s in queries if s.config == label]
        if latencies:
            metrics[f"engines.{label}_p50_ms"] = (
                statistics.median(latencies) * 1e3
            )
    metrics["storage.buffer_hit_ratio"] = 1.0 - ratio(
        total("page_accesses"), total("logical_reads")
    )
    metrics["storage.sequential_share"] = ratio(
        total("sequential_page_accesses"), total("page_accesses")
    )
    metrics["index.build_s"] = workload.build_s
    metrics["index.nodes"], metrics["index.height"] = index_shape

    traced_queries = answered_queries(traced_samples)
    if aggregator is not None and traced_queries:
        for name, span in SELF_TIME_SPANS.items():
            metrics[name] = (
                aggregator.self_s[span] / len(traced_queries) * 1e3
            )
        metrics["index.probe_count"] = (
            aggregator.counts["index.probe"] / len(traced_queries)
        )
        metrics["obs.tracing_overhead_ratio"] = ratio(
            mean([s.latency_s for s in traced_queries]),
            mean([s.latency_s for s in queries]),
        )
        metrics["obs.buffer_fetch_spans_equal_num_io"] = float(
            aggregator.fetch_mismatches == 0
        )

    metrics.update(serve_layer(workload, samples, elapsed))
    metrics.update(shard_layer(workload, queries))
    metrics.update(ingest_layer(workload, samples))
    metrics.update(probes)
    metrics.update(host_metrics())
    return metrics


def serve_layer(
    workload: Workload, samples: Sequence[Sample], elapsed: float
) -> Dict[str, float]:
    single: Sequence[Sample] = getattr(workload, "single_samples", ())
    if not single:
        return {}
    queries = answered_queries(samples)
    single_queries = answered_queries(single)

    def mean_ms(key: str, over: Sequence[Sample]) -> float:
        return mean([s.extra[key] for s in over]) * 1e3

    single_qps = len(single) / workload.single_elapsed_s  # type: ignore[attr-defined]
    return {
        "serve.queue_wait_mean_ms": mean_ms("queue_wait_s", queries),
        "serve.execution_mean_ms": mean_ms("execution_s", queries),
        "serve.wire_overhead_mean_ms": mean(
            [
                s.latency_s - s.extra["queue_wait_s"] - s.extra["execution_s"]
                for s in queries
            ]
        )
        * 1e3,
        "serve.single_client_qps": single_qps,
        "serve.concurrency_scaling": ratio(len(samples) / elapsed, single_qps),
        "serve.exec_inflation": ratio(
            mean_ms("execution_s", queries),
            mean_ms("execution_s", single_queries),
        ),
        "serve.rejected": float(
            sum(s.outcome == "rejected" for s in samples)
        ),
        "serve.partial": float(sum(s.outcome == "partial" for s in samples)),
    }


def shard_layer(
    workload: Workload, queries: Sequence[Sample]
) -> Dict[str, float]:
    unsharded = answered_queries(getattr(workload, "unsharded_samples", ()))
    if not unsharded:
        return {}

    def total(key: str, over: Sequence[Sample]) -> float:
        return float(sum(s.stats[key] for s in over))

    slowest = mean([s.extra["slowest_shard_s"] for s in queries])
    return {
        "shard.speedup_vs_unsharded": ratio(
            mean([s.latency_s for s in unsharded]),
            mean([s.latency_s for s in queries]),
        ),
        "shard.candidates_ratio": ratio(
            total("candidates", queries), total("candidates", unsharded)
        ),
        "shard.page_accesses_ratio": ratio(
            total("page_accesses", queries), total("page_accesses", unsharded)
        ),
        "shard.slowest_shard_mean_ms": slowest * 1e3,
        "shard.fanout_merge_overhead_mean_ms": mean(
            [s.latency_s - s.extra["slowest_shard_s"] for s in queries]
        )
        * 1e3,
        "shard.imbalance": ratio(
            slowest, mean([s.extra["mean_shard_s"] for s in queries])
        ),
    }


def ingest_layer(
    workload: Workload, samples: Sequence[Sample]
) -> Dict[str, float]:
    restart: Dict[str, float] = getattr(workload, "restart", {})
    if not restart:
        return {}
    writes = [s for s in samples if s.kind != "query"]
    metrics = {
        f"ingest.{kind}_p50_ms": statistics.median(
            s.latency_s for s in writes if s.kind == kind
        )
        * 1e3
        for kind in ("append", "extend", "delete")
    }
    records = restart["replayed_records"]
    metrics.update(
        {
            "ingest.ops_per_s": ingest_ops_per_s(samples),
            "ingest.replayed_records": records,
            "ingest.replay_ms_per_record": ratio(
                (restart["recover_s"] - restart["initial_open_s"]) * 1e3,
                records,
            ),
        }
    )
    for key in ("recover_s", "open_s", "save_s", "checkpoint_s",
                "load_mmap_s", "wal_bytes_per_user_byte",
                "stored_bytes_per_user_byte"):
        metrics[f"storage.{key}"] = restart[key]
    return metrics


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def spread(values: Sequence[float]) -> Optional[float]:
    """Quartile distance over the median; ``None`` for a single run."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return ratio(third - first, abs(statistics.median(values)))


def run_values(entry: Dict[str, Any], group: str, name: str) -> List[float]:
    """One value per run of a report's workload entry; [] if never run."""
    return [
        run[group][name]["value"]
        for run in entry["runs"]
        if name in run.get(group, {})
    ]


def compare(
    base: Dict[str, Any], other: Dict[str, Any], declared: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Rows of base-vs-other per workload and metric; True if any is worse."""
    rows = [
        f"{'workload':<15}{'metric':<32}{'base':>12}{'other':>12}"
        f"{'worse by':>9}{'bound':>8}  verdict"
    ]
    any_worse = False
    for workload, entry_a in base["workloads"].items():
        entry_b = other["workloads"].get(workload)
        if entry_b is None:
            continue
        bounded = [
            (
                "metrics", m["name"], m["better"],
                0.0 if workload in EXACT_COUNTS.get(m["name"], ())
                else m["bound"],
            )
            for m in declared["end_to_end"]
        ] + [
            ("bounded_layer", name, better, bound)
            for name, (_, better, bound) in BOUNDED_LAYER_METRICS.get(
                workload, {}
            ).items()
        ]
        for group, name, better, bound in bounded:
            runs_a = run_values(entry_a, group, name)
            runs_b = run_values(entry_b, group, name)
            if not runs_a or not runs_b:
                # A workload that never started: failed_share says so.
                continue
            a, b = statistics.median(runs_a), statistics.median(runs_b)
            sign = 1.0 if better == "lower" else -1.0
            worsening = sign * ratio(b - a, abs(a))
            spreads = [s for s in (spread(runs_a), spread(runs_b)) if s]
            other_wins = (
                max(runs_b) < min(runs_a)
                if sign > 0
                else min(runs_b) > max(runs_a)
            )
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            if worsening > bound and sign * (b - a) > floor:
                verdict = "WORSE"
                any_worse = True
            elif spreads and max(spreads) > bound and not other_wins:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                f"{workload:<15}{name:<32}{a:>12.4f}{b:>12.4f}"
                f"{worsening:>+9.1%}{bound:>8.0%}  {verdict}"
            )
        failed_a, failed_b = entry_a["failed_share"], entry_b["failed_share"]
        verdict = "ok" if failed_b <= failed_a else "WORSE"
        any_worse = any_worse or verdict == "WORSE"
        rows.append(
            f"{workload:<15}{'failed_share':<32}{failed_a:>12.4f}"
            f"{failed_b:>12.4f}{'':>9}{0:>8.0%}  {verdict}"
        )
    return rows, any_worse
