"""Seeded perf-regression micro-benchmarks: ``python -m repro bench``.

Two suites, both fully deterministic in their *measured work* (inputs
are seeded; only wall-clock numbers vary between machines):

``kernels``
    Micro-benchmarks of the vectorized kernels (wavefront/batch DTW,
    batched LB_Keogh/LB_PAA/MINDIST, batched envelope and PAA
    construction) against the scalar oracles in
    :mod:`repro.core.reference`.  Every benchmark first *re-verifies
    exactness* on its own inputs, then times both sides and reports the
    speedup ratio.  Ratios are machine-relative, which makes them
    stable across hosts — the regression gate compares ratios, never
    raw wall time.

``engines``
    End-to-end engine runs on small seeded databases.  Everything
    recorded here except wall time is a deterministic counter (NUM_IO
    breakdown, candidates, prune counts, heap pops) or a result digest
    (the exact ``repr`` of every match distance), so the regression
    gate compares them **exactly**: a kernel change that silently
    shifts I/O accounting or a top-k set fails the gate even when it is
    faster.  Wall time is recorded for trend plots but never gated.

``tracing``
    Overhead and correctness of the observability plane
    (:mod:`repro.obs`): the same seeded query runs against a database
    with no tracer, a disabled tracer, and an enabled tracer.  The gate
    checks that the disabled-tracer run is *byte-identical* (counters
    and result digests) to the tracer-free run, that the traced run's
    per-span page accounting sums exactly to NUM_IO, and that the
    disabled tracer's wall-clock overhead stays under
    :data:`DISABLED_OVERHEAD_LIMIT`.  Enabled-mode overhead is recorded
    for the docs but never gated (tracing is opt-in).

``ingest``
    Online-ingest throughput and recovery scaling
    (:mod:`repro.ingest`): appends/second through the WAL-backed write
    path (fsync'd and unsynced), and wall-clock recovery time as a
    function of WAL length.  Every recovery run re-verifies exactness —
    the recovered database must return byte-identical matches,
    distances, and NUM_IO for a seeded query versus the live database
    it was replayed from.  The gate compares the exactness flags and
    the deterministic replay counters (records/batches per WAL length);
    throughput and recovery wall time are recorded for trend plots but
    never gated.

``serve``
    Concurrent load through the query service (:mod:`repro.serve`):
    eight client threads drive a mixed-engine k-NN workload through an
    in-process :class:`~repro.serve.QueryService` and every response is
    checked against a single-query oracle digest.  The gate requires
    every response exact (digest-identical) with zero errors, and
    applies the same dual criterion as the kernel gate to throughput:
    queries/second must not be *both* more than
    :data:`SERVE_QPS_TOLERANCE` below the baseline *and* below the
    absolute :data:`SERVE_QPS_FLOOR`.  Latency percentiles are recorded
    for trend plots but never gated (they are host-relative).

The committed ``benchmarks/baseline.json`` is the reference point;
:func:`compare` applies the gate (>20 % speedup regression, any
counter/digest drift, any exactness failure → non-zero exit).  Update
the baseline deliberately with ``python -m repro bench
--update-baseline`` and commit the diff (see ``docs/benchmarking.md``).
"""

from __future__ import annotations

import functools
import json
import math
import platform
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.distance import dtw_pow_batch
from repro.core.envelope import envelope_batch, query_envelope
from repro.core.lower_bounds import (
    lb_keogh_pow,
    lb_keogh_pow_batch,
    lb_paa_pow,
    lb_paa_pow_batch,
    mindist_pow,
    mindist_pow_batch,
)
from repro.core.paa import paa, paa_batch
from repro.core.reference import (
    reference_dtw_pow,
    reference_envelope,
    reference_lb_keogh_pow,
    reference_paa,
)

SCHEMA_VERSION = 1

#: Maximum allowed relative drop in a kernel speedup ratio before the
#: gate fails (the ISSUE's ">20% regression" contract).
SPEEDUP_TOLERANCE = 0.20

#: Absolute per-kernel speedup floors (machine-relative sanity bounds).
#: A drop below ``baseline * (1 - SPEEDUP_TOLERANCE)`` only fails the
#: gate when the measured ratio is *also* below this floor: the
#: relative criterion alone turned out to be brittle, because a
#: baseline recorded on an idle host encodes that host's scheduler
#: luck, and an honest re-run on a busier (or merely different) machine
#: can sit 25 % below it while still being an order of magnitude faster
#: than the scalar oracle.  The floors are set at roughly half the
#: slowest ratio observed across CI-class hosts, so they catch a
#: genuine vectorization regression (falling back to a Python loop
#: drops the ratio to ~1x) without tripping on environment drift.
SPEEDUP_FLOORS: Dict[str, float] = {
    "dtw_wavefront_len256": 20.0,
    "dtw_wavefront_8lanes": 5.0,
    "lb_keogh_block": 10.0,
    "lb_paa_mindist_block": 40.0,
    "envelope_batch": 2.5,
    "paa_batch": 15.0,
}

#: Relative tolerance for oracle comparisons whose summation order
#: differs (sequential Python accumulation vs pairwise/einsum).
ORACLE_RTOL = 1e-9

#: Maximum wall-clock ratio a *disabled* tracer may cost versus a
#: database built with no tracer at all.  The disabled path is a single
#: attribute load and branch per hook, so the true ratio is ~1.0; the
#: generous cap absorbs small-query timing noise while still catching
#: an accidentally always-on plane.
DISABLED_OVERHEAD_LIMIT = 1.5

#: Relative throughput drop the serve-suite gate tolerates before it
#: even consults the absolute floor.  Wide on purpose: a threaded
#: many-client benchmark on a CI box is scheduler-noisy, so only the
#: dual criterion (relative drop AND absolute floor) fails the gate —
#: the same design as the kernel speedup gate above.
SERVE_QPS_TOLERANCE = 0.5

#: Absolute queries-per-second floor for the serve load benchmark.  A
#: healthy service on the tiny seeded database clears hundreds of
#: queries per second; falling below this floor means the service
#: layer itself broke (a lock held across engine execution, a stalled
#: queue), not that the host is busy.
SERVE_QPS_FLOOR = 5.0

#: Relative drop in the sharded speedup ratio the shard-suite gate
#: tolerates before it consults the absolute floor.  Wide like the
#: serve tolerance: thread scheduling on shared CI hosts is noisy.
SHARD_SPEEDUP_TOLERANCE = 0.5

#: Absolute floor for the N-shard parallel speedup over the unsharded
#: database on the large configuration.  The target is >= 1.0 (sharding
#: must not cost latency when cores are available), but a single-core
#: host serialises the shard subqueries and legitimately lands below
#: it, so — exactly like the kernel and serve gates — only the dual
#: criterion (below the floor AND regressed versus the committed
#: baseline) fails the gate.  Exactness, by contrast, is gated
#: unconditionally.
SHARD_SPEEDUP_FLOOR = 1.0


@dataclass(frozen=True)
class Regression:
    """One gate failure, printable as ``suite/name: message``."""

    suite: str
    name: str
    message: str

    def __str__(self) -> str:
        return f"{self.suite}/{self.name}: {self.message}"


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (noise-robust)."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_RTOL * max(1.0, abs(a), abs(b))


def _batch_repeats(repeats: int) -> int:
    """Repeat count for the vectorized side of a benchmark.

    The vectorized kernels run in milliseconds, so extra repeats cost
    almost nothing — and the gate compares speedup *ratios*, where a
    single slow-sampled millisecond denominator can fake a >20 %
    regression.  The expensive scalar side keeps the caller's count.
    """
    return max(repeats * 3, 9)


# ----------------------------------------------------------------------
# Kernel suite
# ----------------------------------------------------------------------


def _bench_dtw(
    rng: np.random.Generator, quick: bool, lanes: int = 64, rho: int = 25
) -> Dict[str, Any]:
    """Batch wavefront DTW vs the scalar DP at the paper-scale config.

    The default is the acceptance config (64 lanes, rho = 10 % of len);
    8 lanes at rho = 5 % is what a deferred drain typically has left
    after LB_Keogh, where the per-diagonal call overhead is spread over
    few lanes.
    """
    length = 256
    repeats = 2 if quick else 5
    query = rng.standard_normal(length)
    batch = rng.standard_normal((lanes, length))

    expected = np.array(
        [reference_dtw_pow(batch[i], query, rho) for i in range(lanes)]
    )
    got = dtw_pow_batch(batch, query, rho)
    exact = bool(np.array_equal(expected, got))

    scalar_s = _best_seconds(
        lambda: reference_dtw_pow(batch[0], query, rho), repeats
    )
    batch_s = _best_seconds(
        lambda: dtw_pow_batch(batch, query, rho), _batch_repeats(repeats)
    )
    per_candidate = batch_s / lanes
    return {
        "length": length,
        "rho": rho,
        "lanes": lanes,
        "exact": exact,
        "scalar_ms": scalar_s * 1e3,
        "batch_ms_per_candidate": per_candidate * 1e3,
        "speedup": scalar_s / per_candidate,
    }


def _bench_lb_keogh(
    rng: np.random.Generator, quick: bool
) -> Dict[str, Any]:
    """Batched LB_Keogh over a 1k-candidate block vs per-candidate calls."""
    length = 256
    rho = max(1, length // 10)
    candidates = 1000
    repeats = 3 if quick else 7
    query = rng.standard_normal(length)
    envelope = query_envelope(query, rho)
    block = rng.standard_normal((candidates, length))

    batch_vals = lb_keogh_pow_batch(envelope, block, 2.0)
    exact = all(
        lb_keogh_pow(envelope, block[i], 2.0) == batch_vals[i]
        for i in range(candidates)
    ) and all(
        _close(
            reference_lb_keogh_pow(
                envelope.lower, envelope.upper, block[i], 2.0
            ),
            float(batch_vals[i]),
        )
        for i in range(candidates)
    )

    def scalar_run() -> None:
        # The scalar baseline is the oracle loop (pre-vectorization
        # behavior); the per-candidate production call is timed too so
        # the report shows both gaps.
        for i in range(candidates):
            reference_lb_keogh_pow(
                envelope.lower, envelope.upper, block[i], 2.0
            )

    def single_run() -> None:
        for i in range(candidates):
            lb_keogh_pow(envelope, block[i], 2.0)

    scalar_s = _best_seconds(scalar_run, repeats)
    single_s = _best_seconds(single_run, repeats)
    batch_s = _best_seconds(
        lambda: lb_keogh_pow_batch(envelope, block, 2.0),
        _batch_repeats(repeats),
    )
    return {
        "length": length,
        "rho": rho,
        "candidates": candidates,
        "exact": exact,
        "scalar_ms": scalar_s * 1e3,
        "single_call_ms": single_s * 1e3,
        "batch_ms": batch_s * 1e3,
        "speedup": scalar_s / batch_s,
    }


def _bench_lb_paa(rng: np.random.Generator, quick: bool) -> Dict[str, Any]:
    """Batched LB_PAA/MINDIST entry scoring vs per-entry calls."""
    features = 8
    seg_len = 8
    entries = 1000
    repeats = 3 if quick else 7
    halves = np.sort(rng.standard_normal((2, features)), axis=0)
    paa_lower, paa_upper = halves[0], halves[1]
    points = rng.standard_normal((entries, features))
    rects = np.sort(rng.standard_normal((2, entries, features)), axis=0)

    point_vals = lb_paa_pow_batch(paa_lower, paa_upper, points, seg_len, 2.0)
    rect_vals = mindist_pow_batch(
        paa_lower, paa_upper, rects[0], rects[1], seg_len, 2.0
    )
    exact = all(
        lb_paa_pow(paa_lower, paa_upper, points[i], seg_len, 2.0)
        == point_vals[i]
        for i in range(entries)
    ) and all(
        mindist_pow(
            paa_lower, paa_upper, rects[0][i], rects[1][i], seg_len, 2.0
        )
        == rect_vals[i]
        for i in range(entries)
    )

    def scalar_run() -> None:
        for i in range(entries):
            lb_paa_pow(paa_lower, paa_upper, points[i], seg_len, 2.0)
            mindist_pow(
                paa_lower, paa_upper, rects[0][i], rects[1][i], seg_len, 2.0
            )

    def batch_run() -> None:
        lb_paa_pow_batch(paa_lower, paa_upper, points, seg_len, 2.0)
        mindist_pow_batch(
            paa_lower, paa_upper, rects[0], rects[1], seg_len, 2.0
        )

    scalar_s = _best_seconds(scalar_run, repeats)
    batch_s = _best_seconds(batch_run, _batch_repeats(repeats))
    return {
        "features": features,
        "entries": entries,
        "exact": exact,
        "scalar_ms": scalar_s * 1e3,
        "batch_ms": batch_s * 1e3,
        "speedup": scalar_s / batch_s,
    }


def _bench_envelope(
    rng: np.random.Generator, quick: bool
) -> Dict[str, Any]:
    """Batched envelope construction vs the per-sequence deque path."""
    length = 256
    rho = max(1, length // 10)
    rows = 256
    repeats = 3 if quick else 7
    batch = rng.standard_normal((rows, length))

    lower, upper = envelope_batch(batch, rho)
    exact = True
    for i in range(rows):
        ref_lower, ref_upper = reference_envelope(batch[i], rho)
        if not (
            np.array_equal(lower[i], ref_lower)
            and np.array_equal(upper[i], ref_upper)
        ):
            exact = False
            break

    def scalar_run() -> None:
        for i in range(rows):
            query_envelope(batch[i], rho)

    scalar_s = _best_seconds(scalar_run, repeats)
    batch_s = _best_seconds(
        lambda: envelope_batch(batch, rho), _batch_repeats(repeats)
    )
    return {
        "length": length,
        "rho": rho,
        "rows": rows,
        "exact": exact,
        "scalar_ms": scalar_s * 1e3,
        "batch_ms": batch_s * 1e3,
        "speedup": scalar_s / batch_s,
    }


def _bench_paa(rng: np.random.Generator, quick: bool) -> Dict[str, Any]:
    """Batched PAA of window blocks vs per-window calls."""
    omega = 32
    features = 4
    windows = 2048
    repeats = 3 if quick else 7
    batch = rng.standard_normal((windows, omega))

    vals = paa_batch(batch, features)
    exact = all(
        np.array_equal(vals[i], paa(batch[i], features))
        and np.array_equal(vals[i], reference_paa(batch[i], features))
        for i in range(windows)
    )

    def scalar_run() -> None:
        for i in range(windows):
            paa(batch[i], features)

    scalar_s = _best_seconds(scalar_run, repeats)
    batch_s = _best_seconds(
        lambda: paa_batch(batch, features), _batch_repeats(repeats)
    )
    return {
        "omega": omega,
        "features": features,
        "windows": windows,
        "exact": exact,
        "scalar_ms": scalar_s * 1e3,
        "batch_ms": batch_s * 1e3,
        "speedup": scalar_s / batch_s,
    }


_KERNEL_BENCHES: Dict[
    str, Callable[[np.random.Generator, bool], Dict[str, Any]]
] = {
    "dtw_wavefront_len256": _bench_dtw,
    "dtw_wavefront_8lanes": functools.partial(_bench_dtw, lanes=8, rho=12),
    "lb_keogh_block": _bench_lb_keogh,
    "lb_paa_mindist_block": _bench_lb_paa,
    "envelope_batch": _bench_envelope,
    "paa_batch": _bench_paa,
}


def run_kernel_suite(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Run every kernel micro-benchmark; returns the ``kernels`` block."""
    results: Dict[str, Any] = {}
    for name, bench in _KERNEL_BENCHES.items():
        rng = np.random.default_rng(seed + 1)
        results[name] = bench(rng, quick)
    return results


# ----------------------------------------------------------------------
# Engine suite
# ----------------------------------------------------------------------

#: The deterministic counters recorded (and gated exactly) per engine.
ENGINE_COUNTERS = (
    "candidates",
    "page_accesses",
    "sequential_page_accesses",
    "random_page_accesses",
    "logical_reads",
    "dtw_computations",
    "lb_keogh_computations",
    "heap_pops",
    "node_expansions",
    "bloom_calls",
    "deferred_flushes",
    "pruned_by_lower_bound",
    "pruned_by_lb_keogh",
    "duplicates_suppressed",
    "window_group_evaluations",
)


def _make_walk(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.asarray(rng.standard_normal(n).cumsum())


def _engine_record(result: object) -> Dict[str, Any]:
    stats = result.stats  # type: ignore[attr-defined]
    matches = result.matches  # type: ignore[attr-defined]
    return {
        "counters": {key: getattr(stats, key) for key in ENGINE_COUNTERS},
        "distances": [repr(match.distance) for match in matches],
        "matches": [[match.sid, match.start] for match in matches],
        "wall_time_s": stats.wall_time_s,
    }


def run_engine_suite(seed: int = 0) -> Dict[str, Any]:
    """End-to-end engine counters on small seeded databases.

    Deliberately matches the scale of the test-suite fixtures: big
    enough to exercise multi-level trees and deferred refinement, small
    enough to run in seconds.  The recorded counters are deterministic,
    so ``quick`` mode does not change this suite.
    """
    from repro import SubsequenceDatabase

    results: Dict[str, Any] = {}

    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    db.insert(0, _make_walk(3000, seed=seed + 11))
    db.insert(1, _make_walk(2200, seed=seed + 12))
    db.build()
    query = db.store.peek_subsequence(0, 640, 48).copy()
    for method in ("seqscan", "hlmj", "hlmj-wg", "ru", "ru-cost"):
        for deferred in (False, True):
            if method == "seqscan" and deferred:
                continue
            db.reset_cache()
            result = db.search(
                query, k=5, rho=2, method=method, deferred=deferred
            )
            label = f"{method}-d" if deferred else method
            results[label] = _engine_record(result)

    db.reset_cache()
    results["range"] = _engine_record(
        db.range_search(query, epsilon=2.5, rho=2)
    )

    psm_db = SubsequenceDatabase(omega=8, features=4, buffer_fraction=0.1)
    psm_db.insert(0, _make_walk(900, seed=seed + 21))
    psm_db.insert(1, _make_walk(700, seed=seed + 22))
    psm_db.build(psm=True)
    psm_query = psm_db.store.peek_subsequence(0, 200, 32).copy()
    psm_db.reset_cache()
    results["psm"] = _engine_record(
        psm_db.search(psm_query, k=3, rho=1, method="psm")
    )
    return results


# ----------------------------------------------------------------------
# Tracing suite
# ----------------------------------------------------------------------


def run_tracing_suite(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Observability-plane overhead and conformance on a seeded query.

    Three identical databases run the same ``ru-cost`` query: one with
    no tracer, one with a disabled :class:`~repro.obs.Tracer`, and one
    with tracing enabled.  Counters and digests of the first two must
    match exactly; the third must conform (``buffer.fetch`` spans ==
    NUM_IO).  Wall times are recorded as machine-relative ratios.
    """
    from repro import SubsequenceDatabase
    from repro.obs import Tracer

    repeats = 3 if quick else 7

    def build(tracer: Optional[Tracer] = None) -> SubsequenceDatabase:
        db = SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.1, tracer=tracer
        )
        db.insert(0, _make_walk(3000, seed=seed + 11))
        db.insert(1, _make_walk(2200, seed=seed + 12))
        db.build()
        return db

    plain = build()
    disabled = build(Tracer(enabled=False))
    enabled_tracer = Tracer(enabled=True)
    enabled = build(enabled_tracer)
    query = plain.store.peek_subsequence(0, 640, 48).copy()

    def run(db: SubsequenceDatabase) -> Any:
        db.reset_cache()
        return db.search(query, k=5, rho=2, method="ru-cost")

    plain_record = _engine_record(run(plain))
    disabled_record = _engine_record(run(disabled))
    counters_identical = (
        plain_record["counters"] == disabled_record["counters"]
        and plain_record["distances"] == disabled_record["distances"]
        and plain_record["matches"] == disabled_record["matches"]
    )
    traced = run(enabled)
    profile = traced.profile
    conformant = (
        profile is not None
        and profile.span_count("buffer.fetch") == traced.stats.page_accesses
    )

    def run_enabled() -> Any:
        # Reset the tracer between repeats so span accumulation across
        # timing runs does not approach the span cap.
        enabled_tracer.reset()
        return run(enabled)

    plain_s = _best_seconds(lambda: run(plain), repeats)
    disabled_s = _best_seconds(lambda: run(disabled), repeats)
    enabled_s = _best_seconds(run_enabled, repeats)
    return {
        "ru_cost_small": {
            "engine": "ru-cost",
            "counters_identical": counters_identical,
            "conformant": conformant,
            "untraced_ms": plain_s * 1e3,
            "disabled_ms": disabled_s * 1e3,
            "enabled_ms": enabled_s * 1e3,
            "disabled_overhead": disabled_s / plain_s,
            "enabled_overhead": enabled_s / plain_s,
        }
    }


# ----------------------------------------------------------------------
# Ingest suite
# ----------------------------------------------------------------------


def _ingest_fingerprint(db: Any, query: np.ndarray) -> List[Any]:
    """Exact (sid, start, distance-repr, NUM_IO) digest of a seeded query."""
    db.reset_cache()
    result = db.search(query, k=5, rho=2, method="ru")
    return [
        [
            [match.sid, match.start, repr(match.distance)]
            for match in result.matches
        ],
        result.stats.page_accesses,
    ]


def run_ingest_suite(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """WAL-backed ingest throughput and recovery-time scaling.

    Throughput numbers are wall-clock and machine-relative (never
    gated).  Each recovery run also replays its WAL into a fresh
    database and checks that matches, distances, and NUM_IO are
    byte-identical to the live database — that ``exact`` flag and the
    replay counters are what the gate compares.
    """
    import os
    import shutil
    import tempfile

    from repro import SubsequenceDatabase
    from repro.ingest import WAL_NAME, create_durable, recover_database

    def make_db() -> SubsequenceDatabase:
        db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
        db.insert(0, _make_walk(2000, seed=seed + 31))
        db.insert(1, _make_walk(1500, seed=seed + 32))
        db.build()
        return db

    rng = np.random.default_rng(seed + 33)
    values = [
        np.asarray(rng.standard_normal(96).cumsum()) for _ in range(16)
    ]
    results: Dict[str, Any] = {}
    workdir = tempfile.mkdtemp(prefix="repro-bench-ingest-")
    try:
        batch = 16 if quick else 64
        for sync, label in ((True, "fsync"), (False, "nosync")):
            root = os.path.join(workdir, f"tput-{label}")
            db = make_db()
            wal = create_durable(db, root, sync=sync)
            try:
                started = time.perf_counter()
                for i in range(batch):
                    db.append_sequence(100 + i, values[i % len(values)])
                elapsed = time.perf_counter() - started
                results[f"append_throughput_{label}"] = {
                    "appends": batch,
                    "values_per_append": len(values[0]),
                    "seconds": elapsed,
                    "appends_per_s": batch / elapsed,
                    "wal_bytes": os.path.getsize(
                        os.path.join(root, WAL_NAME)
                    ),
                }
            finally:
                wal.close()

        recovery: Dict[str, Any] = {}
        for length in (8, 32) if quick else (8, 32, 128):
            root = os.path.join(workdir, f"recover-{length}")
            db = make_db()
            wal = create_durable(db, root, sync=False)
            try:
                for i in range(length):
                    db.append_sequence(200 + i, values[i % len(values)])
            finally:
                wal.close()
            started = time.perf_counter()
            recovered, report = recover_database(root, sync=False)
            recover_s = time.perf_counter() - started
            query = db.store.peek_subsequence(0, 640, 48).copy()
            exact = _ingest_fingerprint(db, query) == _ingest_fingerprint(
                recovered, query
            )
            recovery[f"wal_{length}"] = {
                "appended": length,
                "replayed_records": report.replayed_records,
                "replayed_batches": report.replayed_batches,
                "recover_ms": recover_s * 1e3,
                "exact": exact,
            }
            recovered.wal.close()
        results["recovery"] = recovery
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


# ----------------------------------------------------------------------
# Serve suite
# ----------------------------------------------------------------------


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = int(math.ceil(q * len(ordered))) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def run_serve_suite(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Concurrent mixed-engine load through :class:`QueryService`.

    Eight client threads fire k-NN requests across four engines at a
    four-worker service and compare every response to a single-query
    oracle digest computed up front.  ``exact``/``errors`` are the
    gated facts; throughput gets the dual-criterion gate; latency
    percentiles are trend-only.
    """
    from repro import SubsequenceDatabase
    from repro.serve import QueryRequest, QueryService, ServiceConfig

    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    db.insert(0, _make_walk(3000, seed=seed + 41))
    db.insert(1, _make_walk(2200, seed=seed + 42))
    db.build()
    query = tuple(
        float(v) for v in db.store.peek_subsequence(0, 640, 48)
    )

    methods = ("seqscan", "hlmj", "ru", "ru-cost")
    oracle: Dict[str, List[List[Any]]] = {}
    for method in methods:
        db.reset_cache()
        result = db.search(
            np.asarray(query), k=5, rho=2, method=method
        )
        oracle[method] = [
            [match.sid, match.start, repr(match.distance)]
            for match in result.matches
        ]

    clients = 8
    per_client = 4 if quick else 12
    config = ServiceConfig(workers=4, queue_capacity=256)
    latencies: List[float] = []
    queue_waits: List[float] = []
    errors = 0
    mismatches = 0
    record_lock = threading.Lock()

    def client(idx: int, barrier: threading.Barrier) -> None:
        nonlocal errors, mismatches
        barrier.wait()
        for i in range(per_client):
            method = methods[(idx + i) % len(methods)]
            request = QueryRequest(
                kind="knn",
                query=query,
                tenant=f"bench-{idx}",
                k=5,
                rho=2,
                method=method,
            )
            started = time.perf_counter()
            try:
                response = service.query(request, timeout=120.0)
            except Exception:
                with record_lock:
                    errors += 1
                continue
            elapsed = time.perf_counter() - started
            digest = [
                [match.sid, match.start, repr(match.distance)]
                for match in response.result.matches
            ]
            with record_lock:
                latencies.append(elapsed)
                queue_waits.append(response.queue_wait_s)
                if not response.exact or digest != oracle[method]:
                    mismatches += 1

    with QueryService(db, config=config) as service:
        barrier = threading.Barrier(clients + 1)
        threads = [
            threading.Thread(target=client, args=(idx, barrier))
            for idx in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

    completed = len(latencies)
    return {
        "load_mixed_knn": {
            "clients": clients,
            "workers": config.workers,
            "requests": clients * per_client,
            "completed": completed,
            "errors": errors,
            "exact": errors == 0 and mismatches == 0,
            "throughput_qps": completed / elapsed if elapsed > 0 else 0.0,
            "p50_ms": _percentile(latencies, 0.50) * 1e3,
            "p99_ms": _percentile(latencies, 0.99) * 1e3,
            "mean_queue_wait_ms": (
                sum(queue_waits) / len(queue_waits) * 1e3
                if queue_waits
                else 0.0
            ),
        }
    }


def run_shard_suite(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Sharded scaling versus the unsharded database (large config).

    Builds one large multi-sequence workload twice — unsharded and
    N-shard with the thread executor — and times the same ranked query
    on both.  ``exact`` (byte-identical matches) is gated
    unconditionally; ``speedup`` gets the dual-criterion gate
    (:data:`SHARD_SPEEDUP_FLOOR` + :data:`SHARD_SPEEDUP_TOLERANCE`)
    because a single-core host cannot show parallel speedup.
    """
    from repro import SubsequenceDatabase
    from repro.shard import ShardedDatabase

    sequences = {
        sid: _make_walk(4000, seed=seed + 60 + sid) for sid in range(4)
    }
    oracle = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.1)
    for sid, values in sequences.items():
        oracle.insert(sid, values)
    oracle.build()
    query = oracle.store.peek_subsequence(0, 1200, 64).copy()
    repeats = 2 if quick else 4

    results: Dict[str, Any] = {}
    for num_shards in (2, 4):
        sharded = ShardedDatabase(
            num_shards=num_shards,
            policy="hash",
            executor="thread",
            omega=16,
            features=4,
            buffer_fraction=0.1,
        )
        for sid, values in sequences.items():
            sharded.insert(sid, values)
        sharded.build()
        try:
            gold = oracle.search(query, k=10, rho=2, method="ru-cost")
            merged = sharded.search(query, k=10, rho=2, method="ru-cost")
            digest_gold = [
                [m.sid, m.start, repr(m.distance)] for m in gold.matches
            ]
            digest_shard = [
                [m.sid, m.start, repr(m.distance)] for m in merged.matches
            ]
            num_io_ok = merged.stats.page_accesses == sum(
                stats.page_accesses
                for stats in merged.shard_stats.values()
            )

            unsharded_s = _best_seconds(
                lambda: oracle.search(query, k=10, rho=2, method="ru-cost"),
                repeats,
            )
            sharded_s = _best_seconds(
                lambda: sharded.search(
                    query, k=10, rho=2, method="ru-cost"
                ),
                repeats,
            )
            results[f"ru_cost_shards{num_shards}"] = {
                "shards": num_shards,
                "executor": "thread",
                "unsharded_ms": unsharded_s * 1e3,
                "sharded_ms": sharded_s * 1e3,
                "speedup": unsharded_s / sharded_s,
                "exact": digest_gold == digest_shard and num_io_ok,
            }
        finally:
            sharded.close()
    return results


# ----------------------------------------------------------------------
# Storage backend suite
# ----------------------------------------------------------------------


def run_storage_suite(seed: int = 0, quick: bool = False) -> Dict[str, Any]:
    """File versus mmap backend on the same workload (large config).

    Builds one seeded database twice — once per backend — and times the
    same cold-cache ranked query on both.  ``exact`` gates byte-identical
    matches, distances, *and* NUM_IO between the backends (the mmap
    backend is a page-cache substitution, so every deterministic counter
    must survive it); wall time is recorded but never gated, since the
    zero-copy win depends on the host.  A second entry repeats the
    comparison under z-normalized matching.
    """
    from repro import SubsequenceDatabase

    repeats = 2 if quick else 4
    walks = {0: _make_walk(3000, seed=seed + 11),
             1: _make_walk(2200, seed=seed + 12)}

    def build(backend: str) -> "SubsequenceDatabase":
        db = SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.1, backend=backend
        )
        for sid, values in walks.items():
            db.insert(sid, values)
        db.build()
        return db

    results: Dict[str, Any] = {}
    file_db = build("file")
    mmap_db = build("mmap")
    query = file_db.store.peek_subsequence(0, 640, 48).copy()
    try:
        for normalize in (False, True):
            records = {}
            for name, db in (("file", file_db), ("mmap", mmap_db)):
                db.reset_cache()
                result = db.search(
                    query, k=5, rho=2, method="ru-cost", normalize=normalize
                )
                seconds = _best_seconds(
                    lambda db=db: (
                        db.reset_cache(),
                        db.search(
                            query,
                            k=5,
                            rho=2,
                            method="ru-cost",
                            normalize=normalize,
                        ),
                    ),
                    repeats,
                )
                records[name] = {
                    "record": _engine_record(result),
                    "cold_ms": seconds * 1e3,
                }
            file_rec = records["file"]["record"]
            mmap_rec = records["mmap"]["record"]
            exact = (
                file_rec["counters"] == mmap_rec["counters"]
                and file_rec["distances"] == mmap_rec["distances"]
                and file_rec["matches"] == mmap_rec["matches"]
            )
            label = "ru_cost_znorm" if normalize else "ru_cost_raw"
            results[label] = {
                "normalize": normalize,
                "file_ms": records["file"]["cold_ms"],
                "mmap_ms": records["mmap"]["cold_ms"],
                "speedup": (
                    records["file"]["cold_ms"] / records["mmap"]["cold_ms"]
                ),
                "page_accesses": file_rec["counters"]["page_accesses"],
                "exact": exact,
            }
    finally:
        mmap_db.close()
        file_db.close()
    return results


# ----------------------------------------------------------------------
# Reports, baselines, and the gate
# ----------------------------------------------------------------------


def run_suites(
    suites: Sequence[str], seed: int = 0, quick: bool = False
) -> Dict[str, Any]:
    """Run the requested suites into one schema-versioned report."""
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "repro-bench",
        "created": _utc_now_iso(),
        "seed": seed,
        "quick": quick,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "suites": {},
    }
    suite_block: Dict[str, Any] = {}
    if "kernels" in suites:
        suite_block["kernels"] = run_kernel_suite(seed=seed, quick=quick)
    if "engines" in suites:
        suite_block["engines"] = run_engine_suite(seed=seed)
    if "tracing" in suites:
        suite_block["tracing"] = run_tracing_suite(seed=seed, quick=quick)
    if "ingest" in suites:
        suite_block["ingest"] = run_ingest_suite(seed=seed, quick=quick)
    if "serve" in suites:
        suite_block["serve"] = run_serve_suite(seed=seed, quick=quick)
    if "shard" in suites:
        suite_block["shard"] = run_shard_suite(seed=seed, quick=quick)
    if "storage" in suites:
        suite_block["storage"] = run_storage_suite(seed=seed, quick=quick)
    report["suites"] = suite_block
    return report


def compare(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[Regression]:
    """Apply the regression gate; empty list means the gate passes.

    * every kernel bench must remain exact, and its speedup must not be
      *both* more than :data:`SPEEDUP_TOLERANCE` below the baseline
      ratio *and* below its absolute :data:`SPEEDUP_FLOORS` bound —
      the dual criterion separates environment drift (relative drop,
      still far above the floor) from real regressions (a de-vectorized
      kernel falls through both);
    * every engine counter and result digest must match the baseline
      byte for byte (wall time is never compared).

    Only suites present in *both* reports are compared, so a
    kernels-only CI run checks kernels without requiring engine data.
    """
    regressions: List[Regression] = []
    current_suites = current.get("suites", {})
    baseline_suites = baseline.get("suites", {})

    base_kernels = baseline_suites.get("kernels")
    cur_kernels = current_suites.get("kernels")
    if base_kernels is not None and cur_kernels is not None:
        for name, base in base_kernels.items():
            cur = cur_kernels.get(name)
            if cur is None:
                regressions.append(
                    Regression("kernels", name, "benchmark disappeared")
                )
                continue
            if not cur.get("exact", False):
                regressions.append(
                    Regression(
                        "kernels",
                        name,
                        "kernel no longer matches the scalar oracle",
                    )
                )
            relative_floor = float(base["speedup"]) * (
                1.0 - SPEEDUP_TOLERANCE
            )
            absolute_floor = SPEEDUP_FLOORS.get(name)
            speedup = float(cur["speedup"])
            below_relative = speedup < relative_floor
            # Benches without a registered floor keep the pure relative
            # gate (safe default for newly added kernels).
            below_absolute = (
                absolute_floor is None or speedup < absolute_floor
            )
            if below_relative and below_absolute:
                detail = (
                    f"speedup {speedup:.2f}x fell below "
                    f"{relative_floor:.2f}x "
                    f"(baseline {float(base['speedup']):.2f}x - "
                    f"{SPEEDUP_TOLERANCE:.0%})"
                )
                if absolute_floor is not None:
                    detail += (
                        f" and below the absolute floor "
                        f"{absolute_floor:.2f}x"
                    )
                regressions.append(Regression("kernels", name, detail))

    base_engines = baseline_suites.get("engines")
    cur_engines = current_suites.get("engines")
    if base_engines is not None and cur_engines is not None:
        for label, base in base_engines.items():
            cur = cur_engines.get(label)
            if cur is None:
                regressions.append(
                    Regression("engines", label, "engine run disappeared")
                )
                continue
            for key, base_value in base["counters"].items():
                cur_value = cur["counters"].get(key)
                if cur_value != base_value:
                    regressions.append(
                        Regression(
                            "engines",
                            label,
                            f"counter {key} drifted: "
                            f"{base_value} -> {cur_value}",
                        )
                    )
            for key in ("distances", "matches"):
                if cur.get(key) != base.get(key):
                    regressions.append(
                        Regression(
                            "engines",
                            label,
                            f"result digest {key!r} drifted from baseline",
                        )
                    )

    base_tracing = baseline_suites.get("tracing")
    cur_tracing = current_suites.get("tracing")
    if base_tracing is not None and cur_tracing is not None:
        for label in base_tracing:
            cur = cur_tracing.get(label)
            if cur is None:
                regressions.append(
                    Regression("tracing", label, "tracing run disappeared")
                )
                continue
            if not cur.get("counters_identical", False):
                regressions.append(
                    Regression(
                        "tracing",
                        label,
                        "disabled tracer changed counters or results "
                        "(the untraced path must be byte-identical)",
                    )
                )
            if not cur.get("conformant", False):
                regressions.append(
                    Regression(
                        "tracing",
                        label,
                        "buffer.fetch span count != NUM_IO "
                        "(span-level page accounting broke)",
                    )
                )
            overhead = float(cur.get("disabled_overhead", math.inf))
            if overhead > DISABLED_OVERHEAD_LIMIT:
                regressions.append(
                    Regression(
                        "tracing",
                        label,
                        f"disabled-tracer overhead {overhead:.2f}x exceeds "
                        f"{DISABLED_OVERHEAD_LIMIT:.2f}x",
                    )
                )

    base_ingest = baseline_suites.get("ingest")
    cur_ingest = current_suites.get("ingest")
    if base_ingest is not None and cur_ingest is not None:
        base_recovery = base_ingest.get("recovery", {})
        cur_recovery = cur_ingest.get("recovery", {})
        for label, base in base_recovery.items():
            cur = cur_recovery.get(label)
            if cur is None:
                regressions.append(
                    Regression("ingest", label, "recovery run disappeared")
                )
                continue
            if not cur.get("exact", False):
                regressions.append(
                    Regression(
                        "ingest",
                        label,
                        "recovered database no longer byte-identical "
                        "(matches, distances, or NUM_IO drifted)",
                    )
                )
            for key in ("replayed_records", "replayed_batches"):
                if cur.get(key) != base.get(key):
                    regressions.append(
                        Regression(
                            "ingest",
                            label,
                            f"counter {key} drifted: "
                            f"{base.get(key)} -> {cur.get(key)}",
                        )
                    )

    base_serve = baseline_suites.get("serve")
    cur_serve = current_suites.get("serve")
    if base_serve is not None and cur_serve is not None:
        for label, base in base_serve.items():
            cur = cur_serve.get(label)
            if cur is None:
                regressions.append(
                    Regression("serve", label, "serve run disappeared")
                )
                continue
            if not cur.get("exact", False):
                regressions.append(
                    Regression(
                        "serve",
                        label,
                        "service responses no longer match the "
                        "single-query oracle (or were not exact)",
                    )
                )
            if int(cur.get("errors", 0)) != 0:
                regressions.append(
                    Regression(
                        "serve",
                        label,
                        f"{cur.get('errors')} request(s) errored under "
                        f"an unsaturated load",
                    )
                )
            base_qps = float(base.get("throughput_qps", 0.0))
            qps = float(cur.get("throughput_qps", 0.0))
            relative_floor = base_qps * (1.0 - SERVE_QPS_TOLERANCE)
            if qps < relative_floor and qps < SERVE_QPS_FLOOR:
                regressions.append(
                    Regression(
                        "serve",
                        label,
                        f"throughput {qps:.1f} qps fell below "
                        f"{relative_floor:.1f} qps (baseline "
                        f"{base_qps:.1f} - {SERVE_QPS_TOLERANCE:.0%}) "
                        f"and below the absolute floor "
                        f"{SERVE_QPS_FLOOR:.1f} qps",
                    )
                )

    base_shard = baseline_suites.get("shard")
    cur_shard = current_suites.get("shard")
    if base_shard is not None and cur_shard is not None:
        for label, base in base_shard.items():
            cur = cur_shard.get(label)
            if cur is None:
                regressions.append(
                    Regression("shard", label, "shard run disappeared")
                )
                continue
            if not cur.get("exact", False):
                regressions.append(
                    Regression(
                        "shard",
                        label,
                        "sharded answer no longer byte-identical to the "
                        "unsharded oracle (or NUM_IO stopped adding up)",
                    )
                )
            base_speedup = float(base.get("speedup", 0.0))
            speedup = float(cur.get("speedup", 0.0))
            relative_floor = base_speedup * (
                1.0 - SHARD_SPEEDUP_TOLERANCE
            )
            if (
                speedup < SHARD_SPEEDUP_FLOOR
                and speedup < relative_floor
            ):
                regressions.append(
                    Regression(
                        "shard",
                        label,
                        f"parallel speedup {speedup:.2f}x fell below the "
                        f"{SHARD_SPEEDUP_FLOOR:.1f}x floor and below "
                        f"{relative_floor:.2f}x (baseline "
                        f"{base_speedup:.2f}x - "
                        f"{SHARD_SPEEDUP_TOLERANCE:.0%})",
                    )
                )

    base_storage = baseline_suites.get("storage")
    cur_storage = current_suites.get("storage")
    if base_storage is not None and cur_storage is not None:
        for label, base in base_storage.items():
            cur = cur_storage.get(label)
            if cur is None:
                regressions.append(
                    Regression("storage", label, "storage run disappeared")
                )
                continue
            # Exactness (and the pinned NUM_IO) gate unconditionally;
            # the mmap-vs-file timing ratio is host-dependent and is
            # recorded but never gated.
            if not cur.get("exact", False):
                regressions.append(
                    Regression(
                        "storage",
                        label,
                        "file and mmap backends no longer byte-identical "
                        "(matches, distances, or counters drifted)",
                    )
                )
            if cur.get("page_accesses") != base.get("page_accesses"):
                regressions.append(
                    Regression(
                        "storage",
                        label,
                        f"NUM_IO drifted: {base.get('page_accesses')} -> "
                        f"{cur.get('page_accesses')}",
                    )
                )
    return regressions


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary of a bench report."""
    lines: List[str] = []
    suites = report.get("suites", {})
    kernels = suites.get("kernels")
    if kernels:
        lines.append(f"{'kernel':>24s} {'scalar':>12s} {'batch':>12s} "
                     f"{'speedup':>9s} {'exact':>6s}")
        for name, bench in kernels.items():
            scalar_ms = float(bench["scalar_ms"])
            batch_ms = float(
                bench.get("batch_ms", bench.get("batch_ms_per_candidate"))
            )
            lines.append(
                f"{name:>24s} {scalar_ms:>10.3f}ms {batch_ms:>10.3f}ms "
                f"{float(bench['speedup']):>8.2f}x "
                f"{'yes' if bench['exact'] else 'NO':>6s}"
            )
    engines = suites.get("engines")
    if engines:
        lines.append("")
        lines.append(
            f"{'engine':>10s} {'candidates':>11s} {'pages':>7s} "
            f"{'dtw':>7s} {'pops':>7s} {'ms':>8s}"
        )
        for label, record in engines.items():
            counters = record["counters"]
            lines.append(
                f"{label:>10s} {counters['candidates']:>11,d} "
                f"{counters['page_accesses']:>7,d} "
                f"{counters['dtw_computations']:>7,d} "
                f"{counters['heap_pops']:>7,d} "
                f"{float(record['wall_time_s']) * 1e3:>8.1f}"
            )
    tracing = suites.get("tracing")
    if tracing:
        lines.append("")
        lines.append(
            f"{'tracing':>16s} {'untraced':>11s} {'disabled':>11s} "
            f"{'enabled':>11s} {'identical':>10s} {'conformant':>11s}"
        )
        for label, record in tracing.items():
            lines.append(
                f"{label:>16s} {float(record['untraced_ms']):>9.1f}ms "
                f"{float(record['disabled_ms']):>9.1f}ms "
                f"{float(record['enabled_ms']):>9.1f}ms "
                f"{'yes' if record['counters_identical'] else 'NO':>10s} "
                f"{'yes' if record['conformant'] else 'NO':>11s}"
            )
    ingest = suites.get("ingest")
    if ingest:
        lines.append("")
        for label in ("append_throughput_fsync", "append_throughput_nosync"):
            record = ingest.get(label)
            if record:
                lines.append(
                    f"{label:>26s} {record['appends']:>5d} appends "
                    f"{float(record['appends_per_s']):>10.1f}/s "
                    f"({record['wal_bytes']:,d} WAL bytes)"
                )
        recovery = ingest.get("recovery")
        if recovery:
            lines.append(
                f"{'recovery':>16s} {'records':>8s} {'batches':>8s} "
                f"{'ms':>8s} {'exact':>6s}"
            )
            for label, record in recovery.items():
                lines.append(
                    f"{label:>16s} {record['replayed_records']:>8,d} "
                    f"{record['replayed_batches']:>8,d} "
                    f"{float(record['recover_ms']):>8.1f} "
                    f"{'yes' if record['exact'] else 'NO':>6s}"
                )
    serve = suites.get("serve")
    if serve:
        lines.append("")
        lines.append(
            f"{'serve':>16s} {'qps':>8s} {'p50':>9s} {'p99':>9s} "
            f"{'errors':>7s} {'exact':>6s}"
        )
        for label, record in serve.items():
            lines.append(
                f"{label:>16s} {float(record['throughput_qps']):>8.1f} "
                f"{float(record['p50_ms']):>7.1f}ms "
                f"{float(record['p99_ms']):>7.1f}ms "
                f"{int(record['errors']):>7d} "
                f"{'yes' if record['exact'] else 'NO':>6s}"
            )
    shard = suites.get("shard")
    if shard:
        lines.append("")
        lines.append(
            f"{'shard':>20s} {'unsharded':>11s} {'sharded':>11s} "
            f"{'speedup':>9s} {'exact':>6s}"
        )
        for label, record in shard.items():
            lines.append(
                f"{label:>20s} {float(record['unsharded_ms']):>9.1f}ms "
                f"{float(record['sharded_ms']):>9.1f}ms "
                f"{float(record['speedup']):>8.2f}x "
                f"{'yes' if record['exact'] else 'NO':>6s}"
            )
    storage = suites.get("storage")
    if storage:
        lines.append("")
        lines.append(
            f"{'storage':>16s} {'file':>11s} {'mmap':>11s} "
            f"{'speedup':>9s} {'pages':>7s} {'exact':>6s}"
        )
        for label, record in storage.items():
            lines.append(
                f"{label:>16s} {float(record['file_ms']):>9.1f}ms "
                f"{float(record['mmap_ms']):>9.1f}ms "
                f"{float(record['speedup']):>8.2f}x "
                f"{record['page_accesses']:>7,d} "
                f"{'yes' if record['exact'] else 'NO':>6s}"
            )
    return "\n".join(lines)


def load_report(path: str) -> Dict[str, Any]:
    """Load and minimally validate a bench JSON report."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("kind") != "repro-bench":
        raise ValueError(f"{path}: not a repro-bench report")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {data.get('schema')} != {SCHEMA_VERSION}"
        )
    return data


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a bench JSON report with stable formatting."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def default_json_name(now: Optional[datetime] = None) -> str:
    """The conventional committed report name: ``BENCH_<date>.json``."""
    stamp = (now or datetime.now(timezone.utc)).strftime("%Y-%m-%d")
    return f"BENCH_{stamp}.json"
