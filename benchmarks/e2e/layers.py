"""Per-layer measurement taken from outside the program under test.

Three sources feed the per-layer metrics (README.md, "Per-layer
metrics"):

* :class:`SpanRecorder` — the benchmark's own spans around every call
  into a public entry point.  A request's latency *is* the duration of
  its span, so the untraced and the traced pass time requests the same
  way.
* :class:`TraceAggregator` — the traced pass: the repo's public
  ``Tracer(enabled=True)`` attached with ``set_tracer``; self-times are
  summed by span name after every request and the tracer is reset, so
  span caps are never reached.
* the ``*_probes`` functions — direct timed calls into single layer
  functions on inputs captured from the running workload.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.distance import dtw_distance, dtw_pow_batch
from repro.core.envelope import query_envelope
from repro.core.lower_bounds import lb_keogh_pow_batch, lb_paa_znorm_pow_batch
from repro.core.metrics import QueryStats
from repro.core.normalize import znormalize
from repro.core.paa import paa_batch, paa_envelope
from repro.core.results import Match
from repro.engines.base import SearchResult
from repro.obs import Tracer
from repro.obs.tracer import chrome_trace
from repro.serve import protocol
from repro.serve.service import ServiceResponse
from repro.shard.merge import merge_search_results

#: Requests whose repo-tracer span trees are kept for the Chrome dump;
#: the rest are aggregated and dropped.
KEPT_TRACED_REQUESTS = 2

CALIBRATION_ITERATIONS = 50_000
#: Small enough that the BLAS stays on the calling thread.
CALIBRATION_MATRIX = 96
CALIBRATION_MATMULS = 40
CALIBRATION_REPEATS = 9


def host_calibration_ms() -> float:
    """Median time of a fixed pure-Python loop plus a NumPy matmul.

    A diagnostic of the host, written with every run: it moves no
    metric and only explains a noisy run.
    """
    matrix = np.linspace(0.0, 1.0, CALIBRATION_MATRIX ** 2).reshape(
        CALIBRATION_MATRIX, CALIBRATION_MATRIX
    )
    samples: List[float] = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value * value % 7
        for _ in range(CALIBRATION_MATMULS):
            matrix @ matrix
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


class BenchSpan:
    """One benchmark-side span; use as a context manager."""

    __slots__ = ("_recorder", "name", "request", "parent", "thread",
                 "start", "end")

    def __init__(
        self, recorder: "SpanRecorder", name: str, request: Optional[int]
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.request = request
        self.parent: Optional[BenchSpan] = None
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "BenchSpan":
        stack = self._recorder.stack()
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end = time.perf_counter()
        self._recorder.stack().pop()
        self._recorder.spans.append(self)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps every benchmark-side span in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[BenchSpan] = []
        self._local = threading.local()

    def stack(self) -> List[BenchSpan]:
        stack: Optional[List[BenchSpan]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request: Optional[int] = None) -> BenchSpan:
        return BenchSpan(self, name, request)

    def chrome_events(self) -> List[Dict[str, Any]]:
        ordered = sorted(self.spans, key=lambda span: span.start)
        ids = {id(span): index for index, span in enumerate(ordered)}
        threads = {
            ident: index
            for index, ident in enumerate(
                sorted({span.thread for span in ordered})
            )
        }
        return [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {
                    "id": ids[id(span)],
                    "parent": (
                        ids.get(id(span.parent))
                        if span.parent is not None
                        else None
                    ),
                    "request": span.request,
                },
            }
            for span in ordered
        ]


class TraceAggregator:
    """Sums the repo tracer's self-times by span name, request by request."""

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.search_total_s = 0.0
        self.search_self_sum_s = 0.0
        self.fetch_mismatches = 0
        self.dropped_spans = 0
        self._kept_roots: List[Any] = []
        self._kept_requests = 0

    def harvest(self, page_accesses: Optional[int]) -> None:
        """Fold in the spans of the request that just finished.

        ``page_accesses`` is the request's ``stats.page_accesses`` (the
        paper's NUM_IO); ``None`` for operations that report no stats.
        """
        tracer = self.tracer
        roots = list(tracer.roots)
        fetches = 0
        # (span, whether an ``engine.search`` span encloses it)
        stack = [(root, False) for root in roots]
        while stack:
            span, inside_search = stack.pop()
            self_time = span.self_time()
            self.self_s[span.name] += self_time
            self.counts[span.name] += 1
            if span.name == "buffer.fetch":
                fetches += 1
            if span.name == "engine.search" and not inside_search:
                self.search_total_s += span.duration
                inside_search = True
            if inside_search:
                self.search_self_sum_s += self_time
            stack.extend((child, inside_search) for child in span.children)
        if page_accesses is not None and fetches != page_accesses:
            self.fetch_mismatches += 1
        self.dropped_spans += tracer.dropped_spans
        if self._kept_requests < KEPT_TRACED_REQUESTS:
            self._kept_roots.extend(roots)
            self._kept_requests += 1
        tracer.reset()

    @property
    def self_time_coverage(self) -> float:
        """Sum of self-times inside ``engine.search`` over its total."""
        if self.search_total_s <= 0.0:
            return 1.0
        return self.search_self_sum_s / self.search_total_s

    def chrome_events(self) -> List[Dict[str, Any]]:
        return chrome_trace(self._kept_roots, pid=2)["traceEvents"]


def write_chrome_trace(
    path: str, recorder: SpanRecorder, traced: Optional[TraceAggregator]
) -> None:
    events = recorder.chrome_events()
    if traced is not None:
        events.extend(traced.chrome_events())
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------

PROBE_SECONDS = 0.05
PROBE_LANES = 64


def time_call_us(function: Callable[[], Any]) -> float:
    """Median wall time of ``function()`` in microseconds."""
    samples: List[float] = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(samples) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def core_probes(
    query: np.ndarray, data: np.ndarray, omega: int, features: int
) -> Dict[str, float]:
    """Time the distance and lower-bound kernels on workload inputs."""
    length = query.size
    rho = max(1, int(0.05 * length))
    starts = np.linspace(0, data.size - length, PROBE_LANES).astype(int)
    batch = np.stack([data[start : start + length] for start in starts])
    envelope = query_envelope(query, rho)
    paa_lower, paa_upper = paa_envelope(
        query_envelope(znormalize(query), rho).slice(0, omega), features
    )
    paa_rows = paa_batch(batch[:, :omega], features)
    mus = batch.mean(axis=1)
    sigmas = np.maximum(batch.std(axis=1), 1e-9)
    seg_len = omega // features
    return {
        "core.dtw_scalar_us": time_call_us(
            lambda: dtw_distance(batch[0], query, rho)
        ),
        "core.dtw_batch_us_per_pair": time_call_us(
            lambda: dtw_pow_batch(batch, query, rho)
        )
        / PROBE_LANES,
        "core.lb_keogh_batch_us_per_cand": time_call_us(
            lambda: lb_keogh_pow_batch(envelope, batch)
        )
        / PROBE_LANES,
        "core.lb_znorm_batch_us_per_cand": time_call_us(
            lambda: lb_paa_znorm_pow_batch(
                paa_lower, paa_upper, paa_rows, mus, sigmas, seg_len
            )
        )
        / PROBE_LANES,
        "core.envelope_us": time_call_us(lambda: query_envelope(query, rho)),
    }


def serve_probes(
    request: Dict[str, Any], response: Dict[str, Any]
) -> Dict[str, float]:
    """Time the wire codec on one captured request/response pair."""
    line = json.dumps(request)
    stats = QueryStats()
    for key, value in response["stats"].items():
        setattr(stats, key, value)
    rebuilt = ServiceResponse(
        request_id=response["id"],
        kind=response["kind"],
        tenant=response["tenant"],
        result=SearchResult(
            matches=[
                Match(
                    distance=float(distance), sid=int(sid),
                    start=int(start), length=int(length),
                )
                for sid, start, length, distance in response["matches"]
            ],
            stats=stats,
        ),
        queue_wait_s=response["queue_wait_s"],
        execution_s=response["execution_s"],
        degradation_tier=response["degradation_tier"],
    )
    return {
        "serve.parse_request_us": time_call_us(
            lambda: protocol.parse_request_line(line)
        ),
        "serve.encode_response_us": time_call_us(
            lambda: json.dumps(protocol.encode_response(rebuilt))
        ),
    }


def shard_probes(result: Any) -> Dict[str, float]:
    """Time the merge on one captured sharded answer.

    Every shard hands the merge its own top-k, so each rebuilt shard
    answer carries the merged result's k matches and that shard's real
    ``shard_stats``: the same counts to fold and the same number of
    matches to sort as the live fan-out.
    """
    outcomes = [
        (shard, SearchResult(matches=list(result.matches), stats=stats))
        for shard, stats in sorted(result.shard_stats.items())
    ]
    k = len(result.matches)
    return {
        "shard.merge_us": time_call_us(
            lambda: merge_search_results(outcomes, k=k)
        )
    }
