"""Unit tests for the observability plane (tracer, metrics, profiles).

The end-to-end conformance contract lives in
``tests/test_trace_conformance.py``; this module pins the local
behaviour of each building block: span lifecycle and nesting, the
disabled tracer's null objects, metric typing rules, and the profile /
Chrome-trace export formats.
"""

import json

import pytest

from repro.core.clock import FakeClock
from repro.core.metrics import QueryStats
from repro.exceptions import ConfigurationError, UsageError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    QueryProfile,
    Tracer,
)
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    validate_span_tree,
)


def make_tracer(**kwargs) -> Tracer:
    kwargs.setdefault("enabled", True)
    kwargs.setdefault("clock", FakeClock(auto_advance=0.001))
    return Tracer(**kwargs)


class TestDisabledTracer:
    def test_span_returns_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("engine.search") is NULL_SPAN
        assert tracer.start_span("buffer.fetch") is NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN
        NULL_SPAN.close()
        assert NULL_SPAN.count("anything") == 0

    def test_nothing_is_recorded(self):
        tracer = Tracer(enabled=False)
        with tracer.span("engine.search"):
            tracer.event("control.checkpoint")
        assert tracer.roots == []
        assert tracer.span_total == 0
        assert tracer.depth == 0

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestSpanLifecycle:
    def test_nesting_builds_a_tree(self):
        tracer = make_tracer()
        with tracer.span("engine.search") as root:
            with tracer.span("index.probe"):
                with tracer.span("buffer.fetch"):
                    pass
            with tracer.span("buffer.fetch"):
                pass
        assert isinstance(root, Span)
        assert [c.name for c in root.children] == [
            "index.probe",
            "buffer.fetch",
        ]
        assert root.count("buffer.fetch") == 2
        assert tracer.roots == [root]
        assert tracer.depth == 0

    def test_clock_times_are_strictly_monotonic(self):
        tracer = make_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        times = []
        for span in tracer.iter_spans():
            times.append(span.start)
            times.append(span.end)
        assert all(t is not None for t in times)
        ordered = sorted(times)
        assert len(set(times)) == len(times)
        assert validate_span_tree(tracer.roots[0]) == []
        assert ordered[0] == tracer.roots[0].start

    def test_out_of_order_close_raises(self):
        tracer = make_tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(UsageError, match="out-of-order"):
            outer.close()

    def test_suspended_span_takes_no_children_until_resumed(self):
        tracer = make_tracer()
        root = tracer.start_span("engine.search")
        tracer.suspend(root)
        with tracer.span("elsewhere") as elsewhere:
            pass
        tracer.resume(root)
        with tracer.span("buffer.fetch"):
            pass
        root.close()
        assert tracer.roots == [root, elsewhere]
        assert [c.name for c in root.children] == ["buffer.fetch"]
        assert tracer.depth == 0
        assert validate_span_tree(root) == []

    def test_suspend_requires_the_innermost_span(self):
        tracer = make_tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(UsageError, match="out-of-order"):
            tracer.suspend(outer)

    def test_exception_closes_span_and_records_error(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("engine.search") as root:
                raise ValueError("boom")
        assert isinstance(root, Span)
        assert root.closed
        assert root.attrs["error"] == "ValueError"
        assert tracer.depth == 0

    def test_attrs_and_duration(self):
        tracer = make_tracer()
        with tracer.span("candidate.verify", sid=1, start=42) as span:
            pass
        assert isinstance(span, Span)
        assert span.attrs == {"sid": 1, "start": 42}
        assert span.duration > 0.0
        assert span.self_time() == pytest.approx(span.duration)

    def test_open_span_validation_reports_problem(self):
        tracer = make_tracer()
        root = tracer.start_span("root")
        assert isinstance(root, Span)
        problems = validate_span_tree(root)
        assert problems == ["span 'root' never closed"]
        root.close()
        assert validate_span_tree(root) == []


class TestSpanCapsAndEvents:
    def test_span_cap_drops_and_counts(self):
        tracer = make_tracer(max_spans=2)
        with tracer.span("a"):
            with tracer.span("b"):
                assert tracer.span("c") is NULL_SPAN
        assert tracer.span_total == 2
        assert tracer.dropped_spans == 1

    def test_events_attach_to_innermost_span(self):
        tracer = make_tracer()
        with tracer.span("engine.search"):
            with tracer.span("engine.run") as run:
                tracer.event("control.checkpoint", elapsed_s=0.5)
        assert isinstance(run, Span)
        assert [e.name for e in run.events] == ["control.checkpoint"]
        assert run.events[0].attrs == {"elapsed_s": 0.5}

    def test_event_outside_any_span_is_dropped(self):
        tracer = make_tracer()
        tracer.event("control.checkpoint")
        assert tracer.dropped_events == 1

    def test_event_cap(self):
        tracer = make_tracer(max_events=1)
        with tracer.span("a") as span:
            tracer.event("one")
            tracer.event("two")
        assert isinstance(span, Span)
        assert len(span.events) == 1
        assert tracer.dropped_events == 1

    def test_reset_clears_everything(self):
        tracer = make_tracer(max_spans=4)
        with tracer.span("a"):
            tracer.event("e")
        tracer.reset()
        assert tracer.roots == []
        assert tracer.span_total == 0
        assert tracer.dropped_spans == 0
        assert tracer.depth == 0

    def test_bad_caps_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_spans=0)
        with pytest.raises(ConfigurationError):
            Tracer(max_events=-1)


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("buffer.hit")
        counter.inc()
        counter.inc(2.0)
        assert registry.counter("buffer.hit") is counter
        assert counter.value == 3.0

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(UsageError, match="cannot decrease"):
            registry.counter("x").inc(-1.0)

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(UsageError, match="already a counter"):
            registry.gauge("x")
        with pytest.raises(UsageError, match="already a counter"):
            registry.histogram("x")

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(UsageError, match="already registered"):
            registry.histogram("h", buckets=(1.0, 4.0))

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(UsageError):
            registry.histogram("empty", buckets=())
        with pytest.raises(UsageError):
            registry.histogram("descending", buckets=(2.0, 1.0))
        with pytest.raises(UsageError):
            registry.histogram("nan", buckets=(float("nan"),))

    def test_histogram_rejects_nan_observation(self):
        registry = MetricsRegistry()
        with pytest.raises(UsageError, match="NaN"):
            registry.histogram("h").observe(float("nan"))

    def test_histogram_bucket_placement(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 4.0))
        hist.observe(1.0)   # first bucket (inclusive upper bound)
        hist.observe(3.0)   # second bucket
        hist.observe(100.0)  # overflow bucket
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.total == pytest.approx(104.0)

    def test_snapshot_delta(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(2.0)
        before = registry.snapshot()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(7.0)
        registry.gauge("g").set(9.0)
        delta = registry.snapshot().delta(before)
        assert delta.counters["c"] == 3.0
        assert delta.histograms["h"].count == 1
        assert delta.histograms["h"].total == pytest.approx(7.0)
        assert delta.gauges["g"] == 9.0

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def build_profile() -> QueryProfile:
    tracer = make_tracer()
    registry = tracer.metrics
    before = registry.snapshot()
    with tracer.span("engine.search", engine="RU") as root:
        with tracer.span("index.probe"):
            with tracer.span("buffer.fetch", page=7):
                registry.counter("buffer.miss").inc()
        with tracer.span("buffer.fetch", page=9):
            registry.counter("buffer.miss").inc()
        tracer.event("control.checkpoint", elapsed_s=0.1)
    assert isinstance(root, Span)
    stats = QueryStats(page_accesses=2, candidates=1)
    return QueryProfile(
        span=root,
        metrics=registry.snapshot().delta(before),
        stats=stats,
    )


class TestQueryProfile:
    def test_span_count_and_totals(self):
        profile = build_profile()
        assert profile.span_count("buffer.fetch") == 2
        totals = profile.span_totals()
        assert totals["buffer.fetch"][0] == 2
        assert totals["engine.search"][0] == 1
        assert totals["buffer.fetch"][1] > 0.0

    def test_top_spans_ranked_by_self_time(self):
        profile = build_profile()
        rows = profile.top_spans(10)
        assert {row[0] for row in rows} == {
            "engine.search",
            "index.probe",
            "buffer.fetch",
        }
        self_times = [row[3] for row in rows]
        assert self_times == sorted(self_times, reverse=True)
        assert len(profile.top_spans(1)) == 1
        assert profile.top_spans(0) == []

    def test_as_dict_and_json_roundtrip(self):
        profile = build_profile()
        data = json.loads(profile.to_json())
        assert data["stats"]["page_accesses"] == 2
        assert data["metrics"]["counters"]["buffer.miss"] == 2.0
        assert data["span"]["name"] == "engine.search"
        assert data["span"]["attrs"] == {"engine": "RU"}
        names = {c["name"] for c in data["span"]["children"]}
        assert names == {"index.probe", "buffer.fetch"}

    def test_chrome_trace_format(self):
        profile = build_profile()
        doc = profile.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 4  # search, probe, 2x fetch
        assert len(instants) == 1
        assert instants[0]["name"] == "control.checkpoint"
        for event in complete:
            assert event["dur"] >= 0.0
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        # The whole document must be JSON-serialisable as-is.
        json.dumps(doc)

    def test_chrome_trace_stringifies_non_json_attrs(self):
        tracer = make_tracer()
        with tracer.span("a", payload=object()) as span:
            pass
        assert isinstance(span, Span)
        doc = tracer.to_chrome_trace()
        args = doc["traceEvents"][0]["args"]
        assert isinstance(args["payload"], str)
        json.dumps(doc)


class TestTracedShardedStream:
    def test_each_shard_root_holds_its_own_reads(self):
        import numpy as np

        from repro.shard import ShardedDatabase

        rng = np.random.default_rng(5)
        tracer = Tracer(enabled=True)
        db = ShardedDatabase(
            num_shards=2, policy="hash", omega=8, features=4, tracer=tracer
        )
        for sid in range(4):
            db.insert(sid, rng.standard_normal(400).cumsum())
        db.build()
        try:
            query = rng.standard_normal(24).cumsum()
            stream = db.iter_matches(query, k=5)
            assert len(list(stream)) == 5
            shard_stats = stream.result.shard_stats
            roots = [
                root for root in tracer.roots if root.name == "engine.search"
            ]
            assert len(roots) == len(shard_stats) == 2
            assert tracer.depth == 0
            assert sorted(root.count("buffer.fetch") for root in roots) == (
                sorted(stats.page_accesses for stats in shard_stats.values())
            )
            for root in roots:
                assert validate_span_tree(root) == []
        finally:
            db.close()
