"""Trace <-> stats conformance: spans must agree with the cost model.

The observability plane is only trustworthy if it counts what the
paper counts.  These tests run every golden engine config from
``tests/test_engines_stats.py`` with tracing *enabled* and assert:

* the number of ``buffer.fetch`` spans equals the pinned NUM_IO
  (``stats.page_accesses``) exactly — two independent mechanisms,
  the span recorder and the pager's physical-read counter, observing
  the same call site;
* the span tree is well-formed (every span closed, children nested
  inside parents) and strictly monotonic on a ``FakeClock``;
* every golden counter and result digest is unchanged by tracing —
  the instrumented paths are behaviour-identical.
"""

import pytest

from repro.core.clock import FakeClock
from repro.engines.base import QuerySpec
from repro.engines.range_search import RangeSearchEngine
from repro.control import Deadline, ExecutionControl
from repro.obs import Tracer
from repro.obs.tracer import validate_span_tree

from tests.conftest import (
    build_golden_db,
    build_golden_psm_db,
    query_from,
    run_engine,
)
from tests.test_engines_stats import (
    GOLDEN_COUNTERS,
    GOLDEN_DISTANCES,
    GOLDEN_MATCHES,
    GOLDEN_PSM_DISTANCES,
    GOLDEN_PSM_MATCHES,
    assert_golden,
)

RANKED_LABELS = [
    "seqscan", "hlmj", "hlmj-d", "hlmj-wg", "hlmj-wg-d",
    "ru", "ru-d", "ru-cost", "ru-cost-d",
]


def make_tracer() -> Tracer:
    # auto_advance makes every clock read distinct, so monotonicity is
    # a structural property of the instrumentation, not the host clock.
    return Tracer(enabled=True, clock=FakeClock(auto_advance=1e-6))


@pytest.fixture(scope="module")
def traced_db():
    return build_golden_db(tracer=make_tracer())


@pytest.fixture(scope="module")
def traced_psm_db():
    return build_golden_psm_db(tracer=make_tracer())


def run_golden(db, label):
    """Run one golden ranked config on a cold cache with a fresh trace."""
    deferred = label.endswith("-d")
    method = label[:-2] if deferred else label
    query = query_from(db, 640, 48)
    db.reset_cache()
    db.tracer.reset()
    return db.search(query, k=5, rho=2, method=method, deferred=deferred)


def assert_conformant(profile, expected_num_io):
    assert profile is not None
    assert profile.span_count("buffer.fetch") == expected_num_io
    assert profile.stats.page_accesses == expected_num_io
    assert validate_span_tree(profile.span) == []


class TestNumIoConformance:
    @pytest.mark.parametrize("label", RANKED_LABELS)
    def test_fetch_spans_equal_pinned_num_io(self, traced_db, label):
        result = run_golden(traced_db, label)
        assert_conformant(
            result.profile, GOLDEN_COUNTERS[label]["page_accesses"]
        )

    def test_range_search(self, traced_db):
        query = query_from(traced_db, 640, 48)
        traced_db.reset_cache()
        traced_db.tracer.reset()
        result = run_engine(
            RangeSearchEngine(traced_db.index),
            query,
            QuerySpec(kind="range", epsilon=2.5, rho=2),
            ExecutionControl(tracer=traced_db.tracer),
        )
        assert_conformant(
            result.profile, GOLDEN_COUNTERS["range"]["page_accesses"]
        )

    def test_psm(self, traced_psm_db):
        query = query_from(traced_psm_db, 200, 32)
        traced_psm_db.reset_cache()
        traced_psm_db.tracer.reset()
        result = traced_psm_db.search(query, k=3, rho=1, method="psm")
        assert_conformant(
            result.profile, GOLDEN_COUNTERS["psm"]["page_accesses"]
        )

    def test_match_stream(self, traced_db):
        query = query_from(traced_db, 640, 48)
        traced_db.reset_cache()
        traced_db.tracer.reset()
        stream = traced_db.iter_matches(query, k=5, rho=2)
        matches = list(stream)
        assert len(matches) == 5
        profile = stream.profile
        assert_conformant(profile, profile.stats.page_accesses)
        assert profile.span.name == "engine.search"
        assert profile.span.attrs["engine"] == "RU-STREAM"


class TestNormalizedTracing:
    """``normalize=True`` under the tracer: fetch spans are NUM_IO, and
    the node step traces one ``engine.lb_batch`` per node scoring."""

    @pytest.mark.parametrize(
        "label", ["ru-cost", "ru-cost-d", "hlmj", "range_search"]
    )
    def test_spans_equal_counters(self, traced_db, label):
        query = query_from(traced_db, 640, 48)
        traced_db.reset_cache()
        traced_db.tracer.reset()
        if label == "range_search":
            result = run_engine(
                RangeSearchEngine(traced_db.index),
                query,
                QuerySpec(kind="range", epsilon=2.5, rho=2, normalize=True),
                ExecutionControl(tracer=traced_db.tracer),
            )
        else:
            result = traced_db.search(
                query, k=5, rho=2, method=label.removesuffix("-d"),
                deferred=label.endswith("-d"), normalize=True,
            )
        profile = result.profile
        assert_conformant(profile, result.stats.page_accesses)
        node_steps = [
            span
            for span in profile.span.iter_tree()
            if span.name == "engine.lb_batch" and "windows" in span.attrs
        ]
        assert len(node_steps) == result.stats.node_scorings > 0
        # Len(Q) = 48, omega = 16: every node is scored for 33 windows.
        assert {span.attrs["windows"] for span in node_steps} == {33}


class TestGoldensUnchangedUnderTracing:
    """Tracing ON must not move a single counter or result digest."""

    @pytest.mark.parametrize("label", RANKED_LABELS)
    def test_ranked_goldens(self, traced_db, label):
        result = run_golden(traced_db, label)
        assert_golden(result, label, GOLDEN_DISTANCES, GOLDEN_MATCHES)

    def test_psm_goldens(self, traced_psm_db):
        query = query_from(traced_psm_db, 200, 32)
        traced_psm_db.reset_cache()
        traced_psm_db.tracer.reset()
        result = traced_psm_db.search(query, k=3, rho=1, method="psm")
        assert_golden(
            result, "psm", GOLDEN_PSM_DISTANCES, GOLDEN_PSM_MATCHES
        )


    def test_disabled_tracer_is_the_untraced_path(self):
        # ``tracer=None`` means NULL_TRACER; a caller's own disabled
        # tracer must hit the same goldens and record nothing.
        tracer = Tracer(enabled=False)
        result = run_golden(build_golden_db(tracer=tracer), "ru-cost")
        assert_golden(result, "ru-cost", GOLDEN_DISTANCES, GOLDEN_MATCHES)
        assert result.profile is None
        assert tracer.roots == []


class TestSpanTreeShape:
    def test_strictly_monotonic_timestamps(self, traced_db):
        result = run_golden(traced_db, "ru-cost")
        root = result.profile.span
        times = []
        for span in root.iter_tree():
            assert span.end is not None
            assert span.end > span.start
            times.append(span.start)
            times.append(span.end)
        # Every enter/exit tick is a distinct FakeClock reading.
        assert len(set(times)) == len(times)
        assert min(times) == root.start
        assert max(times) == root.end
        for span in root.iter_tree():
            for child in span.children:
                assert child.start > span.start
                assert child.end < span.end

    def test_engine_phases_under_root(self, traced_db):
        result = run_golden(traced_db, "ru")
        names = [c.name for c in result.profile.span.children]
        assert names == ["engine.run", "engine.finalize"]

    def test_fetch_spans_carry_page_attrs(self, traced_db):
        result = run_golden(traced_db, "hlmj")
        fetches = [
            s
            for s in result.profile.span.iter_tree()
            if s.name == "buffer.fetch"
        ]
        assert fetches
        for span in fetches:
            assert isinstance(span.attrs["page"], int)
            assert isinstance(span.attrs["kind"], str)

    def test_metrics_delta_matches_buffer_stats(self, traced_db):
        result = run_golden(traced_db, "ru-cost")
        counters = result.profile.metrics.counters
        stats = result.stats
        # Logical reads = buffer hits + misses, and the per-kind fetch
        # counters sum to the physical reads the spans count.
        assert (
            counters["buffer.hit"] + counters["buffer.miss"]
            == stats.logical_reads
        )
        fetch_total = sum(
            value
            for name, value in counters.items()
            if name.startswith("page.fetch.")
        )
        assert fetch_total == stats.page_accesses


class TestControlPlaneEvents:
    def test_checkpoints_surface_as_events(self, traced_db):
        query = query_from(traced_db, 640, 48)
        traced_db.reset_cache()
        traced_db.tracer.reset()
        result = traced_db.search(
            query, k=5, rho=2, method="ru-cost",
            deadline=Deadline.after(3600.0),
        )
        events = [
            event.name
            for span in result.profile.span.iter_tree()
            for event in span.events
        ]
        assert "control.checkpoint" in events

    def test_unlimited_queries_emit_no_checkpoint_events(self, traced_db):
        result = run_golden(traced_db, "ru-cost")
        events = [
            event.name
            for span in result.profile.span.iter_tree()
            for event in span.events
        ]
        assert "control.checkpoint" not in events
