"""Tests for the repo-specific static analyzer (``repro.analysis``).

Each rule gets a positive fixture (a snippet that must trigger it) and
a negative fixture (a near-identical snippet that must not), plus
suppression-comment behavior and a self-check asserting the shipped
source tree is clean at head.
"""

import json
import pathlib
import textwrap

import pytest

import repro
from repro.__main__ import main as cli_main
from repro.analysis import all_rules, lint_paths, lint_source
from repro.analysis.contracts import LOWER_BOUND_CONTRACTS
from repro.analysis.framework import LintReport, parse_suppressions
from repro.exceptions import ConfigurationError

SRC_PACKAGE = pathlib.Path(repro.__file__).parent


def codes(findings):
    return sorted({finding.code for finding in findings})


def lint_snippet(snippet, path):
    return lint_source(textwrap.dedent(snippet), path)


class TestRS001BufferBypass:
    def test_direct_pager_read_is_flagged(self):
        findings = lint_snippet(
            """
            def fetch(pager, page_id):
                return pager.read(page_id)
            """,
            "repro/engines/fancy.py",
        )
        assert codes(findings) == ["RS001"]
        assert "BufferPool" in findings[0].message

    def test_private_pager_attribute_is_flagged(self):
        findings = lint_snippet(
            """
            class Store:
                def peek_fast(self, page_id):
                    return self._pager.read(page_id)
            """,
            "repro/storage/sequences.py",
        )
        assert codes(findings) == ["RS001"]

    def test_buffer_layer_is_whitelisted(self):
        findings = lint_snippet(
            """
            def fetch(self, page_id):
                return self._pager.read(page_id)
            """,
            "repro/storage/buffer.py",
        )
        assert findings == []

    def test_buffered_get_is_clean(self):
        findings = lint_snippet(
            """
            def fetch(buffer, page_id):
                return buffer.get(page_id)
            """,
            "repro/engines/fancy.py",
        )
        assert findings == []


class TestRS002ExceptionTaxonomy:
    def test_builtin_raise_in_storage_is_flagged(self):
        findings = lint_snippet(
            """
            def check(value):
                if value < 0:
                    raise ValueError("negative")
            """,
            "repro/storage/pager.py",
        )
        assert codes(findings) == ["RS002"]
        assert "ReproError" in findings[0].message

    def test_bare_exception_class_reference_is_flagged(self):
        findings = lint_snippet(
            """
            def check():
                raise Exception
            """,
            "repro/engines/base.py",
        )
        assert codes(findings) == ["RS002"]

    def test_typed_raise_is_clean(self):
        findings = lint_snippet(
            """
            from repro.exceptions import PageError

            def check(value):
                if value < 0:
                    raise PageError("negative")
            """,
            "repro/storage/pager.py",
        )
        assert findings == []

    def test_out_of_scope_layer_is_clean(self):
        findings = lint_snippet(
            """
            def check():
                raise ValueError("benchmark-local")
            """,
            "repro/bench/harness.py",
        )
        assert findings == []

    def test_reraise_is_clean(self):
        findings = lint_snippet(
            """
            def check(error):
                try:
                    pass
                except KeyError:
                    raise
            """,
            "repro/storage/pager.py",
        )
        assert findings == []

    def test_stop_iteration_is_the_protocol_only_inside_next(self):
        findings = lint_snippet(
            """
            class Stream:
                def __next__(self):
                    raise StopIteration

                def pull(self):
                    raise StopIteration
            """,
            "repro/engines/ranked_union.py",
        )
        assert [(f.code, f.line) for f in findings] == [("RS002", 7)]


class TestRS003FloatEquality:
    def test_float_literal_equality_is_flagged(self):
        findings = lint_snippet(
            """
            def fast_path(p):
                return p == 2.0
            """,
            "repro/core/distance.py",
        )
        assert codes(findings) == ["RS003"]

    def test_inf_sentinel_equality_is_flagged(self):
        findings = lint_snippet(
            """
            import math

            def is_unbounded(value):
                return value == math.inf
            """,
            "repro/core/results.py",
        )
        assert codes(findings) == ["RS003"]

    def test_ordering_comparison_is_clean(self):
        findings = lint_snippet(
            """
            def prune(bound, threshold):
                return bound > threshold or bound < 0.0
            """,
            "repro/core/distance.py",
        )
        assert findings == []

    def test_outside_core_is_clean(self):
        findings = lint_snippet(
            """
            def fast_path(p):
                return p == 2.0
            """,
            "repro/engines/seqscan.py",
        )
        assert findings == []


class TestRS004MutableDefault:
    def test_list_default_is_flagged(self):
        findings = lint_snippet(
            """
            def collect(matches=[]):
                return matches
            """,
            "repro/core/results.py",
        )
        assert codes(findings) == ["RS004"]

    def test_dict_call_default_is_flagged(self):
        findings = lint_snippet(
            """
            def collect(*, counters=dict()):
                return counters
            """,
            "repro/bench/harness.py",
        )
        assert codes(findings) == ["RS004"]

    def test_none_default_is_clean(self):
        findings = lint_snippet(
            """
            def collect(matches=None):
                return matches if matches is not None else []
            """,
            "repro/core/results.py",
        )
        assert findings == []


class TestRS005LowerBoundContract:
    def test_undeclared_bound_function_is_flagged(self):
        source = SRC_PACKAGE.joinpath("core", "lower_bounds.py").read_text()
        source += (
            "\n\ndef lb_novel_pow(x: float) -> float:\n    return 0.0\n"
        )
        findings = lint_source(source, "repro/core/lower_bounds.py")
        assert codes(findings) == ["RS005"]
        assert "lb_novel_pow" in findings[0].message

    def test_stale_table_entry_is_flagged(self):
        findings = lint_snippet(
            """
            def lb_keogh_pow(envelope, values, p=2.0):
                return 0.0
            """,
            "repro/core/lower_bounds.py",
        )
        assert codes(findings) == ["RS005"]
        missing = {name for name in LOWER_BOUND_CONTRACTS}
        mentioned = {
            name
            for name in missing
            for finding in findings
            if f"{name!r}" in finding.message
        }
        assert "lb_paa_pow" in mentioned
        assert "lb_keogh_pow" not in mentioned

    def test_shipped_module_matches_table(self):
        source = SRC_PACKAGE.joinpath("core", "lower_bounds.py").read_text()
        findings = [
            finding
            for finding in lint_source(source, "repro/core/lower_bounds.py")
            if finding.code == "RS005"
        ]
        assert findings == []

    def test_other_modules_are_exempt(self):
        findings = lint_snippet(
            """
            def lb_novel_pow(x):
                return 0.0
            """,
            "repro/core/distance.py",
        )
        assert findings == []


class TestRS006StatsDiscipline:
    def test_fetch_without_stats_is_flagged(self):
        findings = lint_snippet(
            """
            def descend(tree, page_id):
                node = tree.read_node(page_id)
                return node.entries
            """,
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS006"]
        assert "QueryStats" in findings[0].message

    def test_stats_parameter_is_clean(self):
        findings = lint_snippet(
            """
            def descend(tree, page_id, stats):
                node = tree.read_node(page_id)
                stats.node_expansions += 1
                return node.entries
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_stats_attribute_is_clean(self):
        findings = lint_snippet(
            """
            class Walker:
                def descend(self, page_id):
                    node = self._tree.read_node(page_id)
                    self._stats.node_expansions += 1
                    return node.entries
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_evaluator_parameter_is_clean(self):
        findings = lint_snippet(
            """
            def evaluate(store, evaluator, sid, start, length):
                return store.get_subsequence(sid, start, length)
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_outside_engines_is_exempt(self):
        findings = lint_snippet(
            """
            def rebuild(tree, page_id):
                return tree.read_node(page_id)
            """,
            "repro/index/builder.py",
        )
        assert findings == []


class TestRS007CheckpointDiscipline:
    def test_loop_without_checkpoint_is_flagged(self):
        findings = lint_snippet(
            """
            def _run(self, window_set, evaluator, config):
                while heap:
                    entry = heap.pop()
                    evaluator.submit(entry.sid, entry.start, entry.bound)
            """,
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS007"]
        assert "checkpoint" in findings[0].message

    def test_loop_with_checkpoint_is_clean(self):
        findings = lint_snippet(
            """
            def _run(self, window_set, evaluator, config):
                budget = evaluator.control
                while heap:
                    budget.checkpoint(heap[0][0])
                    entry = heap.pop()
                    evaluator.submit(entry.sid, entry.start, entry.bound)
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_nested_loop_is_covered_by_outer_checkpoint(self):
        findings = lint_snippet(
            """
            def search(self, query, config, stats):
                budget = self.control
                for sid in sids:
                    budget.checkpoint()
                    for block in blocks(sid):
                        scan(block)
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_each_outermost_loop_needs_its_own_checkpoint(self):
        findings = lint_snippet(
            """
            def search(self, query, config, stats):
                budget = self.control
                for window in windows:
                    budget.checkpoint()
                while stack:
                    stack.pop()
            """,
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS007"]

    def test_range_probe_walk_must_checkpoint(self):
        # The range engine's tree walk lives in _probe_window, below
        # the shared template's _run.
        findings = lint_snippet(
            """
            def _probe_window(self, window, window_set, evaluator, spec):
                stack = [self.index.tree.root_page]
                while stack:
                    evaluator.verify(*stack.pop())
            """,
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS007"]

    def test_range_probe_walk_with_checkpoint_is_clean(self):
        findings = lint_snippet(
            """
            def _probe_window(self, window, window_set, evaluator, spec):
                budget = evaluator.control
                stack = [self.index.tree.root_page]
                while stack:
                    budget.checkpoint()
                    evaluator.verify(*stack.pop())
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_helper_functions_are_exempt(self):
        findings = lint_snippet(
            """
            def _expand_state(self, heap, state, stats):
                for entry in state:
                    heap.append(entry)
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_outside_engines_is_exempt(self):
        findings = lint_snippet(
            """
            def search(values, target):
                for value in values:
                    if value == target:
                        return value
            """,
            "repro/index/rstar.py",
        )
        assert findings == []


class TestRS008SpanDiscipline:
    def test_bare_start_span_is_flagged(self):
        findings = lint_snippet(
            """
            def run(tracer):
                span = tracer.start_span("engine.run")
                do_work()
                span.close()
            """,
            "repro/engines/novel.py",
        )
        # RS008 flags the bare start_span; RS011's flow analysis also
        # (correctly) notices the span leaks if do_work() raises.
        assert codes(findings) == ["RS008", "RS011"]
        rs008 = [f for f in findings if f.code == "RS008"]
        assert "with" in rs008[0].message

    def test_bare_tracer_span_is_flagged(self):
        findings = lint_snippet(
            """
            def run(self):
                self.tracer.span("engine.run", k=5)
                do_work()
            """,
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS008"]

    def test_with_span_is_clean(self):
        findings = lint_snippet(
            """
            def run(tracer):
                with tracer.span("engine.run", k=5) as span:
                    do_work(span)
                with tracer.start_span("engine.other"):
                    do_work(None)
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_non_tracer_span_method_is_clean(self):
        findings = lint_snippet(
            """
            def rows(table):
                return table.span("header")
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_tracer_module_is_whitelisted(self):
        findings = lint_snippet(
            """
            def span(self, name):
                return self.start_span(name)
            """,
            "repro/obs/tracer.py",
        )
        assert findings == []

    def test_suppressed_long_lived_span_is_clean(self):
        findings = lint_snippet(
            """
            def open_root(tracer):
                return tracer.start_span(  # repro: ignore[RS008]
                    "engine.search"
                )
            """,
            "repro/api.py",
        )
        assert findings == []


class TestRS009WalDiscipline:
    def test_sealed_mutation_without_session_is_flagged(self):
        findings = lint_snippet(
            """
            class Store:
                def overwrite(self, page_id, payload):
                    self._pager.write(page_id, payload)
            """,
            "repro/storage/bad_ingest.py",
        )
        assert codes(findings) == ["RS009"]
        assert "WAL" in findings[0].message

    def test_allocate_and_free_are_flagged(self):
        findings = lint_snippet(
            """
            def grow(pager, payload):
                new = pager.allocate("DATA", payload)
                pager.free(new)
            """,
            "repro/index/novel.py",
        )
        assert codes(findings) == ["RS009"]
        assert len(findings) == 2

    def test_session_parameter_is_clean(self):
        findings = lint_snippet(
            """
            class Store:
                def add(self, sid, payload, session=None):
                    return self._pager.allocate("DATA", payload)
            """,
            "repro/storage/sequences.py",
        )
        assert findings == []

    def test_wal_attribute_reference_is_clean(self):
        findings = lint_snippet(
            """
            class Store:
                def add(self, sid, payload):
                    self._wal.append("append", sid=sid)
                    return self._pager.allocate("DATA", payload)
            """,
            "repro/storage/sequences.py",
        )
        assert findings == []

    def test_annotated_session_is_clean(self):
        findings = lint_snippet(
            """
            def apply(db, record: "IngestSession", payload):
                db._pager.write(0, payload)
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_wal_layer_is_whitelisted(self):
        findings = lint_snippet(
            """
            def truncate(self):
                self._pager.free(0)
            """,
            "repro/storage/wal.py",
        )
        assert findings == []

    def test_engine_layer_is_out_of_scope(self):
        findings = lint_snippet(
            """
            def hack(pager, payload):
                pager.write(0, payload)
            """,
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_suppressed_build_path_is_clean(self):
        findings = lint_snippet(
            """
            class Tree:
                def _write_back(self, page_id):
                    self._pager.write(page_id, self._peek(page_id))  # repro: ignore[RS009]
            """,
            "repro/index/rstar.py",
        )
        assert findings == []

    def test_non_pager_receiver_is_clean(self):
        findings = lint_snippet(
            """
            def save(handle, payload):
                handle.write(payload)
            """,
            "repro/storage/novel.py",
        )
        assert findings == []


class TestRS010LockDiscipline:
    def test_unlocked_guarded_read_is_flagged(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                def get(self, page_id):
                    return self._frames.get(page_id)
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS010"]
        assert "_frames" in findings[0].message
        assert "_lock" in findings[0].message

    def test_locked_access_is_clean(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                def get(self, page_id):
                    with self._lock:
                        return self._frames.get(page_id)
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_one_unlocked_path_is_enough_to_flag(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                def get(self, page_id, fast):
                    if fast:
                        return self._frames.get(page_id)
                    with self._lock:
                        return self._frames.get(page_id)
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS010"]
        assert len(findings) == 1  # only the fast path is unprotected

    def test_access_after_with_block_is_flagged(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                def get(self, page_id):
                    with self._lock:
                        value = self._frames.get(page_id)
                    return value if value else self._frames.get(0)
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS010"]

    def test_acquire_release_in_try_finally_is_clean(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                def get(self, page_id):
                    self._lock.acquire()
                    try:
                        return self._frames.get(page_id)
                    finally:
                        self._lock.release()
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_requires_lock_helper_body_is_trusted(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                requires_lock,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                @requires_lock("_lock")
                def _evict_one(self):
                    self._frames.popitem()
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_requires_lock_call_without_lock_is_flagged(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                requires_lock,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                @requires_lock("_lock")
                def _evict_one(self):
                    self._frames.popitem()

                def shrink(self):
                    self._evict_one()
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS010"]
        assert "_evict_one" in findings[0].message

    def test_init_is_lifecycle_exempt(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import (
                guarded_by,
                shared_across_queries,
            )

            @shared_across_queries
            @guarded_by("_lock", "_frames")
            class Pool:
                def __init__(self):
                    self._frames = {}
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_unguarded_class_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Pool:
                def get(self, page_id):
                    return self._frames.get(page_id)
            """,
            "repro/storage/novel.py",
        )
        assert findings == []


class TestRS011ResourceLifecycle:
    def test_leak_on_exceptional_path_is_flagged(self):
        # validate(path) may raise with the log still open; note the
        # may-raise call must not mention `wal`, or passing it onward
        # would count as an ownership transfer.
        findings = lint_snippet(
            """
            def recover(path):
                wal = WriteAheadLog(path)
                validate(path)
                wal.close()
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS011"]
        assert "write-ahead log" in findings[0].message

    def test_try_finally_close_is_clean(self):
        findings = lint_snippet(
            """
            def recover(path):
                wal = WriteAheadLog(path)
                try:
                    validate(path)
                finally:
                    wal.close()
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_with_statement_is_clean(self):
        findings = lint_snippet(
            """
            def recover(path):
                wal = WriteAheadLog(path)
                with wal:
                    validate(path)
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_discarded_opener_is_flagged(self):
        findings = lint_snippet(
            """
            def add(db, values):
                db.ingest()
            """,
            "repro/api_helpers.py",
        )
        assert codes(findings) == ["RS011"]
        assert "discarded" in findings[0].message

    def test_returned_resource_transfers_ownership(self):
        findings = lint_snippet(
            """
            def open_wal(path):
                wal = WriteAheadLog(path)
                return wal
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_resource_passed_onward_transfers_ownership(self):
        findings = lint_snippet(
            """
            def open_wal(path, registry):
                wal = WriteAheadLog(path)
                registry.adopt(wal)
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_leaked_pin_is_flagged(self):
        findings = lint_snippet(
            """
            def read(pool, page_id):
                pin = pool.pin(page_id)
                value = pool.get(page_id)
                pin.release()
                return value
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS011"]
        assert "pin" in findings[0].message

    def test_tracer_module_is_exempt(self):
        findings = lint_snippet(
            """
            def open_root(self, name):
                span = self.start_span(name)
                self._register(name)
                return None
            """,
            "repro/obs/tracer.py",
        )
        assert findings == []


class TestRS012CheckThenAct:
    def test_unlocked_check_then_act_is_flagged(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import shared_across_queries

            @shared_across_queries
            class Cache:
                def put(self, key):
                    if self._count >= self._cap:
                        self._count = 0
                    self._count += 1
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS012"]
        assert "_count" in findings[0].message

    def test_locked_check_then_act_is_clean(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import shared_across_queries

            @shared_across_queries
            class Cache:
                def put(self, key):
                    with self._lock:
                        if self._count >= self._cap:
                            self._count = 0
                        self._count += 1
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_mutator_call_counts_as_write(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import shared_across_queries

            @shared_across_queries
            class Cache:
                def evict(self):
                    if self._entries:
                        self._entries.pop()
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS012"]

    def test_write_through_helper_method_is_flagged(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import shared_across_queries

            @shared_across_queries
            class Breaker:
                def record(self):
                    if self._state == "closed":
                        self._trip()

                def _trip(self):
                    self._state = "open"
            """,
            "repro/storage/novel.py",
        )
        assert codes(findings) == ["RS012"]

    def test_different_attribute_write_is_clean(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import shared_across_queries

            @shared_across_queries
            class Breaker:
                def record(self):
                    if self._state == "closed":
                        self._failures += 1
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_unshared_class_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Cache:
                def put(self, key):
                    if self._count >= self._cap:
                        self._count = 0
            """,
            "repro/storage/novel.py",
        )
        assert findings == []


class TestRS013ServiceLoopDiscipline:
    def test_uncheckpointed_while_true_is_flagged(self):
        findings = lint_snippet(
            """
            class Worker:
                def loop(self):
                    while True:
                        item = self.poll()
                        if item is not None:
                            self.run(item)
            """,
            "repro/serve/novel.py",
        )
        assert codes(findings) == ["RS013"]
        assert "checkpoint" in findings[0].message

    def test_checkpointed_while_true_is_clean(self):
        findings = lint_snippet(
            """
            class Worker:
                def loop(self):
                    while True:
                        self.shutdown_control.checkpoint()
                        item = self.poll()
                        if item is not None:
                            self.run(item)
            """,
            "repro/serve/novel.py",
        )
        assert findings == []

    def test_bounded_while_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Client:
                def read_all(self):
                    final = False
                    while not final:
                        final = self.read_line()
            """,
            "repro/serve/novel.py",
        )
        assert findings == []

    def test_engine_call_under_lock_is_flagged(self):
        findings = lint_snippet(
            """
            class Service:
                def run(self, request):
                    with self._lock:
                        return self._db.search(request.query, k=request.k)
            """,
            "repro/serve/novel.py",
        )
        assert codes(findings) == ["RS013"]
        assert "search" in findings[0].message

    def test_engine_call_after_release_is_clean(self):
        findings = lint_snippet(
            """
            class Service:
                def run(self, request):
                    with self._lock:
                        budget = self._budget
                    return self._db.search(request.query, budget=budget)
            """,
            "repro/serve/novel.py",
        )
        assert findings == []

    def test_spec_entry_under_lock_is_flagged(self):
        findings = lint_snippet(
            """
            class Service:
                def run(self, query, spec, control):
                    with self._lock:
                        return self._db.run_query(query, spec, control)
            """,
            "repro/serve/novel.py",
        )
        assert codes(findings) == ["RS013"]
        assert "run_query" in findings[0].message

    def test_spec_entry_after_release_is_clean(self):
        findings = lint_snippet(
            """
            class Service:
                def run(self, query, spec, control):
                    with self._lock:
                        self._inflight += 1
                    return self._db.open_stream(query, spec, control)
            """,
            "repro/serve/novel.py",
        )
        assert findings == []

    def test_guarded_by_contract_lock_is_tracked(self):
        findings = lint_snippet(
            """
            from repro.analysis.concurrency import guarded_by

            @guarded_by("_lock", "_state")
            class Service:
                def run(self, request):
                    self._lock.acquire()
                    try:
                        return self._db.range_search(request.query)
                    finally:
                        self._lock.release()
            """,
            "repro/serve/novel.py",
        )
        assert "RS013" in codes(findings)

    def test_outside_serve_package_is_out_of_scope(self):
        findings = lint_snippet(
            """
            class Worker:
                def loop(self):
                    while True:
                        self.run(self.poll())
            """,
            "repro/engines/novel.py",
        )
        assert "RS013" not in codes(findings)


class TestSuppressions:
    def test_matching_code_is_suppressed(self):
        report = LintReport()
        findings = lint_source(
            "def fetch(pager):\n"
            "    return pager.read(0)  # repro: ignore[RS001]\n",
            "repro/engines/novel.py",
            report=report,
        )
        assert findings == []
        assert report.suppressed == 1

    def test_blanket_ignore_suppresses_everything(self):
        findings = lint_source(
            "def fetch(pager):\n"
            "    return pager.read(0)  # repro: ignore\n",
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_wrong_code_does_not_suppress(self):
        findings = lint_source(
            "def fetch(pager):\n"
            "    return pager.read(0)  # repro: ignore[RS002]\n",
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS001"]

    def test_multiple_codes_in_one_comment(self):
        suppressions = parse_suppressions(
            "x = 1  # repro: ignore[RS001, RS003]\n"
        )
        assert suppressions == {1: {"RS001", "RS003"}}

    def test_marker_inside_string_is_not_a_suppression(self):
        findings = lint_source(
            'MESSAGE = "# repro: ignore[RS001]"\n'
            "def fetch(pager):\n"
            "    return pager.read(0)\n",
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS001"]

    def test_suppression_on_decorator_line_covers_the_def(self):
        # RS004 anchors on the def line, but the comment sits on the
        # decorator — the alias map must bridge the two.
        report = LintReport()
        findings = lint_source(
            "@decorate  # repro: ignore[RS004]\n"
            "def collect(matches=[]):\n"
            "    return matches\n",
            "repro/core/results.py",
            report=report,
        )
        assert findings == []
        assert report.suppressed == 1

    def test_suppression_on_def_line_of_decorated_function(self):
        findings = lint_source(
            "@decorate\n"
            "def collect(matches=[]):  # repro: ignore[RS004]\n"
            "    return matches\n",
            "repro/core/results.py",
        )
        assert findings == []

    def test_decorator_suppression_does_not_leak_into_the_body(self):
        findings = lint_source(
            "@decorate  # repro: ignore[RS001]\n"
            "def fetch(pager):\n"
            "    return pager.read(0)\n",
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS001"]

    def test_suppression_on_first_line_of_multiline_statement(self):
        # The finding anchors on the continuation line holding the
        # violating call, not the line carrying the comment.
        findings = lint_source(
            "def fetch(pager):\n"
            "    return (  # repro: ignore[RS001]\n"
            "        pager.read(0)\n"
            "    )\n",
            "repro/engines/novel.py",
        )
        assert findings == []

    def test_multiline_suppression_needs_the_first_line(self):
        findings = lint_source(
            "def fetch(pager):\n"
            "    return (\n"
            "        pager.read(0)  # repro: ignore[RS001]\n"
            "    )\n",
            "repro/engines/novel.py",
        )
        # A comment on the continuation line still works — it matches
        # the finding's own line directly.
        assert findings == []


class TestFramework:
    def test_syntax_error_reports_rs000(self):
        findings = lint_source("def broken(:\n", "repro/engines/broken.py")
        assert codes(findings) == ["RS000"]

    def test_select_restricts_rules(self):
        rules = all_rules(select=["RS001"])
        assert [rule.code for rule in rules] == ["RS001"]

    def test_ignore_removes_rules(self):
        rules = all_rules(ignore=["RS001"])
        assert "RS001" not in [rule.code for rule in rules]

    def test_unknown_code_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            all_rules(select=["RS999"])

    def test_all_rules_are_registered(self):
        registered = [rule.code for rule in all_rules()]
        assert registered == [
            "RS001",
            "RS002",
            "RS003",
            "RS004",
            "RS005",
            "RS006",
            "RS007",
            "RS008",
            "RS009",
            "RS010",
            "RS011",
            "RS012",
            "RS013",
        ]


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        report = lint_paths([SRC_PACKAGE])
        assert report.findings == []
        assert report.files_checked > 40

    def test_cli_exits_zero_on_head(self, capsys):
        assert cli_main(["lint", str(SRC_PACKAGE)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_cli_exits_nonzero_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engines" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def fetch(pager):\n    return pager.read(0)\n")
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RS001" in out

    def test_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "storage" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    raise ValueError('x')\n")
        assert cli_main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["code"] == "RS002"
        assert payload["findings"][0]["line"] == 2

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RS001",
            "RS002",
            "RS003",
            "RS004",
            "RS005",
            "RS006",
            "RS007",
            "RS008",
            "RS009",
            "RS010",
            "RS011",
            "RS012",
            "RS013",
        ):
            assert code in out

    def test_cli_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "storage" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    raise ValueError('x')\n")
        assert cli_main(["lint", "--format", "sarif", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert "RS002" in rule_ids and "RS010" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RS002"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_cli_sarif_clean_run_has_empty_results(self, tmp_path, capsys):
        good = tmp_path / "repro" / "core" / "ok.py"
        good.parent.mkdir(parents=True)
        good.write_text("VALUE = 1\n")
        assert cli_main(["lint", "--format", "sarif", str(good)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []

    def test_cli_unknown_rule_code_is_usage_error(self, capsys):
        assert cli_main(["lint", "--select", "RS999", "src"]) == 2

    def test_cli_missing_path_is_usage_error(self, capsys):
        assert cli_main(["lint", "definitely-not-a-real-path"]) == 2
