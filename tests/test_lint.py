"""Tests for the repo-specific static analyzer (``repro.analysis``).

Each rule gets a positive fixture (a snippet that must trigger it) and
a negative fixture (a near-identical snippet that must not), plus
suppression-comment behavior and a self-check asserting the shipped
source tree is clean at head.
"""

import json
import pathlib
import textwrap
import time

import pytest

import repro
from repro.__main__ import main as cli_main
from repro.analysis import all_rules, lint_paths, lint_source
from repro.analysis.contracts import LOWER_BOUND_CONTRACTS
from repro.analysis.framework import LintReport, parse_suppressions
from repro.analysis.rules import LockDisciplineRule
from repro.exceptions import ConfigurationError

SRC_PACKAGE = pathlib.Path(repro.__file__).parent
LOWER_BOUNDS_SOURCE = (SRC_PACKAGE / "core" / "lower_bounds.py").read_text()
KEPT_CODES = ["RS001", "RS005", "RS007", "RS009", "RS010", "RS013"]


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


class TestRS005LowerBoundContract:
    def test_undeclared_bound_function_is_flagged(self):
        source = LOWER_BOUNDS_SOURCE + (
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
        findings = [
            finding
            for finding in lint_source(
                LOWER_BOUNDS_SOURCE, "repro/core/lower_bounds.py"
            )
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

    def test_acquire_release_in_try_finally_is_flagged(self):
        # The lexical walk does not pair acquire() with release(): the
        # pair itself is the finding (not the access between them).
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
        assert [(f.code, f.line) for f in findings] == [
            ("RS010", 11),
            ("RS010", 15),
        ]
        assert all("with self._lock:" in f.message for f in findings)

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


    # -- the shapes the service code actually uses ----------------------

    def test_wait_for_lambda_runs_where_it_is_written(self):
        # QueryService.shutdown: the predicate is called by wait_for
        # with the lock held.
        snippet = """
            @guarded_by("_lock", "_inflight")
            class Service:
                def drain(self):
                    with self._lock:
                        self._lock.wait_for(lambda: self._inflight == 0)

                def poll(self, until):
                    until(lambda: self._inflight == 0)
            """
        findings = lint_snippet(snippet, "repro/serve/novel.py")
        assert [(f.code, f.line) for f in findings] == [("RS010", 9)]

    def test_condition_as_the_declared_lock(self):
        findings = lint_snippet(
            """
            @guarded_by("_ready", "_items")
            class Queue:
                def __init__(self):
                    self._ready = threading.Condition()
                    self._items = []

                def put(self, item):
                    with self._ready:
                        self._items.append(item)
                        self._ready.notify()

                def peek(self):
                    return self._items[0]
            """,
            "repro/serve/novel.py",
        )
        assert [(f.code, f.line) for f in findings] == [("RS010", 14)]
        assert "_ready" in findings[0].message

    def test_nested_with_blocks_on_two_locks(self):
        findings = lint_snippet(
            """
            @guarded_by("_a", "_x")
            @guarded_by("_b", "_y")
            class Pair:
                def both(self):
                    with self._a:
                        with self._b:
                            return self._x + self._y

                def crossed(self):
                    with self._b:
                        return self._x + self._y
            """,
            "repro/storage/novel.py",
        )
        assert [(f.code, f.line) for f in findings] == [("RS010", 12)]
        assert "'self._x'" in findings[0].message

    def test_finally_inside_the_with_is_still_locked(self):
        findings = lint_snippet(
            """
            @guarded_by("_lock", "_frames", "stats")
            class Pool:
                def take(self):
                    with self._lock:
                        try:
                            return self._frames.popitem()
                        finally:
                            self.stats.evictions += 1
            """,
            "repro/storage/novel.py",
        )
        assert findings == []

    def test_requires_lock_helper_may_call_another(self):
        findings = lint_snippet(
            """
            @guarded_by("_lock", "_frames")
            class Pool:
                @requires_lock("_lock")
                def _evict_one(self):
                    self._frames.popitem()

                @requires_lock("_lock")
                def _shrink(self, target):
                    while len(self._frames) > target:
                        self._evict_one()

                def resize(self, target):
                    with self._lock:
                        self._shrink(target)
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

    def test_requires_lock_method_enters_with_its_lock_held(self):
        findings = lint_snippet(
            """
            class Service:
                @requires_lock("_lock")
                def _dispatch(self, request):
                    return self._db.search(request.query, k=request.k)
            """,
            "repro/serve/novel.py",
        )
        assert codes(findings) == ["RS013"]
        assert "'self._lock'" in findings[0].message

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
            "    return pager.read(0)  # repro: ignore[RS009]\n",
            "repro/engines/novel.py",
        )
        # ... and the marker, having silenced nothing, is itself stale.
        assert codes(findings) == ["RS000", "RS001"]

    def test_multiple_codes_in_one_comment(self):
        suppressions = parse_suppressions(
            "x = 1  # repro: ignore[RS001, RS009]\n"
        )
        assert suppressions == {1: {"RS001", "RS009"}}

    def test_marker_inside_string_is_not_a_suppression(self):
        findings = lint_source(
            'MESSAGE = "# repro: ignore[RS001]"\n'
            "def fetch(pager):\n"
            "    return pager.read(0)\n",
            "repro/engines/novel.py",
        )
        assert codes(findings) == ["RS001"]

    def test_suppression_on_decorator_line_covers_the_def(self):
        # RS005 anchors on the def line, but the comment sits on the
        # decorator — the alias map must bridge the two.
        report = LintReport()
        findings = lint_source(
            LOWER_BOUNDS_SOURCE
            + "\n\n@decorate  # repro: ignore[RS005]\n"
            "def lb_novel_pow(x):\n"
            "    return 0.0\n",
            "repro/core/lower_bounds.py",
            report=report,
        )
        assert findings == []
        assert report.suppressed == 1

    def test_suppression_on_def_line_of_decorated_function(self):
        findings = lint_source(
            LOWER_BOUNDS_SOURCE
            + "\n\n@decorate\n"
            "def lb_novel_pow(x):  # repro: ignore[RS005]\n"
            "    return 0.0\n",
            "repro/core/lower_bounds.py",
        )
        assert findings == []

    def test_decorator_suppression_does_not_leak_into_the_body(self):
        findings = lint_source(
            "@decorate  # repro: ignore[RS001]\n"
            "def fetch(pager):\n"
            "    return pager.read(0)\n",
            "repro/engines/novel.py",
        )
        assert [(f.code, f.line) for f in findings] == [
            ("RS000", 1),  # the marker silenced nothing
            ("RS001", 3),
        ]

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

    def test_marker_for_unregistered_code_is_reported(self):
        source = "x = 1  # repro: ignore[RS999]\n"
        findings = lint_source(source, "repro/engines/novel.py")
        assert [(f.code, f.line) for f in findings] == [("RS000", 1)]
        assert "RS999" in findings[0].message
        # A code no rule owns can never match, filtered run or not.
        filtered = lint_source(
            source, "repro/engines/novel.py", rules=all_rules(select=["RS001"])
        )
        assert codes(filtered) == ["RS000"]

    def test_marker_that_silences_nothing_is_reported_in_a_full_run(self):
        source = "x = 1  # repro: ignore[RS001]\n"
        findings = lint_source(source, "repro/engines/novel.py")
        assert [(f.code, f.line) for f in findings] == [("RS000", 1)]
        assert "RS001" in findings[0].message
        # Under --select / --ignore the marker's rule may not have run.
        filtered = lint_source(
            source, "repro/engines/novel.py", rules=all_rules(ignore=["RS001"])
        )
        assert filtered == []
        # A blanket marker names no code and is left alone.
        assert lint_source("x = 1  # repro: ignore\n", "repro/x.py") == []


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
        assert registered == KEPT_CODES


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        report = lint_paths([SRC_PACKAGE])
        assert report.findings == []
        assert report.files_checked > 40
        assert report.suppressed == 9  # the R*-tree's offline build path

    def test_lock_walk_over_src_is_not_vacuous(self):
        # 0 findings means something only if the walk saw the code: 9
        # contract classes, 123 guarded accesses (10 / 134 before
        # PoolGate went; 13 / 143 before the
        # shard thread pool, Rotation and KthBound's lock went; 12 / 133
        # at 1.22.0; 13 / 174 before the circuit breaker went with
        # storage/circuit.py; 16 / 208 before TokenBucket, TenantState
        # and TenantRegistry went with serve/tenants.py; 15 / 227 before
        # the admission controller went; nested defs, 4 accesses, are
        # not chased).
        rule = LockDisciplineRule()
        report = lint_paths([SRC_PACKAGE], rules=[rule])
        assert report.findings == []
        assert rule.classes_visited >= 9
        assert rule.accesses_visited >= 123

    def test_full_src_tree_under_five_seconds(self):
        # About 0.5 s in-process on the 2-core reference host; the
        # bound exists to catch an accidental blow-up and may only tighten.
        start = time.perf_counter()
        report = lint_paths([SRC_PACKAGE])
        elapsed = time.perf_counter() - start
        assert report.files_checked > 0
        assert elapsed < 5.0, f"lint of src/ took {elapsed:.2f}s"

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
        bad.write_text("def f(pager):\n    return pager.read(0)\n")
        assert cli_main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["code"] == "RS001"
        assert payload["findings"][0]["line"] == 2

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [
            line.split()[0] for line in out.splitlines() if line[:2] == "RS"
        ]
        assert listed == KEPT_CODES

    def test_cli_rejects_the_sarif_format(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["lint", "--format", "sarif", "src"])
        assert exit_info.value.code == 2

    def test_cli_unknown_rule_code_is_usage_error(self, capsys):
        assert cli_main(["lint", "--select", "RS999", "src"]) == 2

    def test_cli_missing_path_is_usage_error(self, capsys):
        assert cli_main(["lint", "definitely-not-a-real-path"]) == 2
