"""The node step every traversal shares (repro.engines.bounds)."""

import copy

import numpy as np
import pytest

from repro.core.lower_bounds import (
    batch_lower_bounds,
    batch_lower_bounds_znorm,
    lb_paa_pow_batch,
    lb_paa_znorm_pow_batch,
)
from repro.core.metrics import QueryStats
from repro.core.normalize import NormalizationContext
from repro.core.reference import brute_force_topk
from repro.core.windows import QueryWindowSet
from repro.engines.bounds import NodeGrid
from repro.exceptions import CorruptPageError, QueryTooShortError
from repro.storage.page import PageKind
from tests.conftest import query_from


def tree_pages(db):
    """Page ids of every node reachable from the root."""
    pages, stack = [], [db.index.tree.root_page]
    while stack:
        pages.append(stack.pop())
        node = db.pager.peek(pages[-1])
        if not node.is_leaf:
            stack.extend(node.refs)
    return pages


def direct_bounds(index, window, node, norm):
    """One window's ``(near, far)`` for ``node`` from the 1-D kernels."""
    lower, upper = window.paa_lower, window.paa_upper
    lows = node.lows
    if node.is_leaf and norm is None:
        return lb_paa_pow_batch(lower, upper, lows, 4, 2.0), None
    if node.is_leaf:
        # Scalar lookups: the oracle for the grid's per-window stats.
        stats = [
            norm.stats(
                record.sid,
                record.window_index * index.data_stride
                - window.sliding_offset,
            )
            for record in node.refs
        ]
        mus, sigmas = (np.array(column) for column in zip(*stats))
        return (
            lb_paa_znorm_pow_batch(lower, upper, lows, mus, sigmas, 4, 2.0),
            None,
        )
    highs = node.highs
    if norm is None:
        return batch_lower_bounds(
            lower, upper, lows, highs, 4, 2.0, include_far=True
        )
    return batch_lower_bounds_znorm(
        lower, upper, lows, highs, norm.mu_range, norm.sigma_range,
        4, 2.0, include_far=True,
    )


@pytest.mark.parametrize("normalized", [False, True])
def test_expand_equals_the_direct_kernel_calls(golden_db, normalized):
    """Every node of the tree against every window, bit for bit; each
    expansion counted, each node scored once."""
    index = golden_db.index
    window_set = QueryWindowSet.from_query(
        query_from(golden_db, 700, 48),
        omega=16,
        features=4,
        rho=2,
        normalize=normalized,
    )
    norm = NormalizationContext(index.store, 48) if normalized else None
    stats = QueryStats()
    grid = NodeGrid(
        window_set.windows, index, 2.0, stats, norm=norm, include_far=True
    )
    probes = [grid.probe(window) for window in window_set.windows]
    pages = tree_pages(golden_db)
    assert len(pages) == index.tree.node_count()
    for page_id in pages:
        for probe in probes:
            node, near, far = probe.expand(page_id)
            assert node is golden_db.pager.peek(page_id)
            want, want_far = direct_bounds(index, probe.window, node, norm)
            assert near.tobytes() == want.tobytes()
            assert (far is None) == (want_far is None)
            if far is not None:
                assert far.tobytes() == want_far.tobytes()
    assert stats.node_expansions == len(pages) * len(probes)
    assert stats.node_scorings == len(pages)


def test_far_bound_only_on_request(golden_db):
    index = golden_db.index
    window_set = QueryWindowSet.from_query(
        query_from(golden_db, 700, 48), omega=16, features=4, rho=2
    )
    grid = NodeGrid(window_set.windows, index, 2.0, QueryStats())
    node, near, far = grid.probe(window_set.windows[0]).expand(
        index.tree.root_page
    )
    assert not node.is_leaf and len(near) == len(node.refs)
    assert far is None


def record_reads(monkeypatch, tree, wrap=lambda node: node):
    """Page ids of every successful ``read_node`` on ``tree``."""
    read = tree.read_node
    pages = []

    def recording(page_id, stats=None):
        node = wrap(read(page_id, stats))
        pages.append(page_id)
        return node

    monkeypatch.setattr(tree, "read_node", recording)
    return pages


def test_one_scoring_per_distinct_node(golden_db, monkeypatch):
    """Every expansion reads; only a node's first expansion scores."""
    pages = record_reads(monkeypatch, golden_db.index.tree)
    query = query_from(golden_db, 700, 48)
    result = golden_db.search(query, k=3, method="hlmj", normalize=True)
    assert result.stats.node_expansions == len(pages)
    assert result.stats.node_scorings == len(set(pages))
    assert len(set(pages)) < len(pages)


def test_a_replaced_node_is_scored_afresh(golden_db, monkeypatch):
    """The memo is checked against node identity, not the page id alone."""
    record_reads(monkeypatch, golden_db.index.tree, wrap=copy.copy)
    window_set = QueryWindowSet.from_query(
        query_from(golden_db, 700, 48), omega=16, features=4, rho=2
    )
    stats = QueryStats()
    grid = NodeGrid(window_set.windows, golden_db.index, 2.0, stats)
    root = golden_db.index.tree.root_page
    first = grid.probe(window_set.windows[0]).expand(root)
    again = grid.probe(window_set.windows[0]).expand(root)
    assert first[0] is not again[0]
    assert first[1].tobytes() == again[1].tobytes()
    assert stats.node_scorings == stats.node_expansions == 2


class TestUnreadablePage:
    @pytest.fixture()
    def damaged(self):
        from repro.storage.faults import CORRUPT, FaultInjector, FaultSpec
        from tests.test_faults import make_faulty_db

        injector = FaultInjector(seed=5)
        db = make_faulty_db(injector=injector)
        victim = next(
            page_id
            for page_id in tree_pages(db)
            if db.pager.kind_of(page_id) == PageKind.INDEX_LEAF
        )
        injector.add(FaultSpec(fault=CORRUPT, page_ids=[victim]))
        db.reset_cache()
        window_set = QueryWindowSet.from_query(
            query_from(db, 400, 64), omega=16, features=4, rho=2
        )
        return db, window_set, victim

    def test_raises_without_a_handler(self, damaged):
        db, window_set, victim = damaged
        stats = QueryStats()
        grid = NodeGrid(window_set.windows, db.index, 2.0, stats)
        with pytest.raises(CorruptPageError):
            grid.probe(window_set.windows[0]).expand(victim)
        assert stats.node_expansions == 0
        assert stats.node_scorings == 0

    def test_handler_drops_the_subtree(self, damaged):
        db, window_set, victim = damaged
        stats = QueryStats()
        seen = []
        grid = NodeGrid(
            window_set.windows, db.index, 2.0, stats,
            on_fault=lambda error, page_id: seen.append((error, page_id)),
        )
        probe = grid.probe(window_set.windows[0])
        assert probe.expand(victim) is None
        assert stats.node_expansions == 0
        [(error, page_id)] = seen
        assert isinstance(error, CorruptPageError) and page_id == victim
        # A readable page still expands on the same probe.
        assert probe.expand(db.index.tree.root_page) is not None
        assert stats.node_expansions == 1


class TestFaultThenRead:
    """A node whose first read faults and whose later read succeeds."""

    @pytest.fixture()
    def flaky(self):
        from repro.storage.buffer import RetryPolicy
        from repro.storage.faults import FaultInjector, FaultSpec, TRANSIENT
        from tests.test_faults import make_faulty_db

        injector = FaultInjector(seed=5)
        db = make_faulty_db(
            injector=injector, retry_policy=RetryPolicy(max_attempts=1)
        )
        # The leaf holding data window 25 of sequence 0, which every
        # query below starts on (offset 400 = 25 * omega).
        victim = next(
            page_id
            for page_id in tree_pages(db)
            if db.pager.kind_of(page_id) == PageKind.INDEX_LEAF
            and (0, 25) in db.pager.peek(page_id).refs
        )
        injector.add(
            FaultSpec(fault=TRANSIENT, page_ids=[victim], max_per_page=1)
        )
        db.reset_cache()
        return db, victim

    def test_nothing_is_memoised_on_the_fault(self, flaky):
        db, victim = flaky
        window_set = QueryWindowSet.from_query(
            query_from(db, 400, 64), omega=16, features=4, rho=2
        )
        stats = QueryStats()
        seen = []
        grid = NodeGrid(
            window_set.windows, db.index, 2.0, stats,
            on_fault=lambda error, page_id: seen.append(page_id),
        )
        first, second = (grid.probe(w) for w in window_set.windows[:2])
        assert first.expand(victim) is None
        assert seen == [victim]
        assert stats.node_expansions == stats.node_scorings == 0
        # The later read scores the node normally, for every window.
        for probe in (second, first):
            node, near, far = probe.expand(victim)
            want, _ = direct_bounds(db.index, probe.window, node, None)
            assert near.tobytes() == want.tobytes() and far is None
        assert stats.node_expansions == 2
        assert stats.node_scorings == 1

    def test_a_degraded_query_scores_the_node_on_its_next_read(
        self, flaky, monkeypatch
    ):
        db, victim = flaky
        pages = record_reads(monkeypatch, db.index.tree)
        query = query_from(db, 400, 64)
        result = db.search(query, k=5, method="hlmj", on_fault="degrade")
        assert result.degraded and result.stats.faults_skipped == 1
        assert victim in pages  # read again after the fault
        assert result.stats.node_expansions == len(pages)
        assert result.stats.node_scorings == len(set(pages))


class TestPsmMinimumQueryLength:
    """With ``J = 1`` GeneralMatch's bound is ``Len(Q) >= omega``: the
    window set holds the ``Len(Q) // omega`` join windows only."""

    @pytest.mark.parametrize("length", [8, 11, 14])
    def test_single_join_window_query_is_exact(self, psm_db, length):
        query = query_from(psm_db, 333, length)
        result = psm_db.search(query, k=4, rho=1, method="psm")
        want = brute_force_topk(psm_db.store, query, 4, 1)
        assert [m.key() for m in result.matches] == [m.key() for m in want]
        assert [m.distance for m in result.matches] == pytest.approx(
            [m.distance for m in want]
        )

    def test_below_omega_is_too_short(self, psm_db):
        with pytest.raises(QueryTooShortError):
            psm_db.search(query_from(psm_db, 333, 7), k=1, method="psm")

    def test_other_engines_keep_the_dualmatch_minimum(self, psm_db):
        with pytest.raises(QueryTooShortError):
            psm_db.search(query_from(psm_db, 333, 14), k=1, method="ru")
