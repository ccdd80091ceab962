"""The node step every traversal shares (repro.engines.bounds.WindowProbe)."""

import numpy as np
import pytest

from repro.core import normalize
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
from repro.engines.bounds import WindowProbe
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
            stack.extend(entry.child_page for entry in node.entries)
    return pages


@pytest.mark.parametrize("normalized", [False, True])
def test_expand_equals_the_direct_kernel_calls(golden_db, normalized):
    """Every node of the tree, bit for bit, one expansion counted each."""
    index = golden_db.index
    window_set = QueryWindowSet.from_query(
        query_from(golden_db, 700, 48),
        omega=16,
        features=4,
        rho=2,
        normalize=normalized,
    )
    window = window_set.windows[5]
    lower, upper = window.paa_lower, window.paa_upper
    norm = None
    if normalized:
        norm = NormalizationContext(index.store, 48).for_window(
            window.sliding_offset, index.data_stride
        )
    stats = QueryStats()
    probe = WindowProbe(
        window, index.tree, index.seg_len, 2.0, stats, norm=norm,
        include_far=True,
    )
    pages = tree_pages(golden_db)
    assert len(pages) == index.tree.node_count()
    for expansions, page_id in enumerate(pages, 1):
        node, near, far = probe.expand(page_id)
        assert node is golden_db.pager.peek(page_id)
        assert stats.node_expansions == expansions
        lows = np.stack([entry.low for entry in node.entries])
        highs = np.stack([entry.high for entry in node.entries])
        if node.is_leaf and norm is None:
            want, want_far = lb_paa_pow_batch(lower, upper, lows, 4, 2.0), None
        elif node.is_leaf:
            mus, sigmas = norm.leaf_stats(e.record for e in node.entries)
            want = lb_paa_znorm_pow_batch(
                lower, upper, lows, mus, sigmas, 4, 2.0
            )
            want_far = None
        elif norm is None:
            want, want_far = batch_lower_bounds(
                lower, upper, lows, highs, 4, 2.0, include_far=True
            )
        else:
            want, want_far = batch_lower_bounds_znorm(
                lower, upper, lows, highs, norm.mu_range, norm.sigma_range,
                4, 2.0, include_far=True,
            )
        assert near.tobytes() == want.tobytes()
        assert (far is None) == (want_far is None)
        if far is not None:
            assert far.tobytes() == want_far.tobytes()


def test_far_bound_only_on_request(golden_db):
    index = golden_db.index
    window = QueryWindowSet.from_query(
        query_from(golden_db, 700, 48), omega=16, features=4, rho=2
    ).windows[0]
    probe = WindowProbe(window, index.tree, index.seg_len, 2.0, QueryStats())
    node, near, far = probe.expand(index.tree.root_page)
    assert not node.is_leaf and len(near) == len(node.entries)
    assert far is None


def test_one_normalizer_per_query_window(golden_db, monkeypatch):
    """Built with the probes, never again during the traversal."""
    built = []
    original = normalize.WindowNormalizer.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(normalize.WindowNormalizer, "__init__", counting)
    query = query_from(golden_db, 700, 48)
    result = golden_db.search(query, k=3, method="hlmj", normalize=True)
    windows = QueryWindowSet.from_query(
        query, omega=16, features=4, rho=2
    ).windows
    assert len(built) == len(windows)
    assert result.stats.node_expansions > len(windows)


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
        window = QueryWindowSet.from_query(
            query_from(db, 400, 64), omega=16, features=4, rho=2
        ).windows[0]
        return db, window, victim

    def test_raises_without_a_handler(self, damaged):
        db, window, victim = damaged
        stats = QueryStats()
        probe = WindowProbe(window, db.index.tree, 4, 2.0, stats)
        with pytest.raises(CorruptPageError):
            probe.expand(victim)
        assert stats.node_expansions == 0

    def test_handler_drops_the_subtree(self, damaged):
        db, window, victim = damaged
        stats = QueryStats()
        seen = []
        probe = WindowProbe(
            window, db.index.tree, 4, 2.0, stats,
            on_fault=lambda error, page_id: seen.append((error, page_id)),
        )
        assert probe.expand(victim) is None
        assert stats.node_expansions == 0
        [(error, page_id)] = seen
        assert isinstance(error, CorruptPageError) and page_id == victim
        # A readable page still expands on the same probe.
        assert probe.expand(db.index.tree.root_page) is not None
        assert stats.node_expansions == 1


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
