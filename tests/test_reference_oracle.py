"""Self-checks on the brute-force oracles the suite trusts."""

import numpy as np
import pytest

from repro.core.distance import dtw_pow
from repro.core.reference import brute_force_range, brute_force_topk
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore
from tests.conftest import make_walk


@pytest.fixture()
def store():
    pager = Pager(page_size=512)
    buffer = BufferPool(pager, 8)
    store = SequenceStore(pager, buffer)
    store.add_sequence(0, make_walk(200, seed=1))
    store.add_sequence(1, make_walk(150, seed=2))
    return store


class TestBruteForceTopK:
    def test_considers_every_offset(self, store):
        query = make_walk(40, seed=3)
        huge_k = 10_000
        matches = brute_force_topk(store, query, huge_k, rho=2)
        expected = (200 - 40 + 1) + (150 - 40 + 1)
        assert len(matches) == expected

    def test_distances_sorted_and_consistent(self, store):
        query = make_walk(40, seed=3)
        matches = brute_force_topk(store, query, 10, rho=2)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)
        for match in matches[:3]:
            values = store.peek_subsequence(match.sid, match.start, 40)
            assert match.distance**2 == pytest.approx(
                dtw_pow(values, query, rho=2), rel=1e-9
            )

    def test_performs_no_counted_io(self, store):
        store.pager.stats.reset()
        brute_force_topk(store, make_walk(40, seed=3), 5, rho=2)
        assert store.pager.stats.physical_reads == 0


class TestBruteForceRange:
    def test_range_is_topk_prefix(self, store):
        query = make_walk(40, seed=3)
        topk = brute_force_topk(store, query, 10_000, rho=2)
        # Nudge past the k-th distance: rooting then re-squaring the
        # boundary value can lose an ulp and exclude the tie.
        epsilon = topk[7].distance * (1 + 1e-12)
        in_range = brute_force_range(store, query, epsilon, rho=2)
        # Everything at distance <= epsilon, i.e. at least 8 matches and
        # exactly those from the sorted top-k prefix (ties included).
        expected = [m.key() for m in topk if m.distance <= epsilon]
        assert sorted(m.key() for m in in_range) == sorted(expected)

    def test_empty_for_negative_like_epsilon(self, store):
        far_query = make_walk(40, seed=9) + 1e6
        assert brute_force_range(store, far_query, 0.5, rho=2) == []
