"""Mechanism checks tied to the paper's worked examples.

* Figure 9's headline — ranked union terminates in far fewer pops than
  HLMJ on a query with one near-match window and one discriminative
  window — is checked on a constructed dataset.
* Lemma 5 — the MSEQ-distance is at least the MDMWP-distance — is
  checked on the live queue tops of one ``Φ`` operator.  The
  inequality ``sum(tops) >= r * min(tops)`` holds under any pop order,
  because ``r <= |MSEQ|``.
"""

import numpy as np
import pytest

from repro import SubsequenceDatabase
from repro.core.lower_bounds import min_disjoint_windows
from repro.core.windows import QueryWindowSet
from repro.engines.base import QuerySpec


def build_mixed_density_db(seed=0):
    """One repeated motif (dense region) plus unique wandering segments."""
    rng = np.random.default_rng(seed)
    motif = np.sin(np.linspace(0, 4 * np.pi, 32)) * 2.0
    pieces = []
    for index in range(40):
        pieces.append(motif + 0.01 * rng.standard_normal(32))
        if index % 5 == 0:
            pieces.append(rng.standard_normal(48).cumsum())
    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.2)
    db.insert(0, np.concatenate(pieces))
    db.build()
    return db, motif


class TestRankedUnionBeatsGlobalQueue:
    def test_fewer_pops_than_hlmj_on_mixed_query(self):
        db, motif = build_mixed_density_db()
        # Query: motif (maps into the dense region) followed by a
        # unique tail (sparse region) — Figure 2's pathology.
        rng = np.random.default_rng(9)
        tail = rng.standard_normal(31).cumsum()
        query = np.concatenate([motif, tail])

        hlmj = db.search(query, k=1, rho=2, method="hlmj")
        ru = db.search(query, k=1, rho=2, method="ru")
        ru_cost = db.search(query, k=1, rho=2, method="ru-cost")
        assert ru.stats.heap_pops < hlmj.stats.heap_pops
        # Cost-aware scheduling additionally slashes retrievals.
        assert ru_cost.stats.candidates < hlmj.stats.candidates
        assert ru_cost.stats.heap_pops < hlmj.stats.heap_pops
        # All exact, of course.
        for result in (ru, ru_cost):
            assert result.matches[0].distance == pytest.approx(
                hlmj.matches[0].distance, abs=1e-9
            )


class TestLemma5:
    def test_mseq_bound_dominates_mdmwp_bound(self):
        """The class frontier sum is at least r times the minimum
        frontier — the Lemma 5 inequality in p-th-power space."""
        db, motif = build_mixed_density_db(seed=3)
        rng = np.random.default_rng(5)
        query = np.concatenate([motif, rng.standard_normal(31).cumsum()])
        window_set = QueryWindowSet.from_query(
            query, omega=16, features=4, rho=2
        )
        r = min_disjoint_windows(window_set.length, 16)
        from repro.core.metrics import QueryStats
        from repro.core.results import TopKCollector
        from repro.engines.base import CandidateEvaluator
        from repro.engines.operators import Status
        from repro.engines.ranked_union import PhiOperator

        config = QuerySpec(k=1, rho=2)
        evaluator = CandidateEvaluator(
            index=db.index,
            window_set=window_set,
            spec=config,
            stats=QueryStats(),
            collector=TopKCollector(config.k, p=config.p),
        )
        phi = PhiOperator(
            class_index=0,
            window_set=window_set,
            index=db.index,
            evaluator=evaluator,
            spec=config,
        )
        for _ in range(200):
            status, _ = phi.get_next()
            if status == Status.EOR:
                break
            tops = [queue.top_pow() for queue in phi.queues]
            if any(np.isinf(top) for top in tops):
                break
            mseq_pow = sum(tops)
            # MDMWP uses r * (minimum matching pair distance), and no
            # matching pair is nearer than min(tops).
            mdmwp_pow = r * min(tops)
            # r <= |MSEQ_0| and each top >= min  =>  Lemma 5.
            assert mseq_pow + 1e-9 >= mdmwp_pow

    def test_r_never_exceeds_class_size(self):
        rng = np.random.default_rng(0)
        for length in (31, 40, 47, 64, 80):
            window_set = QueryWindowSet.from_query(
                rng.standard_normal(length), omega=16, features=4, rho=2
            )
            r = min_disjoint_windows(length, 16)
            for cls in window_set.classes:
                assert len(cls) >= r


class TestCandidateCoverage:
    """Lemma 3: the union of class candidates covers every offset."""

    def test_every_offset_reachable_from_exactly_one_class(self):
        from repro.core.windows import candidate_start

        omega = 16
        length = 48  # query length
        data_length = 200
        reachable = {}
        for class_index in range(omega):
            offsets = [
                class_index + position * omega
                for position in range((length - omega) // omega + 1)
            ]
            for data_window in range(data_length // omega):
                for offset in offsets:
                    start = candidate_start(data_window, offset, omega)
                    if 0 <= start <= data_length - length:
                        reachable.setdefault(start, set()).add(class_index)
        assert set(reachable) == set(range(data_length - length + 1))
        assert all(len(classes) == 1 for classes in reachable.values())
