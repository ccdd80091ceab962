"""Hypothesis properties for sharded execution.

Three families, per the sharding subsystem's contract:

* **Accounting** — merged ``QueryStats`` counters are exactly the sum
  of the per-shard counters (NUM_IO is never lost or double-counted at
  the merge), and the tracer's ``shard.<i>.*`` metric counters agree
  with the per-shard breakdown.
* **Order** — the merged stream emits in nondecreasing
  ``(distance, sid, start)`` order and is byte-identical to the
  unsharded oracle's stream.
* **Soundness** — when budgets or deadlines interrupt a random subset
  of shards mid-query, the merged ``PartialResult``'s certificate is
  honest: brute force finds no missing match below it.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SubsequenceDatabase
from repro.control import Deadline, QueryBudget
from repro.core.clock import FakeClock
from repro.core.reference import brute_force_topk
from repro.engines.base import PartialResult
from repro.obs import Tracer
from repro.shard import ShardedDatabase

_EPS = 1e-6

SHARD_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_pair(rng, num_shards, policy, tracer=None):
    """An unsharded oracle and a sharded twin over identical data."""
    oracle = SubsequenceDatabase(omega=8, features=4, buffer_fraction=0.2)
    sdb = ShardedDatabase(
        num_shards=num_shards,
        policy=policy,
        omega=8,
        features=4,
        buffer_fraction=0.2,
        tracer=tracer,
    )
    for sid, n in enumerate((300, 200, 260)):
        values = rng.standard_normal(n).cumsum()
        oracle.insert(sid, values)
        sdb.insert(sid, values)
    oracle.build()
    sdb.build()
    return oracle, sdb


def make_query(rng):
    length = int(rng.integers(16, 40))
    return rng.standard_normal(length).cumsum()


@SHARD_SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_shards=st.integers(1, 5),
    policy=st.sampled_from(["hash", "range"]),
    k=st.integers(1, 8),
    method=st.sampled_from(["seqscan", "hlmj", "ru", "ru-cost"]),
)
def test_num_io_sums_and_exactness(seed, num_shards, policy, k, method):
    rng = np.random.default_rng(seed)
    tracer = Tracer(enabled=True)
    oracle, sdb = build_pair(rng, num_shards, policy, tracer=tracer)
    try:
        query = make_query(rng)
        result = sdb.search(query, k=k, rho=1, method=method)
        gold = oracle.search(query, k=k, rho=1, method=method)
        assert result.matches == gold.matches

        # Every integer counter — not just page_accesses — must be the
        # exact sum over the per-shard breakdown.
        merged = result.stats.as_dict()
        for key, value in merged.items():
            if key == "wall_time_s":
                continue
            assert value == sum(
                stats.as_dict()[key]
                for stats in result.shard_stats.values()
            ), key

        # The tracer's per-shard counters mirror the breakdown and sum
        # to the merged NUM_IO counter.
        counter_total = sum(
            tracer.metrics.counter(f"shard.{shard}.page_accesses").value
            for shard in result.shard_stats
        )
        assert counter_total == result.stats.page_accesses
    finally:
        sdb.close()


@SHARD_SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_shards=st.integers(2, 5),
    policy=st.sampled_from(["hash", "range"]),
    k=st.integers(1, 10),
)
def test_stream_nondecreasing_and_identical(seed, num_shards, policy, k):
    rng = np.random.default_rng(seed)
    oracle, sdb = build_pair(rng, num_shards, policy)
    try:
        query = make_query(rng)
        stream = sdb.iter_matches(query, k=k, rho=1)
        got = list(stream)
        gold_stream = oracle.iter_matches(query, k=k, rho=1)
        want = list(gold_stream)
        gold_stream.close()
        assert got == want
        keys = [(m.distance, m.sid, m.start) for m in got]
        assert keys == sorted(keys)
        assert stream.stats is not None
        assert stream.stats.page_accesses == sum(
            stats.page_accesses for stats in stream.shard_stats.values()
        )
    finally:
        sdb.close()


def _assert_certificate_sound(partial, gold, k):
    """No brute-force match below the certified bar may be missing.

    The bar is the certificate, tightened to the k-th reported distance
    when the partial already carries k matches (deeper matches were
    legitimately outcompeted, not lost to the interruption).
    """
    bar = partial.certificate
    if len(partial.matches) >= k:
        bar = min(bar, partial.matches[-1].distance)
    reported = {(m.sid, m.start) for m in partial.matches}
    for match in gold:
        if match.distance >= bar - _EPS:
            break
        assert (match.sid, match.start) in reported, (
            f"match {(match.sid, match.start)} at distance "
            f"{match.distance} missing below certificate bar {bar}"
        )


@SHARD_SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_shards=st.integers(2, 5),
    policy=st.sampled_from(["hash", "range"]),
    k=st.integers(1, 8),
    max_pages=st.integers(0, 40),
    method=st.sampled_from(["hlmj", "ru", "ru-cost"]),
)
def test_certificate_sound_under_budget(
    seed, num_shards, policy, k, max_pages, method
):
    """A per-shard page budget interrupts a data-dependent (hence
    effectively random) subset of shards; the merged certificate must
    stay sound regardless of which shards stopped."""
    rng = np.random.default_rng(seed)
    oracle, sdb = build_pair(rng, num_shards, policy)
    try:
        query = make_query(rng)
        gold = brute_force_topk(
            oracle.store, query, k=10**6, rho=1, p=oracle.p
        )
        result = sdb.search(
            query,
            k=k,
            rho=1,
            method=method,
            budget=QueryBudget(max_page_accesses=max_pages),
        )
        if isinstance(result, PartialResult):
            assert result.reason
            assert result.stats.interrupted >= 1
            # At least one shard certificate is finite — the merged
            # value is the min over per-shard frontiers.
            assert result.certificate >= 0.0
            _assert_certificate_sound(result, gold, k)
        else:
            # Budget was loose enough everywhere: answer must be exact.
            assert [
                round(m.distance, 6) for m in result.matches
            ] == [round(m.distance, 6) for m in gold[:k]]
    finally:
        sdb.close()


@SHARD_SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_shards=st.integers(2, 4),
    policy=st.sampled_from(["hash", "range"]),
    budget_s=st.floats(0.0, 0.05),
)
def test_certificate_sound_under_deadline(seed, num_shards, policy, budget_s):
    """A fake-clock deadline shared by every shard expires mid-merge."""
    rng = np.random.default_rng(seed)
    oracle, sdb = build_pair(rng, num_shards, policy)
    try:
        query = make_query(rng)
        gold = brute_force_topk(
            oracle.store, query, k=10**6, rho=1, p=oracle.p
        )
        clock = FakeClock(auto_advance=0.001)
        result = sdb.search(
            query,
            k=5,
            rho=1,
            method="ru",
            deadline=Deadline.after(budget_s, clock=clock),
        )
        if isinstance(result, PartialResult):
            assert "deadline" in result.reason
            _assert_certificate_sound(result, gold, 5)
        else:
            assert math.isinf(
                getattr(result, "certificate", math.inf)
            )
    finally:
        sdb.close()
