"""Experiment 6 / Figure 18: PSM(D) versus RU-COST(D).

The paper runs this comparison at ``Len(Q) = 256`` only — PSM "cannot
finish with reasonable times" beyond that, since its join signatures
need prohibitive numbers of bloom filter calls once the query spans
more than four disjoint windows.  Scaled here: ``Len(Q) = 128`` with
``omega = 32`` — the same 4-way join — on a small UCR instance (PSM's
FRM-style index stores *every sliding window*).

PSM runs under a join-state pop budget with graceful stop; queries that
exhaust it are reported as **lower bounds** (marked in the output) —
mirroring how the paper itself reports PSM's missing cells.  RU-COST(D)
always runs exactly.

Paper shapes asserted:
* RU-COST(D) decisively outperforms PSM(D) on both query sets (the
  paper reports 62.5x / 135.7x; budget-capped PSM cells only understate
  the true gap);
* PSM's bloom calls count in the tens of thousands and RU-COST makes
  none.
"""

from benchmarks.conftest import FEATURES, record
from repro.bench import EngineSpec, Harness
from repro.bench.harness import modeled_wall_time_s
from repro.control import ExecutionControl
from repro.core.metrics import QueryStats
from repro.engines.base import QuerySpec, query_window_set
from repro.engines.psm import PsmEngine
from repro.engines.ranked_union import run_in_turn

PSM_DATA_SIZE = 12_000
PSM_LEN_Q = 128  # 4 disjoint windows of omega=32, as in the paper
K_RANGE_PSM = (5, 25)
NUM_PSM_QUERIES = 2
PSM_POP_BUDGET = 400_000


def make_harness():
    return Harness(
        "UCR",
        size=PSM_DATA_SIZE,
        omega=32,
        features=FEATURES,
        seed=0,
        psm=True,
    )


def run_psm(harness, queries, k):
    """PSM(D) under the pop budget; returns (averages dict, capped?)."""
    engine = PsmEngine(
        harness.db._sliding_index,  # noqa: SLF001 — bench-level wiring
        max_heap_pops=PSM_POP_BUDGET,
        budget_action="stop",
    )
    harness.db.reset_cache()
    totals = QueryStats()
    modeled = 0.0
    capped = False
    for query in queries:
        rho = max(1, int(0.05 * len(query)))
        config = QuerySpec(k=k, rho=rho, deferred=True)
        result = run_in_turn(
            [(0, engine)],
            config,
            ExecutionControl(),
            query_window_set(query, engine.index, config),
        )
        totals.merge(result.stats)
        modeled += modeled_wall_time_s(result.stats, len(query), rho)
        capped = capped or bool(result.stats.budget_exhausted)
    count = len(queries)
    return {
        "modeled_time_s": modeled / count,
        "bloom_calls": totals.bloom_calls / count,
        "heap_pops": totals.heap_pops / count,
        "candidates": totals.candidates / count,
    }, capped


def run_sweep(harness, queries):
    rows = {}
    for k in K_RANGE_PSM:
        psm_metrics, capped = run_psm(harness, queries, k)
        ru = harness.run(
            EngineSpec("ru-cost", deferred=True), queries, k=k
        )
        rows[k] = {
            "psm": psm_metrics,
            "psm_capped": capped,
            "ru_modeled": ru.modeled_time_s,
            "ru_bloom": ru.metric("bloom_calls"),
        }
    return rows


def format_rows(label, rows):
    lines = [
        f"Fig 18 — {label}: PSM(D) vs RU-COST(D), Len(Q)={PSM_LEN_Q} "
        f"(4-way join), {PSM_DATA_SIZE:,} points",
        f"{'k':>4s} {'PSM(D) s':>14s} {'RU-COST(D) s':>14s} "
        f"{'speedup':>9s} {'PSM bloom':>12s} {'PSM pops':>12s}",
    ]
    for k, row in rows.items():
        prefix = ">=" if row["psm_capped"] else "  "
        psm_time = row["psm"]["modeled_time_s"]
        speedup = psm_time / max(row["ru_modeled"], 1e-9)
        lines.append(
            f"{k:>4d} {prefix}{psm_time:>12.2f} {row['ru_modeled']:>14.4f} "
            f"{prefix}{speedup:>6.1f}x {row['psm']['bloom_calls']:>12,.0f} "
            f"{row['psm']['heap_pops']:>12,.0f}"
        )
    if any(row["psm_capped"] for row in rows.values()):
        lines.append(
            "('>=' rows hit the state-pop budget: PSM values are lower "
            "bounds, as in the paper's did-not-finish cells)"
        )
    return "\n".join(lines)


def test_fig18_psm_comparison(benchmark):
    harness = make_harness()
    regular = harness.regular_queries(
        length=PSM_LEN_Q, count=NUM_PSM_QUERIES
    )
    dense = harness.dense_queries(length=PSM_LEN_Q, count=NUM_PSM_QUERIES)

    def run_both():
        return (
            run_sweep(harness, regular),
            run_sweep(harness, dense),
        )

    rows_regular, rows_dense = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    record(
        "fig18_psm_comparison",
        format_rows("UCR-REGULAR (panel a)", rows_regular)
        + "\n\n"
        + format_rows("UCR-DENSE (panel b)", rows_dense),
    )

    for rows in (rows_regular, rows_dense):
        for k, row in rows.items():
            # RU-COST wins decisively (capped PSM rows understate it).
            assert row["psm"]["modeled_time_s"] > 3 * row["ru_modeled"], (
                f"PSM should lose decisively at k={k}"
            )
            assert row["psm"]["bloom_calls"] > 1_000
            assert row["ru_bloom"] == 0
