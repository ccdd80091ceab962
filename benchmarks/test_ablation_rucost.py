"""Ablation bench for RU-COST's scheduling (Section 4).

The paper fixes alpha=1, beta=0 and h=blocking factor, which RU-COST
runs on as constants (:mod:`repro.engines.cost_density`).  This bench
sweeps the queue-selection family on the UCR-DENSE workload, where
scheduling matters most: RU-COST's cost-aware density scheduling
against RU's max-delta selection inside the same ranked union, and
against HLMJ's one global queue, with and without the window-group
bound.  EXPERIMENTS.md (deviation 3) records the knob sweeps this
bench used to run and what they showed.
"""

from benchmarks.conftest import K_DEFAULT, LEN_Q, NUM_QUERIES, record
from repro.bench import EngineSpec, format_series_table


def strategy_specs():
    return (
        EngineSpec("ru-cost", deferred=True),
        EngineSpec("ru", deferred=True),
        EngineSpec("hlmj", deferred=True),
        EngineSpec("hlmj-wg", deferred=True),
    )


def test_ablation_strategy_family(benchmark, ucr_harness):
    queries = ucr_harness.dense_queries(length=LEN_Q, count=NUM_QUERIES)
    rows = benchmark.pedantic(
        lambda: {
            K_DEFAULT: ucr_harness.run_lineup(
                strategy_specs(), queries, k=K_DEFAULT
            )
        },
        rounds=1,
        iterations=1,
    )
    record(
        "ablation_rucost",
        format_series_table(
            "Ablation — scheduling family (UCR-DENSE): candidates",
            "k",
            rows,
            "candidates",
        ),
    )
    results = rows[K_DEFAULT]
    # The ranked-union engines must crush HLMJ's global-queue order on
    # the dense workload (the paper's central claim).
    assert results["RU-COST(D)"].candidates < (
        results["HLMJ(D)"].candidates / 3
    )
