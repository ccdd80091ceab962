"""Experiment harness: build once, sweep parameters, average metrics.

Mirrors the paper's methodology (Section 6.1): query sequences are
extracted from the data, each configuration is run over the whole query
set, and the three reported metrics — number of candidates, number of
page accesses, wall clock time — are averaged over the queries.

Because this reproduction simulates the disk (page accesses are counted,
not performed) and runs interpreted Python instead of the authors' C++,
raw wall-clock time measures the wrong machine.  The harness therefore
reports a **modeled wall time** built purely from operation counts, with
per-operation costs calibrated to the paper's 2011 testbed (Xeon 1.6 GHz,
SATA disk, 4 KB pages)::

    modeled = dtw_cells * 50 ns            # DP cell updates
            + lb_values * 100 ns           # LB_Keogh element comparisons
            + heap_pops * 2 us             # priority-queue maintenance
            + bloom_calls * 0.5 us
            + random_pages * 5 ms          # seek + rotate + transfer
            + sequential_pages * 0.1 ms    # elevator-sweep transfer

The counts are exact (they come from the instrumented engines); only the
unit costs are modeled.  Raw Python wall time is reported alongside for
transparency; EXPERIMENTS.md compares shapes against the modeled series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import SubsequenceDatabase
from repro.core.metrics import QueryStats
from repro.data.datasets import Dataset, load_dataset
from repro.data.queries import dense_queries, pattern_queries, regular_queries
from repro.engines.base import default_rho

#: 2011-testbed unit costs (see module docstring).
DTW_CELL_SECONDS = 50e-9
LB_VALUE_SECONDS = 100e-9
HEAP_POP_SECONDS = 2e-6
BLOOM_PROBE_SECONDS = 0.5e-6
RANDOM_IO_SECONDS = 0.005
SEQUENTIAL_IO_SECONDS = 0.0001


def modeled_wall_time_s(
    stats: QueryStats, query_length: int, rho: int
) -> float:
    """Simulated 2011-testbed wall time from instrumented counts."""
    band = min(2 * rho + 1, query_length)
    cpu = (
        stats.dtw_computations * query_length * band * DTW_CELL_SECONDS
        + stats.lb_keogh_computations * query_length * LB_VALUE_SECONDS
        + stats.heap_pops * HEAP_POP_SECONDS
        + stats.bloom_calls * BLOOM_PROBE_SECONDS
    )
    io = (
        stats.random_page_accesses * RANDOM_IO_SECONDS
        + stats.sequential_page_accesses * SEQUENTIAL_IO_SECONDS
    )
    return cpu + io


@dataclass(frozen=True)
class EngineSpec:
    """One engine configuration as it appears in the paper's legends."""

    method: str
    deferred: bool = False

    @property
    def label(self) -> str:
        base = {
            "seqscan": "SeqScan",
            "hlmj": "HLMJ",
            "hlmj-wg": "HLMJ-WG",
            "psm": "PSM",
            "ru": "RU",
            "ru-cost": "RU-COST",
        }[self.method]
        return f"{base}(D)" if self.deferred else base


#: The engine line-up of Figures 11–17 (deferred variants only, as the
#: paper switches to them after Experiment 1).
DEFERRED_LINEUP = (
    EngineSpec("seqscan"),
    EngineSpec("hlmj", deferred=True),
    EngineSpec("ru", deferred=True),
    EngineSpec("ru-cost", deferred=True),
)

#: Experiment 1's full line-up including non-deferred variants.
FULL_LINEUP = (
    EngineSpec("seqscan"),
    EngineSpec("hlmj"),
    EngineSpec("hlmj", deferred=True),
    EngineSpec("ru"),
    EngineSpec("ru", deferred=True),
    EngineSpec("ru-cost"),
    EngineSpec("ru-cost", deferred=True),
)


@dataclass
class WorkloadResult:
    """Averaged metrics for one (engine, workload) run."""

    label: str
    queries: int
    candidates: float
    page_accesses: float
    wall_time_s: float
    modeled_time_s: float
    extras: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        if hasattr(self, name):
            return float(getattr(self, name))
        return self.extras[name]


class Harness:
    """Builds one database and runs engine/workload combinations.

    Parameters mirror Table 3: ``omega`` (window size), PAA ``features``,
    ``buffer_fraction``; the warping width is 5 % of each query length
    unless overridden per run.
    """

    def __init__(
        self,
        dataset: str,
        size: int,
        omega: int = 32,
        features: int = 4,
        seed: int = 0,
        buffer_fraction: float = 0.05,
        psm: bool = False,
    ) -> None:
        self.dataset: Dataset = load_dataset(dataset, size=size, seed=seed)
        self.omega = omega
        self.features = features
        self.seed = seed
        self.db = SubsequenceDatabase(
            omega=omega,
            features=features,
            buffer_fraction=buffer_fraction,
        )
        self.db.insert(0, self.dataset.values)
        self.db.build(psm=psm)

    # ------------------------------------------------------------------
    # Query workloads
    # ------------------------------------------------------------------

    def regular_queries(
        self, length: int, count: int, seed: Optional[int] = None
    ) -> List[np.ndarray]:
        """The REGULAR workload: random extracted subsequences.

        Dense-window offsets are screened out, matching the paper's
        description of the REGULAR sets as "having no very dense
        windows".
        """
        return regular_queries(
            self.dataset.values,
            length,
            count,
            seed=self.seed + 17 if seed is None else seed,
            omega=self.omega,
            features=self.features,
        )

    def dense_queries(
        self, length: int, count: int, seed: Optional[int] = None
    ) -> List[np.ndarray]:
        """The DENSE workload (Experiment 2)."""
        return dense_queries(
            self.dataset.values,
            length,
            count,
            omega=self.omega,
            features=self.features,
            seed=self.seed + 29 if seed is None else seed,
        )

    def pattern_queries(
        self,
        family: str,
        length: int,
        count: int,
        seed: Optional[int] = None,
    ) -> List[np.ndarray]:
        """PIPE-BEND/VALVE/TEE workloads."""
        return pattern_queries(
            self.dataset,
            family,
            length,
            count,
            seed=self.seed + 41 if seed is None else seed,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        spec: EngineSpec,
        queries: Sequence[np.ndarray],
        k: int,
        rho: Optional[int] = None,
        buffer_fraction: Optional[float] = None,
    ) -> WorkloadResult:
        """Run a workload under one engine spec; metrics averaged.

        The buffer is cleared once before the workload (cold start);
        within the workload queries share the warm buffer, as in the
        paper's multi-query measurement.
        """
        if buffer_fraction is not None:
            self.db.resize_buffer(buffer_fraction)
        self.db.reset_cache()
        totals = QueryStats()
        modeled_total = 0.0
        for query in queries:
            effective_rho = (
                rho if rho is not None else default_rho(len(query))
            )
            result = self.db.search(
                query,
                k=k,
                rho=effective_rho,
                method=spec.method,
                deferred=spec.deferred,
            )
            totals.merge(result.stats)
            modeled_total += modeled_wall_time_s(
                result.stats, len(query), effective_rho
            )
        count = len(queries)
        return WorkloadResult(
            label=spec.label,
            queries=count,
            candidates=totals.candidates / count,
            page_accesses=totals.page_accesses / count,
            wall_time_s=totals.wall_time_s / count,
            modeled_time_s=modeled_total / count,
            extras={
                "heap_pops": totals.heap_pops / count,
                "node_expansions": totals.node_expansions / count,
                "bloom_calls": totals.bloom_calls / count,
                "dtw_computations": totals.dtw_computations / count,
                "pruned_by_lower_bound": totals.pruned_by_lower_bound
                / count,
                "duplicates_suppressed": totals.duplicates_suppressed
                / count,
            },
        )

    def run_lineup(
        self,
        specs: Sequence[EngineSpec],
        queries: Sequence[np.ndarray],
        k: int,
        rho: Optional[int] = None,
        buffer_fraction: Optional[float] = None,
    ) -> Dict[str, WorkloadResult]:
        """Run several engines over the same workload."""
        return {
            spec.label: self.run(
                spec, queries, k, rho=rho, buffer_fraction=buffer_fraction
            )
            for spec in specs
        }
