"""Benchmark harness.

:mod:`repro.bench.harness` builds databases and runs query workloads
with per-engine metric aggregation; :mod:`repro.bench.reporting` formats
paper-style tables and series; :mod:`repro.bench.perf` is the kernel
perf-regression gate behind ``python -m repro bench`` (seeded
micro-benchmarks of the vectorized kernels against their scalar
oracles, speedup ratios gated against ``benchmarks/baseline.json``).
The figure/table reproductions live in ``benchmarks/`` at the
repository root, one pytest-benchmark module per figure; the end-to-end
benchmark (serve, shards, ingest, storage, tracing) is
``benchmarks/e2e``.
"""

from repro.bench.harness import (
    EngineSpec,
    Harness,
    WorkloadResult,
    modeled_wall_time_s,
)
from repro.bench.perf import (
    Regression,
    compare,
    run_kernel_suite,
    run_report,
)
from repro.bench.reporting import format_series_table, format_speedups

__all__ = [
    "Harness",
    "EngineSpec",
    "WorkloadResult",
    "modeled_wall_time_s",
    "format_series_table",
    "format_speedups",
    "Regression",
    "compare",
    "run_kernel_suite",
    "run_report",
]
