"""Table 3: experimental parameters and their values.

Echoes the scaled parameter grid the benchmarks run under and verifies
that the library defaults line up with the paper's setup: 4 KB pages,
LRU replacement, default buffer 5 %, warping width 5 % of Len(Q),
alpha=1 / beta=0 / h=blocking-factor for RU-COST, 0.5 % deferred
budget.
"""

from benchmarks.conftest import (
    BUFFER_DEFAULT,
    K_DEFAULT,
    K_RANGE,
    LEN_Q,
    OMEGA,
    record,
)
from repro.api import SubsequenceDatabase
from repro.engines.base import DEFERRED_FRACTION
from repro.engines import cost_density
from repro.storage.page import PAGE_SIZE_DEFAULT


def build_table():
    return [
        ("k", K_DEFAULT, f"{K_RANGE[0]} ~ {K_RANGE[-1]}"),
        ("Buffer size", f"{BUFFER_DEFAULT:.0%}", "1% ~ 10%"),
        ("Len(Q)", LEN_Q, "128, 192, 256  (paper: 256, 384, 512)"),
        ("omega", OMEGA, "16, 32, 64  (paper: 32, 64, 128)"),
        ("Page size", PAGE_SIZE_DEFAULT, "fixed (as in the paper)"),
        ("rho", "5% of Len(Q)", "fixed (as in the paper)"),
    ]


def test_table3_parameters(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    header = f"{'Parameter':>12s} {'Default':>14s}   Range"
    lines = [
        "Table 3 — experimental parameters (scaled values)",
        header,
        "-" * 60,
    ]
    for name, default, value_range in table:
        lines.append(f"{name:>12s} {str(default):>14s}   {value_range}")
    record("table3_parameters", "\n".join(lines))

    # Library defaults match the paper's setup.
    assert PAGE_SIZE_DEFAULT == 4096
    db = SubsequenceDatabase()
    assert db.omega == 64  # paper's unscaled default window size
    assert db.buffer_fraction == 0.05
    assert DEFERRED_FRACTION == 0.005  # 0.5% deferred budget
    # RU-COST's weights; its lookahead h is the index blocking factor.
    assert cost_density.ALPHA == 1.0 and cost_density.BETA == 0.0
