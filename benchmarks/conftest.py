"""Shared fixtures and helpers for the figure benchmarks.

Each ``test_figNN_*.py`` module regenerates one table or figure of the
paper's Section 6 on the scaled synthetic datasets (see DESIGN.md §4–5
for the substitution and scaling rules).  Benchmarks print the same
rows/series the paper plots and write them to
``benchmarks/results/<figure>.txt`` so EXPERIMENTS.md can quote them.

Scaling: lengths are halved relative to Table 3 (omega 64 -> 32,
Len(Q) 384 -> 192, ...) and dataset sizes are roughly 1/100 of Table 2,
preserving all ratios that matter for the shapes (windows per query,
disjoint windows per candidate, relative dataset sizes).

Set ``REPRO_BENCH_SCALE`` (default 1.0) to grow or shrink every dataset
size proportionally.
"""

from __future__ import annotations

import os
import pathlib
from typing import Set

import pytest

from repro.bench import Harness

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Scaled stand-ins for Table 2's sizes (divided by ~100, ordering kept)
#: — PIPE largest, STOCK smallest.
BENCH_SIZES = {
    "UCR": int(128_000 * SCALE),
    "PIPE": int(160_000 * SCALE),
    "WALK": int(96_000 * SCALE),
    "STOCK": int(48_000 * SCALE),
    "MUSIC": int(144_000 * SCALE),
}

#: Scaled Table 3 defaults (paper values halved where length-like).
OMEGA = 32
FEATURES = 4
LEN_Q = 192
K_DEFAULT = 25
K_RANGE = (5, 10, 25, 50)
BUFFER_DEFAULT = 0.05
NUM_QUERIES = 3


#: Figures :func:`record` has written in this session.
_RECORDED: Set[str] = set()


def record(figure: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/.

    A figure's first block in a session replaces its file and later
    blocks append (``fig14_buffer_size`` writes two), so a regeneration
    leaves one copy of each block.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "a" if figure in _RECORDED else "w"
    _RECORDED.add(figure)
    with open(RESULTS_DIR / f"{figure}.txt", mode) as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def ucr_harness() -> Harness:
    return Harness(
        "UCR",
        size=BENCH_SIZES["UCR"],
        omega=OMEGA,
        features=FEATURES,
        seed=0,
        buffer_fraction=BUFFER_DEFAULT,
    )


@pytest.fixture(scope="session")
def pipe_harness() -> Harness:
    return Harness(
        "PIPE",
        size=BENCH_SIZES["PIPE"],
        omega=OMEGA,
        features=FEATURES,
        seed=0,
        buffer_fraction=BUFFER_DEFAULT,
    )


@pytest.fixture(scope="session")
def walk_harness() -> Harness:
    return Harness(
        "WALK",
        size=BENCH_SIZES["WALK"],
        omega=OMEGA,
        features=FEATURES,
        seed=0,
        buffer_fraction=BUFFER_DEFAULT,
    )


@pytest.fixture(scope="session")
def stock_harness() -> Harness:
    return Harness(
        "STOCK",
        size=BENCH_SIZES["STOCK"],
        omega=OMEGA,
        features=FEATURES,
        seed=0,
        buffer_fraction=BUFFER_DEFAULT,
    )


@pytest.fixture(scope="session")
def music_harness() -> Harness:
    return Harness(
        "MUSIC",
        size=BENCH_SIZES["MUSIC"],
        omega=OMEGA,
        features=FEATURES,
        seed=0,
        buffer_fraction=BUFFER_DEFAULT,
    )
