"""DualMatch index construction.

The indexing side of the paper's framework (Section 3.1, following
DualMatch [17]): every data sequence is cut into **disjoint** windows of
size ``omega``; each window is PAA-transformed into an ``f``-dimensional
point and stored as a leaf entry ``(P(s_m), sid, m)`` of the R*-tree.

:class:`DualMatchIndex` bundles the tree with the windowing parameters and
the sequence store, which is everything an engine needs to run a query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.paa import paa_batch, segment_length
from repro.exceptions import ConfigurationError
from repro.index.bloom import BloomFilter
from repro.index.rstar import LeafRecord, RStarTree
from repro.storage.sequences import SequenceStore


#: Windows PAA-transformed per :func:`~repro.core.paa.paa_batch` call;
#: bounds the scratch copy of overlapping windows to a few megabytes.
_WINDOW_BLOCK = 4096


def iter_window_entries(
    sid: int,
    values: np.ndarray,
    omega: int,
    features: int,
    stride: int,
    first_window: int = 0,
) -> Iterator[Tuple[np.ndarray, LeafRecord]]:
    """``(PAA point, leaf record)`` of a sequence's grid windows, in order.

    Window ``w`` covers ``values[w * stride : w * stride + omega]``; the
    complete windows from ``first_window`` on are yielded (none when the
    sequence is shorter than ``omega``).  A record is labelled by its
    grid position ``w`` — its start offset under PSM's stride 1.  Every
    index build and every ingest op enumerates its windows here, so the
    windows are transformed a block at a time by
    :func:`~repro.core.paa.paa_batch`, whose rows are bit-for-bit equal
    to :func:`~repro.core.paa.paa`.
    """
    if values.size < omega:
        return
    windows = sliding_window_view(values, omega)[::stride]
    for block_start in range(first_window, len(windows), _WINDOW_BLOCK):
        points = paa_batch(
            windows[block_start : block_start + _WINDOW_BLOCK], features
        )
        for window, point in enumerate(points, block_start):
            yield point, LeafRecord(sid=sid, window_index=window)


@dataclass
class DualMatchIndex:
    """An R*-tree over PAA points of disjoint data windows.

    Attributes
    ----------
    tree:
        The R*-tree; leaf records are ``(sid, window_index)``.
    store:
        The paged sequence store the leaf records point back into.
    omega:
        Disjoint/sliding window size.
    features:
        PAA dimensionality ``f``.
    p:
        Norm order used for all distances.
    """

    tree: RStarTree
    store: SequenceStore
    omega: int
    features: int
    p: float = 2.0
    #: GeneralMatch data-window stride ``J`` (``omega`` = DualMatch,
    #: 1 = FRM's sliding index, which PSM joins over).
    data_stride: Optional[int] = None
    #: Join-signature filter over every indexed ``(sid, window_index)``
    #: key; only PSM's index carries one
    #: (:func:`~repro.engines.psm.build_sliding_index`).
    bloom: Optional[BloomFilter] = None

    def __post_init__(self) -> None:
        if self.data_stride is None:
            self.data_stride = self.omega
        if self.data_stride < 1 or self.omega % self.data_stride != 0:
            raise ConfigurationError(
                f"data_stride {self.data_stride} must divide omega "
                f"{self.omega}"
            )

    @property
    def seg_len(self) -> int:
        """Raw values per PAA dimension (``omega / f``)."""
        return segment_length(self.omega, self.features)

    @property
    def num_indexed_windows(self) -> int:
        return len(self.tree)

    def window_values(self, record: LeafRecord) -> np.ndarray:
        """Raw values of the disjoint window a leaf record points at.

        Offline read (no I/O) — used by tests and diagnostics only; query
        engines never touch raw windows, they retrieve full candidates.
        """
        return self.store.peek_subsequence(
            record.sid, record.window_index * self.data_stride, self.omega
        )

    def describe(self) -> Dict[str, float]:
        """Index shape summary for reports (Table 2-style)."""
        return {
            "sequences": self.store.num_sequences,
            "total_values": self.store.total_values,
            "data_pages": self.store.total_data_pages,
            "indexed_windows": self.num_indexed_windows,
            "index_nodes": self.tree.node_count(),
            "tree_height": self.tree.height,
            "fanout": self.tree.max_entries,
        }


def build_index(
    store: SequenceStore,
    omega: int,
    features: int,
    p: float = 2.0,
    max_entries: Optional[int] = None,
    bulk: bool = True,
    data_stride: Optional[int] = None,
) -> DualMatchIndex:
    """Index every complete grid window of every stored sequence.

    ``data_stride`` (GeneralMatch's ``J``, default ``omega``) places
    data windows at every multiple of ``J``; it must divide ``omega``.
    ``J == omega`` is the paper's DualMatch configuration; smaller
    strides trade a larger index for tighter per-class bounds.

    Construction runs offline: sequence values are read without I/O
    accounting (the paper excludes index build from query metrics), but
    node page allocations and writes are still counted by the pager.

    ``bulk=True`` (default) packs the tree with Sort-Tile-Recursive;
    ``bulk=False`` exercises the one-at-a-time R* insertion path.
    """
    if omega < 1:
        raise ConfigurationError(f"omega must be >= 1, got {omega}")
    stride = omega if data_stride is None else data_stride
    if stride < 1 or omega % stride != 0:
        raise ConfigurationError(
            f"data_stride {stride} must divide omega {omega}"
        )
    segment_length(omega, features)  # validates the pairing
    # The tree shares the store's pager and buffer so that query-time
    # node reads and data reads compete for the same buffer pool, as on
    # the paper's single-disk testbed.
    tree = RStarTree(
        pager=store.pager,
        buffer=store.buffer,
        dimensions=features,
        max_entries=max_entries,
    )
    points = []
    records = []
    for sid, values in store.iter_sequences():
        for point, record in iter_window_entries(
            sid, values, omega, features, stride
        ):
            points.append(point)
            records.append(record)
    if bulk and points:
        tree.bulk_load(points, records)
    else:
        for point, record in zip(points, records):
            tree.insert(point, record)
    return DualMatchIndex(
        tree=tree,
        store=store,
        omega=omega,
        features=features,
        p=p,
        data_stride=stride,
    )
