"""Paged heap file of time-series values.

A :class:`SequenceStore` lays every data sequence out across fixed-size
data pages (each sequence starts on a fresh page).  Subsequence retrieval
faults the covering pages through the buffer pool, so the physical-read
counters reflect exactly the page accesses the paper measures.

Offsets are **0-based** throughout the library; the paper's 1-based
``S[i:j]`` notation is translated at the documentation level only.

:func:`map_values` is what ``backend="mmap"`` selects: the same values,
served from a read-only memory map instead of the heap.
"""

from __future__ import annotations

import mmap
import pathlib
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import QueryStats
from repro.exceptions import (
    ConfigurationError,
    PageError,
    SequenceNotFoundError,
    StorageError,
)
from repro.storage.buffer import BufferPool
from repro.storage.page import PageKind, values_per_page
from repro.storage.pager import Pager


@dataclass(frozen=True)
class SequenceMeta:
    """Placement of one sequence in the page file.

    ``pages`` lists the owning page ids in *logical* order: page ``i``
    holds values ``[i * vpp, (i + 1) * vpp)``.  A freshly added
    sequence occupies contiguous pages, but online ``extend_sequence``
    appends pages at the end of an append-only file, so extended
    sequences are generally non-contiguous.
    """

    sid: int
    length: int
    pages: Tuple[int, ...]

    @property
    def first_page(self) -> int:
        """Page id of the first data page (compat accessor)."""
        return self.pages[0] if self.pages else -1

    @property
    def num_pages(self) -> int:
        """Number of data pages the sequence occupies."""
        return len(self.pages)


class SequenceStore:
    """Store and retrieve time-series sequences with page accounting.

    Parameters
    ----------
    pager:
        Physical page store shared with the index.
    buffer:
        Buffer pool that all counted reads go through.
    """

    def __init__(self, pager: Pager, buffer: BufferPool) -> None:
        self._pager = pager
        self._buffer = buffer
        self._values_per_page = values_per_page(pager.page_size)
        self._meta: Dict[int, SequenceMeta] = {}
        self._arrays: Dict[int, np.ndarray] = {}

    @property
    def buffer(self) -> BufferPool:
        """The buffer pool in front of this store."""
        return self._buffer

    @property
    def pager(self) -> Pager:
        """The physical page store."""
        return self._pager

    @property
    def values_per_page(self) -> int:
        """Number of float64 values per data page."""
        return self._values_per_page

    @property
    def num_sequences(self) -> int:
        return len(self._meta)

    @property
    def total_values(self) -> int:
        """Total number of stored values across all sequences."""
        return sum(meta.length for meta in self._meta.values())

    @property
    def total_data_pages(self) -> int:
        """Total number of data pages allocated for sequences."""
        return sum(meta.num_pages for meta in self._meta.values())

    def sequence_ids(self) -> List[int]:
        """All stored sequence ids, in insertion order."""
        return list(self._meta)

    def has_sequence(self, sid: int) -> bool:
        """Whether sequence ``sid`` is currently stored."""
        return sid in self._meta

    @staticmethod
    def _validated(sid: int, values: Sequence[float]) -> np.ndarray:
        array = np.ascontiguousarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise PageError(
                f"sequence {sid} must be one-dimensional, got shape "
                f"{array.shape}"
            )
        if array.size == 0:
            raise PageError(f"sequence {sid} is empty")
        if not np.all(np.isfinite(array)):
            raise PageError(
                f"sequence {sid} contains NaN or infinite values; the "
                f"distance bounds assume finite reals"
            )
        return array

    def add_sequence(
        self,
        sid: int,
        values: Sequence[float],
        session: Optional[object] = None,
    ) -> SequenceMeta:
        """Append a sequence to the store, packing it into data pages.

        ``session`` marks the active :class:`~repro.ingest.IngestSession`
        when called on a built (sealed) database — post-build mutation
        must be WAL-logged so it survives a crash (lint rule RS009).
        Pre-build loading passes ``None``.
        """
        if sid in self._meta:
            raise PageError(f"sequence id {sid} already stored")
        array = self._validated(sid, values)
        array.setflags(write=False)
        pages: List[int] = []
        for offset in range(0, array.size, self._values_per_page):
            chunk = array[offset : offset + self._values_per_page]
            pages.append(self._pager.allocate(PageKind.DATA, chunk))
        meta = SequenceMeta(sid=sid, length=array.size, pages=tuple(pages))
        self._meta[sid] = meta
        self._arrays[sid] = array
        return meta

    def extend_sequence(
        self,
        sid: int,
        values: Sequence[float],
        session: Optional[object] = None,
    ) -> SequenceMeta:
        """Append values to an existing sequence, reusing its last page.

        The partially filled final page (if any) is rewritten in place
        with its page slot topped up; wholly new values go into freshly
        allocated pages at the end of the file.  Every touched page is
        invalidated in the buffer pool so no reader can observe the
        stale payload (mutation invalidates, it does not wait for LRU
        pressure).  ``session`` marks the active ingest session (RS009).
        """
        meta = self._require(sid)
        extra = self._validated(sid, values)
        combined = np.concatenate([self._arrays[sid], extra])
        combined.setflags(write=False)
        vpp = self._values_per_page
        pages = list(meta.pages)
        filled = meta.length % vpp
        if filled:
            # Rewrite the partial last page with its slot now fuller.
            start = (len(pages) - 1) * vpp
            self._pager.write(pages[-1], combined[start : start + vpp])
            self._buffer.invalidate(pages[-1])
        for offset in range(len(pages) * vpp, combined.size, vpp):
            pages.append(
                self._pager.allocate(
                    PageKind.DATA, combined[offset : offset + vpp]
                )
            )
        new_meta = SequenceMeta(
            sid=sid, length=combined.size, pages=tuple(pages)
        )
        self._meta[sid] = new_meta
        self._arrays[sid] = combined
        return new_meta

    def remove_sequence(
        self, sid: int, session: Optional[object] = None
    ) -> SequenceMeta:
        """Drop a sequence, freeing its pages and evicting them from the
        buffer pool.  Returns the removed placement metadata.

        ``session`` marks the active ingest session (RS009).
        """
        meta = self._require(sid)
        for page_id in meta.pages:
            self._buffer.invalidate(page_id)
            self._pager.free(page_id)
        del self._meta[sid]
        del self._arrays[sid]
        return meta

    def _require(self, sid: int) -> SequenceMeta:
        try:
            return self._meta[sid]
        except KeyError:
            raise SequenceNotFoundError(
                f"sequence id {sid} is not in the store"
            ) from None

    def length(self, sid: int) -> int:
        """Length of sequence ``sid``."""
        return self._require(sid).length

    def meta(self, sid: int) -> SequenceMeta:
        """Placement metadata of sequence ``sid``."""
        return self._require(sid)

    def pages_for_range(self, sid: int, start: int, length: int) -> List[int]:
        """Page ids covering ``[start, start+length)`` of sequence ``sid``.

        Pure arithmetic — performs no I/O.  RU-COST's ``NUM_IO`` estimator
        checks these pages against the query's image of the buffer pool.
        """
        meta = self._require(sid)
        self._check_range(meta, start, length)
        first = start // self._values_per_page
        last = (start + length - 1) // self._values_per_page
        return list(meta.pages[first : last + 1])

    @staticmethod
    def _check_range(meta: SequenceMeta, start: int, length: int) -> None:
        if length <= 0:
            raise PageError(f"subsequence length must be > 0, got {length}")
        if start < 0 or start + length > meta.length:
            raise PageError(
                f"range [{start}, {start + length}) out of bounds for "
                f"sequence {meta.sid} of length {meta.length}"
            )

    def get_subsequence(
        self,
        sid: int,
        start: int,
        length: int,
        stats: Optional[QueryStats] = None,
    ) -> np.ndarray:
        """Read ``length`` values of ``sid`` beginning at ``start``.

        All covering pages are faulted through the buffer pool, charged
        to ``stats`` (the reading query's counters), so hit/miss
        accounting matches the paper's page-access metric.  Returns a
        read-only view.
        """
        meta = self._require(sid)
        self._check_range(meta, start, length)
        for page_id in self.pages_for_range(sid, start, length):
            self._buffer.get(page_id, stats)
        return self._arrays[sid][start : start + length]

    def read_full_sequence(
        self, sid: int, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Read an entire sequence sequentially through the buffer pool.

        Used by the SeqScan baseline: every data page is requested in file
        order, which with a small buffer degenerates to one physical read
        per page — the constant cost the paper reports for SeqScan.
        The reads are charged to ``stats``.
        """
        meta = self._require(sid)
        for page_id in meta.pages:
            self._buffer.get(page_id, stats)
        return self._arrays[sid]

    def peek_subsequence(self, sid: int, start: int, length: int) -> np.ndarray:
        """Read a subsequence without any I/O accounting.

        Reserved for gold-standard brute-force checks in tests and for
        index construction (which the paper performs offline).
        """
        meta = self._require(sid)
        self._check_range(meta, start, length)
        return self._arrays[sid][start : start + length]

    def peek_full_sequence(self, sid: int) -> np.ndarray:
        """Whole sequence without I/O accounting (offline/index build)."""
        return self._arrays[self._require(sid).sid]

    def iter_sequences(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Iterate ``(sid, values)`` without I/O accounting (offline)."""
        for sid in self._meta:
            yield sid, self._arrays[sid]


#: Where a database keeps its sequence values at query time.
BACKENDS = ("file", "mmap")


def check_backend(backend: object) -> str:
    """Return ``backend`` if it is one of :data:`BACKENDS`; raise
    :class:`~repro.exceptions.ConfigurationError` otherwise."""
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown storage backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def map_values(store: SequenceStore) -> Callable[[], None]:
    """Serve every stored sequence from a read-only memory map.

    Writes all sequences, in insertion order, into ``values.bin`` under
    a fresh ``repro-mmap-*`` scratch directory, maps it read-only, and
    points each sequence array and each ``DATA`` page payload at a view
    of the map.  The views equal the arrays they replace, so the
    checksums sealed afterwards, the page counts and the answers are
    those of heap pages.  Ingest after the map concatenates onto fresh
    heap arrays, so mutated sequences leave the map.

    Returns the detach: it copies views that are still installed back to
    the heap (an identity check, since ingest may have replaced some),
    unmaps the file and removes the scratch directory.
    """
    if store.total_values == 0:
        return lambda: None
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="repro-mmap-"))
    path = scratch / "values.bin"
    try:
        with open(path, "wb") as handle:
            for _, values in store.iter_sequences():
                handle.write(values.tobytes())
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as error:
        shutil.rmtree(scratch, ignore_errors=True)
        raise StorageError(f"failed to map {path}: {error}") from error
    base = np.frombuffer(mapped, dtype=np.float64)
    arrays = store._arrays  # noqa: SLF001
    payloads = store.pager._payloads  # noqa: SLF001
    vpp = store.values_per_page
    installed_arrays: Dict[int, np.ndarray] = {}
    installed_payloads: Dict[int, np.ndarray] = {}
    offset = 0
    for sid in store.sequence_ids():
        view = base[offset : offset + store.length(sid)]
        offset += view.size
        arrays[sid] = installed_arrays[sid] = view
        for index, page_id in enumerate(store.meta(sid).pages):
            chunk = view[index * vpp : (index + 1) * vpp]
            payloads[page_id] = installed_payloads[page_id] = chunk

    def detach() -> None:
        for sid, view in installed_arrays.items():
            if arrays.get(sid) is view:
                arrays[sid] = _heap_copy(view)
        for page_id, chunk in installed_payloads.items():
            if payloads[page_id] is chunk:
                payloads[page_id] = _heap_copy(chunk)
        installed_arrays.clear()
        installed_payloads.clear()
        try:
            mapped.close()
        except BufferError:
            # A caller still holds a view; the map is freed when the
            # last view is garbage-collected.
            pass
        shutil.rmtree(scratch, ignore_errors=True)

    return detach


def _heap_copy(view: np.ndarray) -> np.ndarray:
    copy = np.array(view)
    copy.setflags(write=False)
    return copy
