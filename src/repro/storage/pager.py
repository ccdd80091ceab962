"""The physical page store (simulated disk).

:class:`Pager` owns the mapping from page ids to page payloads and counts
every physical read and write.  All higher layers go through the
:class:`~repro.storage.buffer.BufferPool`, so ``physical_reads`` here is
exactly the paper's "number of page accesses" metric: reads that would hit
the disk because the page was not resident in the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import CorruptPageError, PageError
from repro.obs.tracer import NULL_TRACER
from repro.storage.integrity import payload_checksum
from repro.storage.page import PAGE_SIZE_DEFAULT, PageKind


#: Forward window (in pages) within which an ascending read is treated
#: as part of one elevator sweep rather than a fresh seek — the access
#: pattern produced by draining the deferred buffer in storage order.
READAHEAD_WINDOW = 32


@dataclass
class PagerStats:
    """Physical I/O counters for one pager."""

    physical_reads: int = 0
    physical_writes: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    _last_read_page: int = field(default=-(READAHEAD_WINDOW + 2), repr=False)

    def record_read(self, page_id: int) -> None:
        """Count one physical read, classifying it as sequential or random.

        A read is *sequential* when it targets a page at or shortly after
        the previously read page (within :data:`READAHEAD_WINDOW`) — the
        pattern produced by full scans and by the deferred retrieval
        mechanism's sorted sweeps, which the paper describes as turning
        "many random accesses into a series of sequential accesses".
        """
        self.physical_reads += 1
        gap = page_id - self._last_read_page
        if 0 < gap <= READAHEAD_WINDOW:
            self.sequential_reads += 1
        else:
            self.random_reads += 1
        self._last_read_page = page_id

    def record_write(self) -> None:
        self.physical_writes += 1

    def reset(self) -> None:
        self.physical_reads = 0
        self.physical_writes = 0
        self.sequential_reads = 0
        self.random_reads = 0
        self._last_read_page = -(READAHEAD_WINDOW + 2)


class Pager:
    """An append-only page allocator with read/write accounting.

    Parameters
    ----------
    page_size:
        Page size in bytes.  Only used for geometry decisions by callers;
        the pager itself stores payloads as Python objects.

    Integrity
    ---------
    Each page carries a CRC32 checksum of its payload's canonical byte
    encoding (:func:`~repro.storage.integrity.payload_checksum`).  Index
    construction mutates node objects in place (it is offline, like the
    paper's excluded build phase), so checksums become authoritative only
    once :meth:`seal` snapshots every page — which
    :meth:`~repro.api.SubsequenceDatabase.build` and ``load()`` both do.
    After sealing, :meth:`write` keeps the affected checksum current and
    every :meth:`read` verifies its payload, raising
    :class:`~repro.exceptions.CorruptPageError` on a mismatch.  Every
    read, not only a page's first: a payload that is a view of a memory
    map (:func:`~repro.storage.sequences.map_values`) changes when the
    mapped file is rewritten underneath it.  Verification happens on
    the already-fetched payload and therefore never changes the
    physical read counters.
    """

    def __init__(self, page_size: int = PAGE_SIZE_DEFAULT) -> None:
        self.page_size = page_size
        self.stats = PagerStats()
        #: Observability hook; the disabled default costs one branch per
        #: physical read.  ``pager.read`` spans nest inside the buffer
        #: pool's ``buffer.fetch`` spans and isolate device time (e.g.
        #: injected latency faults) from retry/bookkeeping time.
        self.tracer = NULL_TRACER
        self._payloads: List[Any] = []
        self._kinds: List[PageKind] = []
        self._checksums: List[Optional[int]] = []
        self._sealed = False

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def num_pages(self) -> int:
        """Total number of allocated pages."""
        return len(self._payloads)

    def allocate(self, kind: PageKind, payload: Any = None) -> int:
        """Allocate a new page and return its id.

        Allocation is counted as a physical write (the page must reach
        "disk" eventually), matching how index build cost would accrue.
        """
        page_id = len(self._payloads)
        self._payloads.append(payload)
        self._kinds.append(kind)
        self._checksums.append(
            payload_checksum(payload) if self._sealed else None
        )
        self.stats.record_write()
        return page_id

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._payloads):
            raise PageError(
                f"page id {page_id} out of range [0, {len(self._payloads)})"
            )

    def read(self, page_id: int) -> Any:
        """Physically read a page payload, counting the access.

        On a sealed pager the payload is checksum-verified; a mismatch
        raises :class:`~repro.exceptions.CorruptPageError`.
        """
        if self.tracer.enabled:
            with self.tracer.span("pager.read", page=page_id):
                return self._read_now(page_id)
        return self._read_now(page_id)

    def _read_now(self, page_id: int) -> Any:
        self._check(page_id)
        self.stats.record_read(page_id)
        payload = self._payloads[page_id]
        expected = self._checksums[page_id]
        if (
            self._sealed
            and expected is not None
            and payload_checksum(payload) != expected
        ):
            raise CorruptPageError(
                f"page {page_id} ({self._kinds[page_id].value}) "
                f"failed checksum verification"
            )
        return payload

    def write(self, page_id: int, payload: Any) -> None:
        """Physically write a page payload, counting the access."""
        self._check(page_id)
        self.stats.record_write()
        self._payloads[page_id] = payload
        if self._sealed:
            self._checksums[page_id] = payload_checksum(payload)

    def free(self, page_id: int) -> None:
        """Retire a page: drop its payload and retag it ``FREE``.

        Used by the ingest path when a sequence is deleted or an index
        node is condensed away.  The page id is never reused (the pager
        stays append-only, so saved layouts remain stable), but the
        payload is released and the page drops out of the ``DATA`` /
        index kind histograms.  Counted as a physical write — the freed
        page's header must reach disk.
        """
        self._check(page_id)
        self.stats.record_write()
        self._payloads[page_id] = None
        self._kinds[page_id] = PageKind.FREE
        if self._sealed:
            self._checksums[page_id] = payload_checksum(None)

    def kind_of(self, page_id: int) -> PageKind:
        """Return the :class:`PageKind` recorded at allocation time."""
        self._check(page_id)
        return self._kinds[page_id]

    def peek(self, page_id: int) -> Any:
        """Read a payload *without* counting I/O.

        Reserved for tests and for in-memory restructuring during index
        build, where the paper's algorithms would operate on pinned pages.
        """
        self._check(page_id)
        return self._payloads[page_id]

    def kind_histogram(self) -> Dict[PageKind, int]:
        """Number of allocated pages per kind (for Table 2-style reports)."""
        histogram: Dict[PageKind, int] = {}
        for kind in self._kinds:
            histogram[kind] = histogram.get(kind, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        """Whether checksums are authoritative and verified on read."""
        return self._sealed

    def seal(self) -> None:
        """Snapshot every page checksum and enable read verification.

        Called once the page file reaches its query-serving state (end
        of ``build()`` / ``load()``); analogous to checksumming pages at
        flush time in a real engine.  Idempotent.
        """
        self._checksums = [
            payload_checksum(payload) for payload in self._payloads
        ]
        self._sealed = True

    def verify_page(self, page_id: int) -> bool:
        """Checksum-check one page without counting I/O.

        Returns ``True`` when the page is clean or has no recorded
        checksum yet (unsealed pager).
        """
        self._check(page_id)
        expected = self._checksums[page_id]
        if expected is None:
            return True
        return payload_checksum(self._payloads[page_id]) == expected

    def verify_all(self) -> List[int]:
        """Page ids failing checksum verification (scrub's page walk)."""
        return [
            page_id
            for page_id in range(len(self._payloads))
            if not self.verify_page(page_id)
        ]
