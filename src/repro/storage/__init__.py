"""Page-based storage substrate.

The paper measures algorithms primarily by the number of disk page
accesses, so the storage layer is built around explicit pages:

* :mod:`repro.storage.page` — page identity, kinds, and geometry helpers
  (how many values / index entries fit in one page).
* :mod:`repro.storage.pager` — the physical page store with read/write
  counters (the simulated disk).
* :mod:`repro.storage.buffer` — an LRU buffer pool that also keeps each
  query's own image of it (RU-COST's ``NUM_IO`` residence bitmap).
* :mod:`repro.storage.sequences` — a heap file of time-series values,
  packed into pages, with subsequence retrieval through the buffer pool.
* :mod:`repro.storage.deferred` — the deferred retrieval mechanism of
  Han et al. [12] that batches random subsequence requests into
  quasi-sequential sweeps.
* :mod:`repro.storage.integrity` — CRC32 checksum helpers shared by the
  pager (per-page) and the persistence layer (whole-file).
* :mod:`repro.storage.faults` — the deterministic fault-injection
  harness (:class:`FaultInjector` + :class:`FaultyPager`).
"""

from repro.storage.buffer import BufferPool, RetryPolicy
from repro.storage.deferred import CandidateRequest, DeferredRetrievalBuffer
from repro.storage.faults import FaultInjector, FaultSpec, FaultyPager
from repro.storage.integrity import (
    bytes_checksum,
    file_checksum,
    payload_checksum,
)
from repro.storage.page import (
    PAGE_SIZE_DEFAULT,
    PageKind,
    index_entries_per_page,
    values_per_page,
)
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore

__all__ = [
    "PAGE_SIZE_DEFAULT",
    "PageKind",
    "values_per_page",
    "index_entries_per_page",
    "Pager",
    "BufferPool",
    "RetryPolicy",
    "SequenceStore",
    "CandidateRequest",
    "DeferredRetrievalBuffer",
    "FaultInjector",
    "FaultSpec",
    "FaultyPager",
    "payload_checksum",
    "file_checksum",
    "bytes_checksum",
]
