"""Crash-safe online ingest: WAL-logged mutation of a built database.

The paper treats index construction as an offline step; this module
adds the maintenance plane a deployed system needs — appending new
sequences, extending existing ones, and deleting — without rebuilding,
and without losing committed work to a crash at any instruction.

Write path (:class:`IngestSession`)
-----------------------------------
Every mutation follows write-ahead discipline::

    log intent -> apply to store -> maintain indexes -> ... -> commit

* The intent record (full values payload, CRC-framed, LSN-stamped) goes
  into the :class:`~repro.storage.wal.WriteAheadLog` *before* any state
  changes.
* The mutation is applied to the :class:`~repro.storage.sequences.
  SequenceStore` (pager pages written or freed, stale buffer-pool
  entries invalidated), the DualMatch R*-tree (window entries inserted,
  or deleted with CondenseTree), and — when PSM's sliding index was
  built — the sliding R*-tree and its bloom filter.
* ``commit()`` appends the commit marker and issues the session's
  single fsync (group commit).  Only records covered by a commit marker
  are ever replayed.

An application error inside a session aborts it: the uncommitted WAL
tail is rolled back and the in-memory database must be considered
poisoned (partially applied), exactly as after a crash — reload or
:func:`recover_database` from the durable root to get back to the last
committed state.

Durable layout
--------------
::

    root/
      checkpoint/   last checkpoint (atomic format-v2 database dir,
                    meta.json carries the ``wal_lsn`` watermark)
      wal.log       records committed after that checkpoint

The WAL lives *beside* the checkpoint directory, never inside it — the
checkpoint is swapped atomically by ``os.replace`` and must not take
the log with it.

Recovery (:func:`recover_database`)
-----------------------------------
1. Load the checkpoint (full integrity verification, page-for-page
   pager reconstruction).
2. Open the WAL: the open-time scan discards the torn tail and any
   uncommitted records.
3. Replay committed batches in LSN order, skipping every record at or
   below the checkpoint's ``wal_lsn`` watermark (idempotence: a crash
   between checkpoint save and WAL truncation re-presents old records).

Replay drives the *same* apply functions as the live write path, over a
pager reconstructed page-for-page, so a recovered database is
byte-identical — results **and** page-access counts — to one that never
crashed.  The chaos harness (``repro chaos --suite ingest``) proves
this at every seeded crash point.

Checkpointing (:func:`checkpoint_database`)
-------------------------------------------
Saves the current state into ``root/checkpoint`` (atomic directory
swap, ``wal_lsn`` recorded in meta.json), then truncates the WAL to
that LSN.  A crash between the two steps is safe: recovery sees a
checkpoint whose watermark already covers the un-truncated records and
skips them.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    IndexNotBuiltError,
    PageError,
    SequenceNotFoundError,
    UsageError,
)
from repro.index.builder import DualMatchIndex, iter_window_entries
from repro.storage.buffer import RetryPolicy
from repro.storage.sequences import SequenceStore
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:
    from repro.api import SubsequenceDatabase
    from repro.core.clock import Clock

#: File name of the write-ahead log inside a durable root.
WAL_NAME = "wal.log"

#: Directory name of the checkpoint database inside a durable root.
CHECKPOINT_NAME = "checkpoint"

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------------
# Apply functions — shared verbatim by the live write path and replay,
# which is what makes recovery deterministic.
# ----------------------------------------------------------------------


def _indexes(db: "SubsequenceDatabase") -> List[DualMatchIndex]:
    """The database's indexes, in the order their pages are allocated."""
    assert db.index is not None
    sliding = db._sliding_index  # noqa: SLF001 — package-internal plane
    return [db.index] if sliding is None else [db.index, sliding]


def _index_new_windows(
    db: "SubsequenceDatabase", sid: int, old_length: int
) -> None:
    """Insert index entries for windows completed by an append/extend.

    Appending values never moves existing grid windows (they cover
    prefixes of the unchanged old values), so maintenance is purely
    additive: windows ``[old_windows, new_windows)`` of each index's
    grid (stride ``omega`` or ``J`` for the DualMatch tree, 1 for
    PSM's).
    """
    values = db.store.peek_full_sequence(sid)
    for index in _indexes(db):
        omega = index.omega
        stride = index.data_stride
        old_windows = max(0, (old_length - omega) // stride + 1)
        for point, record in iter_window_entries(
            sid, values, omega, index.features, stride,
            first_window=old_windows,
        ):
            index.tree.insert(point, record)
            if index.bloom is not None:
                index.bloom.add(record)


def _apply_append(
    db: "SubsequenceDatabase",
    sid: int,
    values: np.ndarray,
    session: Optional[object],
) -> None:
    db.store.add_sequence(sid, values, session=session)
    _index_new_windows(db, sid, old_length=0)


def _apply_extend(
    db: "SubsequenceDatabase",
    sid: int,
    values: np.ndarray,
    session: Optional[object],
) -> None:
    old_length = db.store.length(sid)
    db.store.extend_sequence(sid, values, session=session)
    _index_new_windows(db, sid, old_length=old_length)


def _apply_delete(
    db: "SubsequenceDatabase", sid: int, session: Optional[object]
) -> None:
    values = db.store.peek_full_sequence(sid)
    for index in _indexes(db):
        for point, record in iter_window_entries(
            sid, values, index.omega, index.features, index.data_stride
        ):
            index.tree.delete(point, record)
    # PSM's bloom keeps the deleted keys: a bloom cannot unset, and a
    # stale positive only costs PSM a probe, never a result.
    db.store.remove_sequence(sid, session=session)


class IngestSession:
    """One WAL-logged group-commit of online mutations.

    Obtained from :meth:`~repro.api.SubsequenceDatabase.ingest`; usable
    as a context manager (commits on clean exit, rolls the WAL back on
    an application error)::

        with db.ingest() as session:
            session.append(7, values)
            session.extend(3, more_values)
            session.delete(5)
        # committed — durable after the session's single fsync

    A session without a WAL (``db`` not attached to a durable root)
    applies mutations in memory only; the chaos harness uses this mode
    to build its never-crashed oracle.
    """

    def __init__(
        self, db: "SubsequenceDatabase", wal: Optional[WriteAheadLog]
    ) -> None:
        if db.index is None:
            raise IndexNotBuiltError("call build() before ingest()")
        self._db = db
        self._wal = wal
        self._ops = 0
        self._closed = False
        #: LSN of this session's commit marker (``None`` until commit,
        #: and always ``None`` for WAL-less sessions).
        self.commit_lsn: Optional[int] = None

    @property
    def operations(self) -> int:
        """Number of mutations applied so far in this session."""
        return self._ops

    def _require_active(self) -> None:
        if self._closed:
            raise UsageError("ingest session is already closed")

    def _log(self, op: str, fields: dict) -> None:
        if self._wal is not None:
            self._wal.append(op, fields)

    # -- mutations -----------------------------------------------------

    def append(self, sid: int, values: Sequence[float]) -> None:
        """Add a brand-new sequence (intent logged before application)."""
        self._require_active()
        if self._db.store.has_sequence(sid):
            raise PageError(f"sequence id {sid} already stored")
        array = SequenceStore._validated(sid, values)  # noqa: SLF001
        self._log("append", {"sid": sid, "values": array.tolist()})
        _apply_append(self._db, sid, array, session=self)
        self._ops += 1

    def extend(self, sid: int, values: Sequence[float]) -> None:
        """Append values to an existing sequence."""
        self._require_active()
        if not self._db.store.has_sequence(sid):
            raise SequenceNotFoundError(
                f"sequence id {sid} is not in the store"
            )
        array = SequenceStore._validated(sid, values)  # noqa: SLF001
        self._log("extend", {"sid": sid, "values": array.tolist()})
        _apply_extend(self._db, sid, array, session=self)
        self._ops += 1

    def delete(self, sid: int) -> None:
        """Remove a sequence, its pages, and its index entries."""
        self._require_active()
        if not self._db.store.has_sequence(sid):
            raise SequenceNotFoundError(
                f"sequence id {sid} is not in the store"
            )
        self._log("delete", {"sid": sid})
        _apply_delete(self._db, sid, session=self)
        self._ops += 1

    # -- lifecycle -----------------------------------------------------

    def commit(self) -> Optional[int]:
        """Group-commit the session (one fsync); returns the commit LSN."""
        self._require_active()
        self._closed = True
        if self._wal is not None:
            self.commit_lsn = self._wal.commit()
            self._db._last_applied_lsn = self.commit_lsn  # noqa: SLF001
        # Keep the LRU buffer at its configured fraction of the (now
        # larger or smaller) page file — a database recovered from a
        # checkpoint sizes its buffer from the same page count, so
        # NUM_IO stays byte-identical across crash/recover boundaries.
        self._db.resize_buffer(self._db.buffer_fraction)
        return self.commit_lsn

    def abort(self) -> None:
        """Abandon the session: roll back its uncommitted WAL records.

        The in-memory database keeps whatever was already applied (like
        a crashed process's heap); the *durable* state is unaffected,
        and recovering from the durable root restores consistency.
        """
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.rollback()

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:
            return
        if exc_type is None:
            self.commit()
        elif issubclass(exc_type, Exception):
            self.abort()
        # BaseException (SimulatedCrash, KeyboardInterrupt): behave like
        # the process died — touch nothing; the WAL open-time scan will
        # discard the uncommitted tail.


# ----------------------------------------------------------------------
# Durable root lifecycle
# ----------------------------------------------------------------------


def create_durable(
    db: "SubsequenceDatabase",
    root: PathLike,
    sync: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
    clock: Optional["Clock"] = None,
) -> WriteAheadLog:
    """Persist a built database as a durable root and attach its WAL.

    Writes the initial checkpoint (``root/checkpoint``) and an empty
    log (``root/wal.log``), then attaches the log to ``db`` so that
    :meth:`~repro.api.SubsequenceDatabase.ingest` sessions are durable.
    Returns the attached :class:`~repro.storage.wal.WriteAheadLog`.
    """
    from repro.storage.persistence import save_database

    if db.index is None:
        raise ConfigurationError("cannot create a durable root before build()")
    root_path = pathlib.Path(root)
    root_path.mkdir(parents=True, exist_ok=True)
    save_database(
        db,
        root_path / CHECKPOINT_NAME,
        extra_meta={"wal_lsn": db._last_applied_lsn},  # noqa: SLF001
    )
    wal = WriteAheadLog(
        root_path / WAL_NAME,
        retry_policy=retry_policy,
        clock=clock,
        sync=sync,
    )
    db.attach_wal(wal, root_path)
    return wal


def checkpoint_database(db: "SubsequenceDatabase") -> int:
    """Checkpoint a durable database and truncate its WAL.

    Saves the current in-memory state into ``root/checkpoint`` (atomic
    swap; meta.json records the ``wal_lsn`` watermark), then truncates
    the log to that LSN.  Crash points ``checkpoint.begin`` and
    ``checkpoint.after_save`` bracket the two steps for the chaos
    harness.  Returns the watermark LSN.
    """
    from repro.storage.persistence import save_database

    wal = db.wal
    root = db.durable_root
    if wal is None or root is None:
        raise UsageError(
            "checkpoint requires a durable root; call create_durable() "
            "or recover_database() first"
        )
    wal.crash_point("checkpoint.begin")
    watermark = wal.last_lsn
    save_database(
        db, root / CHECKPOINT_NAME, extra_meta={"wal_lsn": watermark}
    )
    wal.crash_point("checkpoint.after_save")
    wal.truncate(watermark)
    if wal.tracer.enabled:
        wal.tracer.metrics.counter("checkpoint").inc()
    return watermark


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover_database` did."""

    #: ``wal_lsn`` watermark the loaded checkpoint carried.
    checkpoint_lsn: int
    #: Committed batches replayed over the checkpoint.
    replayed_batches: int
    #: Operation records replayed (commit markers excluded).
    replayed_records: int
    #: Torn bytes the WAL open-time scan discarded.
    torn_bytes_discarded: int
    #: LSN the recovered database is consistent through.
    effective_lsn: int


def recover_database(
    root: PathLike,
    psm: bool = False,
    sync: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
    clock: Optional["Clock"] = None,
    backend: str = "file",
):
    """Roll a durable root forward to its last committed state.

    Returns ``(db, report)``: the recovered
    :class:`~repro.api.SubsequenceDatabase` (WAL attached, ready for
    further ingest) and a :class:`RecoveryReport`.

    Safe to run at any time — on a cleanly checkpointed root it replays
    nothing.  Replay is idempotent: records at or below the
    checkpoint's ``wal_lsn`` watermark (re-presented when a crash hit
    between checkpoint save and WAL truncation) are skipped.

    ``backend`` (``"file"`` or ``"mmap"``) is where the recovered
    database keeps its values (see :func:`repro.storage.sequences.
    map_values`); replayed mutations land on heap pages regardless, so
    under ``"mmap"`` only the checkpointed prefix is served from the map.
    """
    from repro.storage.persistence import load_database

    root_path = pathlib.Path(root)
    checkpoint = root_path / CHECKPOINT_NAME
    db = load_database(checkpoint, psm=psm, backend=backend)
    meta = json.loads((checkpoint / "meta.json").read_text())
    checkpoint_lsn = int(meta.get("wal_lsn", 0))

    wal = WriteAheadLog(
        root_path / WAL_NAME,
        retry_policy=retry_policy,
        clock=clock,
        sync=sync,
    )
    try:
        return _finish_recovery(db, wal, root_path, checkpoint_lsn)
    except BaseException:
        # Replay failed before the database took ownership of the
        # handle; close it so the torn root can be reopened.
        wal.close()
        raise


def _finish_recovery(
    db: "SubsequenceDatabase",
    wal: WriteAheadLog,
    root_path: pathlib.Path,
    checkpoint_lsn: int,
) -> Tuple["SubsequenceDatabase", RecoveryReport]:
    """Replay the committed WAL suffix and attach the handle to ``db``."""
    tracer = db.tracer
    replayed_batches = 0
    replayed_records = 0
    effective_lsn = checkpoint_lsn

    with tracer.span("recover.replay", root=str(root_path)):
        for batch in wal.replay():
            if batch.commit_lsn <= checkpoint_lsn:
                continue  # already inside the checkpoint
            for record in batch.records:
                if record.lsn <= checkpoint_lsn:
                    continue
                if record.op == "append":
                    _apply_append(
                        db,
                        int(record.fields["sid"]),
                        np.asarray(record.fields["values"], dtype=np.float64),
                        session=wal,
                    )
                elif record.op == "extend":
                    _apply_extend(
                        db,
                        int(record.fields["sid"]),
                        np.asarray(record.fields["values"], dtype=np.float64),
                        session=wal,
                    )
                elif record.op == "delete":
                    _apply_delete(
                        db, int(record.fields["sid"]), session=wal
                    )
                replayed_records += 1
                if tracer.enabled:
                    tracer.metrics.counter("recover.replay").inc()
            replayed_batches += 1
            effective_lsn = batch.commit_lsn

    db._last_applied_lsn = effective_lsn  # noqa: SLF001
    db.attach_wal(wal, root_path)
    # Match the live write path: buffer capacity tracks the page count
    # (IngestSession.commit() resizes), and recovery hands back a cold
    # cache with zeroed counters.
    db.resize_buffer(db.buffer_fraction)
    db.reset_cache()
    report = RecoveryReport(
        checkpoint_lsn=checkpoint_lsn,
        replayed_batches=replayed_batches,
        replayed_records=replayed_records,
        torn_bytes_discarded=wal.torn_bytes_discarded,
        effective_lsn=effective_lsn,
    )
    return db, report
