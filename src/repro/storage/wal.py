"""Write-ahead log for crash-safe online ingest.

Every mutation of a built database (``append_sequence`` /
``extend_sequence`` / ``delete_sequence``) is logged *before* it is
applied, so that the durable state — the last checkpoint directory plus
this log — can always be rolled forward to a consistent point after a
crash at any instruction.

File format
-----------
::

    magic      b"REPROWAL1\\n"                      (10 bytes)
    header     frame{ {"base_lsn": N} }             (one framed record)
    record*    frame{ {"lsn": L, "op": ..., ...} }  (monotonic LSNs)

    frame      <u32 payload_len> <u32 crc32(payload)> <payload bytes>

Payloads are canonical JSON.  Sequence values round-trip exactly:
``json`` serializes Python floats with shortest-repr precision, so
``float(json) == float64`` bit-for-bit.

Record kinds are ``append`` / ``extend`` / ``delete`` (one per logged
mutation, LSN-stamped) and ``commit`` — the group-commit marker ending
an :class:`~repro.ingest.IngestSession`.  Only records covered by a
commit marker are ever replayed; everything after the last intact
commit frame is an *uncommitted or torn tail* and is discarded.

Durability protocol
-------------------
* ``append`` writes the frame into the OS file (buffered); no fsync.
* ``commit`` appends the commit marker and then issues the session's
  **single** fsync (group commit — one sync per session, not per op).
* ``truncate`` (checkpointing) rewrites the log as a fresh header with
  ``base_lsn`` advanced, via a temp file and atomic ``os.replace``.
* On open, the tail of the file is scanned; a torn final frame (short
  write or CRC mismatch) is chopped off so appends resume at the last
  intact frame.  A bad magic/header raises
  :class:`~repro.exceptions.WalCorruptError` — that is corruption, not
  a crash artifact.

Fault machinery
---------------
All physical steps run under the same
:class:`~repro.storage.buffer.RetryPolicy` as page reads: transient
failures are retried with bounded backoff.  The
:attr:`WriteAheadLog.crash_hook` attribute is the chaos harness's
crash-point injector: it is invoked with a point name at every durable
step and may raise :class:`SimulatedCrash` (optionally tearing the
in-flight frame first) or
:class:`~repro.exceptions.TransientIOError` (exercising the retry
path).
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
)
from repro.core.clock import MONOTONIC_CLOCK, Clock
from repro.exceptions import WalCorruptError, WalError
from repro.obs.tracer import NULL_TRACER
from repro.storage.buffer import RetryPolicy

WAL_MAGIC = b"REPROWAL1\n"

_FRAME = struct.Struct("<II")

#: Upper bound on one record's payload; anything larger is treated as a
#: torn/garbage length field, ending the valid prefix of the log.
_MAX_PAYLOAD = 1 << 28

#: Operations an :class:`~repro.ingest.IngestSession` may log.
WAL_OPS = ("append", "extend", "delete", "commit")


class SimulatedCrash(BaseException):
    """Process death injected at a WAL/checkpoint crash point.

    Derives from :class:`BaseException` deliberately: a crash must not
    be swallowed by ``except Exception`` / ``on_fault="degrade"``
    handlers — a real ``kill -9`` would not be.  ``torn_fraction``
    (when set) makes the log write that fraction of the in-flight
    frame before dying, modelling a torn sector write.
    """

    def __init__(
        self, point: str, torn_fraction: Optional[float] = None
    ) -> None:
        super().__init__(f"simulated crash at {point}")
        self.point = point
        self.torn_fraction = torn_fraction


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    op: str
    fields: Dict[str, Any]


@dataclass(frozen=True)
class WalBatch:
    """One committed session: its operation records plus the commit LSN."""

    records: Tuple[WalRecord, ...]
    commit_lsn: int


@dataclass
class WalScan:
    """Result of scanning a log file's byte content."""

    base_lsn: int = 0
    records: List[WalRecord] = field(default_factory=list)
    #: Offset just past the last intact frame (where appends resume).
    valid_end: int = 0
    #: Bytes beyond ``valid_end`` — the torn/garbage tail.
    tail_bytes: int = 0
    #: Offset just past the last intact **commit** frame.
    committed_end: int = 0
    #: LSN of that commit record (``base_lsn`` when none committed).
    committed_lsn: int = 0
    #: Number of records up to and including the last commit.
    committed_records: int = 0


def _encode_frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_bytes(raw: bytes) -> WalScan:
    """Parse a log image, stopping at the first torn or invalid frame.

    Raises :class:`WalCorruptError` when the magic or header frame is
    unreadable (the log is not trustworthy at all); a bad frame *after*
    a valid header merely ends the scan — that is the torn-tail case.
    """
    if len(raw) < len(WAL_MAGIC) or raw[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruptError(
            "write-ahead log magic mismatch: not a repro WAL file"
        )
    offset = len(WAL_MAGIC)

    def read_frame(at: int) -> Optional[Tuple[Dict[str, Any], int]]:
        if at + _FRAME.size > len(raw):
            return None
        length, crc = _FRAME.unpack_from(raw, at)
        if length > _MAX_PAYLOAD or at + _FRAME.size + length > len(raw):
            return None
        payload = raw[at + _FRAME.size : at + _FRAME.size + length]
        if zlib.crc32(payload) != crc:
            return None
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(decoded, dict):
            return None
        return decoded, at + _FRAME.size + length

    header = read_frame(offset)
    if header is None:
        raise WalCorruptError(
            "write-ahead log header frame is missing or corrupt"
        )
    header_fields, offset = header
    base_lsn = header_fields.get("base_lsn")
    if not isinstance(base_lsn, int) or base_lsn < 0:
        raise WalCorruptError(
            f"write-ahead log header has invalid base_lsn "
            f"{base_lsn!r}"
        )

    scan = WalScan(
        base_lsn=base_lsn,
        valid_end=offset,
        committed_end=offset,
        committed_lsn=base_lsn,
    )
    last_lsn = base_lsn
    while True:
        frame = read_frame(offset)
        if frame is None:
            break
        fields, next_offset = frame
        lsn = fields.get("lsn")
        op = fields.get("op")
        if (
            not isinstance(lsn, int)
            or lsn != last_lsn + 1
            or op not in WAL_OPS
        ):
            break  # non-monotonic or unknown record: treat as tail
        body = {
            key: value
            for key, value in fields.items()
            if key not in ("lsn", "op")
        }
        scan.records.append(WalRecord(lsn=lsn, op=op, fields=body))
        last_lsn = lsn
        offset = next_offset
        scan.valid_end = offset
        if op == "commit":
            scan.committed_end = offset
            scan.committed_lsn = lsn
            scan.committed_records = len(scan.records)
    scan.tail_bytes = len(raw) - scan.valid_end
    return scan


@shared_across_queries
@guarded_by(
    "_lock",
    "_handle",
    "_last_lsn",
    "_base_lsn",
    "_record_count",
    "_closed",
)
class WriteAheadLog:
    """Append-only, CRC-framed, LSN-stamped intent log.

    Thread safety: one log is shared by every ingest session against
    the same database, so the file handle and the LSN bookkeeping are
    guarded by ``_lock`` (re-entrant: ``commit`` composes ``append`` +
    ``sync`` into one atomic group).  The durable-step closures inside
    ``append``/``sync``/``truncate`` run with the lock already held by
    their enclosing public method.

    Parameters
    ----------
    path:
        Log file location.  Created (with a fresh header) when absent;
        opened and tail-scanned when present.
    retry_policy:
        Bounds retries of :class:`~repro.exceptions.TransientIOError`
        during durable steps (defaults to three attempts, no backoff).
    clock:
        Injectable time source for retry backoff sleeps.
    sync:
        ``False`` disables fsync (tests that do not measure
        durability); the write ordering is unchanged.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        sync: bool = True,
    ) -> None:
        self._path = pathlib.Path(path)
        self._lock = threading.RLock()
        self.retry_policy = retry_policy or RetryPolicy()
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self._sync = sync
        self._closed = False
        #: Observability hook (attribute, like the pager's and buffer's).
        self.tracer = NULL_TRACER
        #: Chaos crash-point injector: ``hook(point_name)`` is called at
        #: every durable step and may raise :class:`SimulatedCrash` or
        #: :class:`~repro.exceptions.TransientIOError`.
        self.crash_hook: Optional[Callable[[str], None]] = None
        #: Torn bytes discarded by the open-time tail scan.
        self.torn_bytes_discarded = 0

        if self._path.exists() and self._path.stat().st_size > 0:
            raw = self._path.read_bytes()
            scan = _scan_bytes(raw)
            if len(raw) > scan.committed_end:
                # Chop everything past the last commit marker: the torn
                # final frame *and* any intact-but-uncommitted records
                # (an aborted or crashed session).  Neither is ever
                # replayed, and leaving uncommitted records in place
                # would splice them into the next session's batch.
                self.torn_bytes_discarded = scan.tail_bytes
                with open(self._path, "r+b") as handle:
                    handle.truncate(scan.committed_end)
            self._base_lsn = scan.base_lsn
            self._last_lsn = scan.committed_lsn
            self._record_count = scan.committed_records
        else:
            self._base_lsn = 0
            self._last_lsn = 0
            self._record_count = 0
            self._path.parent.mkdir(parents=True, exist_ok=True)
            header = _encode_frame(json.dumps({"base_lsn": 0}).encode())
            with open(self._path, "wb") as handle:
                handle.write(WAL_MAGIC + header)
                handle.flush()
                if self._sync:
                    os.fsync(handle.fileno())
        self._handle = open(self._path, "ab")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> pathlib.Path:
        return self._path

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record."""
        with self._lock:
            return self._last_lsn

    @property
    def base_lsn(self) -> int:
        """LSN the current log segment starts after (checkpoint LSN)."""
        with self._lock:
            return self._base_lsn

    @property
    def record_count(self) -> int:
        """Number of intact records in the current segment."""
        with self._lock:
            return self._record_count

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------
    # Durable steps (retry / crash-point plumbing)
    # ------------------------------------------------------------------

    @requires_lock("_lock")
    def crash_point(self, point: str, pending: Optional[bytes] = None) -> None:
        """Invoke the chaos crash hook at a named durable step.

        When the hook raises :class:`SimulatedCrash` with a
        ``torn_fraction`` and a frame is in flight, that fraction of
        the frame is written (a torn sector) before the crash
        propagates — recovery must then discard it via the CRC scan.
        """
        hook = self.crash_hook
        if hook is None:
            return
        try:
            hook(point)
        except SimulatedCrash as crash:
            if crash.torn_fraction is not None and pending:
                cut = int(len(pending) * crash.torn_fraction)
                cut = max(1, min(len(pending) - 1, cut))
                self._handle.write(pending[:cut])
                self._handle.flush()
            raise

    @requires_lock("_lock")
    def _io(self, point: str, step: Callable[[], None]) -> None:
        """Run one durable step under the retry policy."""

        def attempt() -> None:
            self.crash_point(point)
            step()

        self.retry_policy.run(attempt, self._clock)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @requires_lock("_lock")
    def _require_open(self) -> None:
        if self._closed:
            raise WalError("write-ahead log is closed")

    def append(self, op: str, fields: Dict[str, Any]) -> int:
        """Append one record (buffered; durable at the next commit).

        Returns the record's LSN.  ``fields`` must be JSON-serializable;
        float values round-trip exactly through the canonical encoding.
        """
        with self._lock:
            self._require_open()
            if op not in WAL_OPS:
                raise WalError(
                    f"unknown WAL op {op!r}; expected one of {WAL_OPS}"
                )
            lsn = self._last_lsn + 1
            payload = json.dumps({"lsn": lsn, "op": op, **fields}).encode()
            frame = _encode_frame(payload)

            def write() -> None:
                self.crash_point("wal.append.write", pending=frame)
                self._handle.write(frame)
                self._handle.flush()

            self._io("wal.append", write)
            self._last_lsn = lsn
            self._record_count += 1
        if self.tracer.enabled:
            self.tracer.metrics.counter("wal.append").inc()
        return lsn

    def sync(self) -> None:
        """Force the log to stable storage (the group-commit fsync)."""
        with self._lock:
            self._require_open()

            def fsync() -> None:
                self._handle.flush()
                if self._sync:
                    os.fsync(self._handle.fileno())

            self._io("wal.fsync", fsync)
        if self.tracer.enabled:
            self.tracer.metrics.counter("wal.fsync").inc()

    def commit(self) -> int:
        """Append the commit marker and fsync once (group commit).

        Returns the commit record's LSN; every record at or below it is
        now durable and will be replayed by recovery.  The marker and
        its fsync happen under one lock hold, so another session's
        records can never land between them.
        """
        with self._lock:
            lsn = self.append("commit", {})
            self.sync()
            return lsn

    def rollback(self) -> int:
        """Discard records appended after the last commit marker.

        Called when an :class:`~repro.ingest.IngestSession` aborts on an
        application error: the session's intent records must not linger,
        or they would be spliced into the *next* session's commit batch
        and replayed after a crash.  Returns the number of records
        discarded.  (After a real crash the open-time scan performs the
        same truncation.)
        """
        with self._lock:
            self._require_open()
            scan = self.scan()
            dropped = len(scan.records) - scan.committed_records
            if dropped:
                self._handle.close()
                with open(self._path, "r+b") as handle:
                    handle.truncate(scan.committed_end)
                    handle.flush()
                    if self._sync:
                        os.fsync(handle.fileno())
                self._handle = open(self._path, "ab")
                self._last_lsn = scan.committed_lsn
                self._record_count = scan.committed_records
            return dropped

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def scan(self) -> WalScan:
        """Re-read and parse the log file (intact prefix only)."""
        with self._lock:
            self._handle.flush()
            return _scan_bytes(self._path.read_bytes())

    def replay(self) -> Iterator[WalBatch]:
        """Yield committed batches in LSN order.

        Records after the last intact commit marker — an uncommitted
        session or a torn tail — are never yielded: recovery applies
        committed prefixes only.
        """
        pending: List[WalRecord] = []
        for record in self.scan().records:
            if record.op == "commit":
                yield WalBatch(
                    records=tuple(pending), commit_lsn=record.lsn
                )
                pending = []
            else:
                pending.append(record)

    # ------------------------------------------------------------------
    # Truncation (checkpointing)
    # ------------------------------------------------------------------

    def truncate(self, base_lsn: Optional[int] = None) -> None:
        """Atomically reset the log to an empty segment after a checkpoint.

        ``base_lsn`` (default: the current last LSN) is recorded in the
        new header: recovery replays only records *above* it, so a
        checkpoint that persisted state through LSN ``N`` truncates
        with ``base_lsn=N``.  The swap is a temp-file write plus
        ``os.replace`` — a crash leaves either the old log or the new
        empty one, never a torn mix.
        """
        with self._lock:
            self._require_open()
            base = self._last_lsn if base_lsn is None else base_lsn
            if base > self._last_lsn:
                raise WalError(
                    f"cannot truncate to base_lsn {base} ahead of the log "
                    f"tail {self._last_lsn}"
                )
            temp = self._path.with_name(self._path.name + ".tmp")
            header = _encode_frame(json.dumps({"base_lsn": base}).encode())

            def swap() -> None:
                with open(temp, "wb") as handle:
                    handle.write(WAL_MAGIC + header)
                    handle.flush()
                    if self._sync:
                        os.fsync(handle.fileno())
                self.crash_point("wal.truncate")
                os.replace(temp, self._path)

            try:
                self._io("wal.truncate.write", swap)
            finally:
                if temp.exists():  # crashed/failed between write and replace
                    try:
                        temp.unlink()
                    except OSError:  # pragma: no cover — best-effort cleanup
                        pass
            self._handle.close()
            self._handle = open(self._path, "ab")
            self._base_lsn = base
            self._last_lsn = base
            self._record_count = 0
        if self.tracer.enabled:
            self.tracer.metrics.counter("wal.truncate").inc()

    def close(self) -> None:
        """Flush and close the file handle.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
            finally:
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
