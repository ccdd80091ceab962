"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class PageError(StorageError):
    """A page id is unknown, out of range, or a page payload is malformed."""


class TransientIOError(StorageError):
    """A page read failed for a *recoverable* reason (injected or real).

    Retried by :class:`~repro.storage.buffer.BufferPool` according to its
    :class:`~repro.storage.buffer.RetryPolicy`; surfaces to callers only
    after the policy's attempt budget is exhausted.
    """


class CorruptPageError(PageError):
    """A page payload failed checksum verification (permanent corruption).

    Never retried — re-reading a corrupt page cannot help.  Engines
    running with ``on_fault="degrade"`` skip the affected candidates or
    subtrees instead of aborting the query.
    """


class IntegrityError(StorageError):
    """A persisted database failed a whole-file or structural check.

    Raised by :func:`~repro.storage.persistence.load_database` (and the
    ``scrub`` CLI) on file checksum mismatches, array-shape manifest
    violations, or internal references that dangle.
    """


class PartialSaveError(StorageError):
    """A persisted database directory is incomplete or truncated.

    Indicates an interrupted :func:`~repro.storage.persistence.save_database`
    (missing ``MANIFEST`` sentinel, missing files, or files shorter than
    the sizes recorded at save time).
    """


class BufferPoolError(StorageError):
    """The buffer pool was misconfigured or misused (e.g. zero capacity)."""


class WalError(StorageError):
    """The write-ahead log was misused or could not perform I/O.

    Covers protocol violations (appending to a closed log, truncating
    to an LSN ahead of the tail) and unrecoverable file-level failures
    that survive the WAL's retry policy.
    """


class WalCorruptError(WalError):
    """The write-ahead log file is structurally unreadable.

    Raised when the magic marker or the framed header fails to parse —
    the log cannot be trusted at all.  A torn *tail* (a half-written
    final record after a crash) is **not** this error: torn tails are
    expected, detected by per-record CRC32s, and silently discarded on
    replay (only committed prefixes are ever applied).
    """


class SequenceNotFoundError(StorageError):
    """A sequence id was requested that is not present in the store."""


class IndexError_(ReproError):
    """Base class for R*-tree failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`, which the library never raises intentionally.
    """


class IndexNotBuiltError(IndexError_):
    """A search was issued before the index was built."""


class QueryError(ReproError):
    """A query is malformed or incompatible with the index configuration."""


class QueryTooShortError(QueryError):
    """The query is too short for the configured window size.

    DualMatch windowing requires ``Len(Q) >= 2 * omega - 1`` so that every
    candidate subsequence fully contains at least one disjoint data window
    (``r >= 1`` in Definition 2 of the paper).
    """


class ConfigurationError(ReproError):
    """A component received an invalid configuration value."""


class UsageError(ReproError):
    """A library object was driven out of protocol order.

    Examples: closing a span that is not the thread's innermost open
    one (:meth:`~repro.obs.tracer.Tracer.end_span`), or asking geometry
    helpers for the union of zero rectangles.  Distinct from :class:`ConfigurationError` (a bad
    *value*) — this is a bad *call sequence*.
    """


class BudgetExceededError(ReproError):
    """An engine exceeded its operation budget (used to cap PSM blow-ups)."""


class ExecutionInterrupted(ReproError):
    """Internal control-flow signal: a query hit a budget, deadline, or
    cancellation at a cooperative checkpoint.

    Raised by :meth:`~repro.control.ExecutionControl.checkpoint` and
    caught by the engine template, which converts it into a
    :class:`~repro.engines.base.PartialResult` carrying the best-k-so-far
    and an exactness certificate.  It only escapes to callers that drive
    operators directly (and is still a :class:`ReproError`).
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or f"query interrupted: {reason}")
        #: Machine-readable cause: ``"cancelled"``, ``"deadline"``,
        #: ``"budget:pages"``, or ``"budget:candidates"``.
        self.reason = reason


class ProtocolError(ReproError):
    """A service request is malformed at the wire-protocol level.

    Raised by :mod:`repro.serve.protocol` when a JSON-lines request
    fails to parse or validate (unknown kind, missing query values,
    non-finite floats, bad types).  Distinct from :class:`QueryError`
    — the request never reached the query layer at all.
    """


class ServiceOverloadedError(ReproError):
    """Typed back-pressure from the query service (``repro serve``).

    Raised (or returned as an ``"error"`` response over the wire) when
    a request cannot even be *queued*: the admission queue is full or
    the service is shutting down.  The carried fields make the
    rejection actionable instead of opaque:

    * :attr:`reason` — machine-readable cause (``"queue-full"`` or
      ``"shutdown"``).
    * :attr:`retry_after_s` — the server's estimate of how long the
      caller should back off before retrying, or ``None`` when no
      useful estimate exists (e.g. shutdown).

    Clients should treat this exactly like HTTP 429/503: honour
    ``retry_after_s``, apply jitter, and shed their own load upstream.
    """

    def __init__(
        self,
        reason: str,
        retry_after_s: "float | None" = None,
        message: str = "",
    ) -> None:
        detail = message or f"service overloaded: {reason}"
        if retry_after_s is not None:
            suffix = f" (retry after {retry_after_s:.3f}s)"
            # A message decoded off the wire already ends in the suffix.
            if not detail.endswith(suffix):
                detail += suffix
        super().__init__(detail)
        #: Machine-readable cause of the rejection.
        self.reason = reason
        #: Suggested back-off in seconds (``None`` = no estimate).
        self.retry_after_s = retry_after_s
