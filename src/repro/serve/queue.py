"""Bounded FIFO admission queue for the query service.

The queue is the service's one admission gate: a request is queued in
arrival order, or, when ``capacity`` requests already wait, rejected
with ``ServiceOverloadedError("queue-full")`` carrying a depth-scaled
retry-after hint.  After :meth:`AdmissionQueue.close` every ``put``
raises ``ServiceOverloadedError("shutdown")``.  Either way a request
that is not queued gets a typed error — never a silent drop.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, List, Optional

from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
)
from repro.exceptions import ConfigurationError, ServiceOverloadedError


@shared_across_queries
@guarded_by("_lock", "_items", "_closed")
class AdmissionQueue:
    """Bounded first-in, first-out queue of pending queries.

    Items are opaque to the queue.  ``get`` blocks (with timeout) until
    an item is available or the queue is closed.

    Thread safety: the items and the closed flag are guarded by
    ``_lock`` (a :class:`threading.Condition` doubling as the mutex).
    Per lint rule RS013, no caller may hold this lock across engine
    execution — the queue hands items out and nothing more.
    """

    def __init__(self, capacity: int, retry_after_hint_s: float = 0.1) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}"
            )
        if retry_after_hint_s < 0:
            raise ConfigurationError(
                f"retry_after_hint_s must be >= 0, got {retry_after_hint_s}"
            )
        self.capacity = capacity
        self.retry_after_hint_s = float(retry_after_hint_s)
        self._lock = threading.Condition()
        self._items: Deque[Any] = deque()
        self._closed = False

    def put(self, item: Any) -> None:
        """Append ``item``.

        Raises :class:`~repro.exceptions.ServiceOverloadedError` with
        reason ``"queue-full"`` when ``capacity`` items wait, and with
        reason ``"shutdown"`` after :meth:`close`.  The closed check
        shares the lock with :meth:`close`, so a ``put`` racing a
        shutdown either lands before the drain or is refused — it never
        strands an item nobody will fail.
        """
        with self._lock:
            if self._closed:
                raise ServiceOverloadedError("shutdown")
            if len(self._items) >= self.capacity:
                raise ServiceOverloadedError(
                    "queue-full", retry_after_s=self._retry_after_locked()
                )
            self._items.append(item)
            self._lock.notify()

    @requires_lock("_lock")
    def _retry_after_locked(self) -> float:
        """Back-off hint for a full-queue rejection.

        Scales with depth: a caller bounced off a deep queue should
        wait proportionally longer than one bounced off a shallow one.
        """
        return self.retry_after_hint_s * max(1, len(self._items))

    def get(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Dequeue the oldest item, blocking up to ``timeout``.

        Returns ``None`` on timeout or when the queue is closed and
        drained — the worker loop treats both as "poll again / exit".
        """
        with self._lock:
            ready = self._lock.wait_for(
                lambda: self._items or self._closed, timeout=timeout
            )
            if not ready or not self._items:
                return None
            return self._items.popleft()

    @property
    def depth(self) -> int:
        """Items currently queued."""
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> List[Any]:
        """Refuse new work and return every still-queued item (in
        arrival order) so the caller can fail them with ``"shutdown"``
        errors.

        Blocked :meth:`get` callers wake and observe ``None``.
        """
        with self._lock:
            self._closed = True
            drained = list(self._items)
            self._items.clear()
            self._lock.notify_all()
            return drained
