"""Per-shard subquery execution: serial, thread-pool, or process-pool.

The merge layer (:mod:`repro.shard.merge`) is executor-agnostic: it
consumes one result per shard, in shard order.  What varies is *where*
the per-shard work runs:

``serial``
    Inline in the calling thread, shard 0 first.  Fully deterministic
    scheduling — the reference executor for differential tests.
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  The
    shards share the process, so per-shard subqueries see the parent's
    in-memory shard databases directly (and the parent's tracer — each
    worker thread records its own span subtree via the tracer's
    thread-local stacks).  This is the default because it needs no
    saved root, not for speed: the engine loop is Python under the GIL
    (``shard.speedup_vs_unsharded`` 0.275; two serve workers scale 0.94x).
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` over a
    *persisted* shard root (see :meth:`~repro.shard.database.
    ShardedDatabase.save`).  Each worker lazily loads — then caches —
    its shard from disk, so page data is shared between workers at the
    OS file-cache level rather than copied through pickles.  The
    :class:`~repro.engines.base.QuerySpec`, the control's limits, and
    the result object cross the process boundary pickled; what cannot
    cross meaningfully (cancellation tokens, fault injectors, tracers)
    is rejected up front by the facade or stays behind.  Hosts that
    cannot start a process pool fall back to threads
    (``create_executor`` never fails over silently — the returned
    executor's ``kind`` says what actually runs).

Thread safety: executors are ``@shared_across_queries`` — one instance
serves every concurrent query on the facade.  The pool handle is
``@guarded_by`` the executor lock so close/submit races are impossible
(RS010).
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import guarded_by, shared_across_queries
from repro.control import ExecutionControl
from repro.engines.base import QuerySpec, SearchResult
from repro.exceptions import ConfigurationError, UsageError

#: Executor kinds accepted by :func:`create_executor`.
EXECUTOR_KINDS: Tuple[str, ...] = ("serial", "thread", "process")

#: One shard job: the positional arguments of the fan-out's function.
Job = Tuple[Any, ...]


def _settled(call: Callable[[], Any]) -> Any:
    """``call()``'s return value, or the exception it raised."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 — shard-fault policy decides
        return error


@shared_across_queries
class SerialShardExecutor:
    """Run every shard job inline, in shard order."""

    kind = "serial"

    def run(
        self, function: Callable[..., Any], jobs: Sequence[Job]
    ) -> List[Any]:
        """``function(*job)`` per job; see :meth:`ThreadShardExecutor.run`."""
        return [_settled(lambda: function(*job)) for job in jobs]

    def close(self) -> None:
        """Nothing to release."""


@shared_across_queries
@guarded_by("_lock", "_pool")
class ThreadShardExecutor:
    """Run shard jobs on a persistent thread pool."""

    kind = "thread"

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._lock = threading.Lock()
        self._pool: Optional[Executor] = self._make_pool(max_workers)

    @staticmethod
    def _make_pool(max_workers: int) -> Executor:
        return ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-shard"
        )

    def _live_pool(self) -> Executor:
        with self._lock:
            pool = self._pool
        if pool is None:
            raise UsageError("shard executor used after close()")
        return pool

    def run(
        self, function: Callable[..., Any], jobs: Sequence[Job]
    ) -> List[Any]:
        """``function(*job)`` per job, one settled outcome each, in order.

        An outcome is the job's return value or the exception it raised
        (a worker that died mid-job included), so one failing shard
        never poisons the whole fan-out — the facade applies its
        shard-fault policy to each slot.
        """
        pool = self._live_pool()
        futures: List["Future[Any]"] = [
            pool.submit(function, *job) for job in jobs
        ]
        return [_settled(future.result) for future in futures]

    def close(self) -> None:
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessShardExecutor(ThreadShardExecutor):
    """Run shard jobs on a process pool over a saved root.

    Jobs cross the process boundary pickled, so the fan-out submits
    :func:`run_shard_request` (a module-level function) with a shard
    directory instead of an in-memory database.
    """

    kind = "process"

    @staticmethod
    def _make_pool(max_workers: int) -> Executor:
        # May raise on hosts without working multiprocessing; the
        # create_executor factory catches that and falls back to threads.
        return ProcessPoolExecutor(max_workers=max_workers)


# ---------------------------------------------------------------------------
# Process pool: module-level worker with a per-process shard cache
# ---------------------------------------------------------------------------

#: Per-worker-process cache of loaded shard databases, keyed by the
#: shard directory.  Lives at module level so every task dispatched to
#: the same worker process reuses the already-loaded shard.
_WORKER_SHARDS: Dict[str, Any] = {}


def _worker_shard(shard_dir: str, psm: bool) -> Any:
    db = _WORKER_SHARDS.get(shard_dir)
    if db is None:
        from repro.storage.persistence import load_database

        db = load_database(shard_dir, psm=psm)
        _WORKER_SHARDS[shard_dir] = db
    return db


def run_shard_request(
    shard_dir: str,
    psm: bool,
    query: Sequence[float],
    spec: QuerySpec,
    control: ExecutionControl,
) -> SearchResult:
    """Answer one spec against a persisted shard.

    Runs inside a pool worker process (but is a plain function — the
    serial/thread paths never use it, and tests call it directly).  The
    spec, the control's limits, and the returned result object cross
    the process boundary by pickle.
    """
    return _worker_shard(shard_dir, psm).run_query(query, spec, control)


def create_executor(
    kind: str, num_shards: int
) -> "SerialShardExecutor | ThreadShardExecutor | ProcessShardExecutor":
    """Build the executor for one sharded database.

    ``process`` needs working OS multiprocessing; when the pool cannot
    be created the factory falls back to a thread executor (check the
    returned object's ``kind`` to see what actually runs).
    """
    if kind not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    if kind == "serial":
        return SerialShardExecutor()
    workers = max(1, num_shards)
    if kind == "process":
        try:
            return ProcessShardExecutor(max_workers=workers)
        except (OSError, ImportError, NotImplementedError):
            return ThreadShardExecutor(max_workers=workers)
    return ThreadShardExecutor(max_workers=workers)
