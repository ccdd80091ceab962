"""Where shard subqueries run: one persistent thread pool.

The merge layer (:mod:`repro.shard.merge`) consumes one result per
shard, in shard order; :class:`ThreadShardExecutor` produces them.  The
shards share the process, so per-shard subqueries see the in-memory
shard databases directly (and the caller's tracer — each worker thread
records its own span subtree via the tracer's thread-local stacks).
The engine loop is Python under the GIL, so the pool is not there for
speed: on 2 cores the committed end-to-end report
``benchmarks/results/e2e_2026-10-16_one_storage_change.json`` reads
``shard.speedup_vs_unsharded`` 0.53 with the shared k-th bound, and
two serve workers scale 0.94x.  It gives every shard run of a
top-k fan-out a thread, so the runs can take turns in a
:class:`~repro.control.Rotation` and their counters repeat exactly.
:meth:`ThreadShardExecutor.run` says why every run of a rotation gets a
thread.

Thread safety: the executor is ``@shared_across_queries`` — one
instance serves every concurrent query on the facade.  The pool handle
is ``@guarded_by`` the executor lock so close/submit races are
impossible (RS010).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import guarded_by, shared_across_queries
from repro.exceptions import ConfigurationError, UsageError

#: One shard job: the positional arguments of the fan-out's function.
Job = Tuple[Any, ...]


def _settled(call: Callable[[], Any]) -> Any:
    """``call()``'s return value, or the exception it raised."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 — shard-fault policy decides
        return error


@shared_across_queries
@guarded_by("_lock", "_pool")
class ThreadShardExecutor:
    """Run shard jobs on a persistent thread pool."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-shard"
        )

    def run(
        self, function: Callable[..., Any], jobs: Sequence[Job]
    ) -> List[Any]:
        """``function(*job)`` per job, one settled outcome each, in order.

        An outcome is the job's return value or the exception it raised,
        so one failing shard never poisons the whole fan-out — the
        facade applies its shard-fault policy to each slot.

        A batch is submitted whole, under the lock: no other caller's
        jobs land between its jobs, and :meth:`close` cannot cut it in
        half.  That is what lets the shard runs of one
        :class:`~repro.control.Rotation` wait on each other: the pool
        starts jobs first in, first out and has a worker per shard, so
        before any job of a later batch starts, every job of the batch
        holding workers has started too.
        """
        with self._lock:
            pool = self._pool
            if pool is None:
                raise UsageError("shard executor used after close()")
            futures: List["Future[Any]"] = [
                pool.submit(function, *job) for job in jobs
            ]
        return [_settled(future.result) for future in futures]

    def close(self) -> None:
        """Shut the pool down once every in-flight batch has finished."""
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)
