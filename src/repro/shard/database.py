"""The sharded facade: N single-process databases behind one API.

:class:`ShardedDatabase` partitions the sequence store across ``N``
independent :class:`~repro.api.SubsequenceDatabase` instances (each
with its own pager, buffer pool, and DualMatch R*-tree).  The query
path *is* the unsharded one — both classes inherit it from
:class:`~repro.api.QueryFacade`, and a shard is one more source of its
two drivers — and the differential suite holds the results to *byte
identity* with the single-process oracle.  What this module adds is
what sharding is: the planner, the shards as sources, the shard-fault
policy, and the ``SHARDS`` manifest.  How ``budget`` / ``deadline`` /
``token`` behave under a fan-out is stated once, in
``docs/sharding.md`` ("Control plane under fan-out").

Shard faults: per-page storage faults inside a shard follow the normal
``on_fault`` policy *within* that shard.  A shard failing wholesale
(a run that raised, an unreadable shard, an injected
:meth:`inject_shard_failure`) follows the same policy one level up —
``"raise"`` propagates, ``"degrade"`` drops the shard and returns a
:class:`~repro.engines.base.PartialResult` (for a stream: ends it
``interrupted``) whose certificate is ``0.0``: trivially sound,
claiming exactness for nothing.  Matches a shard verified before it
was lost stay in the answer, and so do its counters.

Thread safety: the facade is ``@shared_across_queries`` — after
:meth:`build` (or :meth:`load`) the shard topology is immutable and
query methods only create per-query state, so any number of threads
may search concurrently (the concurrency hammer drives 8), each query
charged and, under ``ru-cost``, priced by its own reads of the shards'
buffer pools.  The build/staging phase is single-threaded by contract,
like the unsharded facade's ``insert``/``build``.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.concurrency import shared_across_queries
from repro.api import QueryFacade, SubsequenceDatabase
from repro.control import ExecutionControl
from repro.core.metrics import QueryStats
from repro.engines.base import QuerySpec, SearchResult
from repro.engines.ranked_union import LostShard
from repro.exceptions import (
    ConfigurationError,
    IndexNotBuiltError,
    IntegrityError,
    StorageError,
    UsageError,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shard.planner import ShardPlan, ShardPlanner
from repro.storage.buffer import RetryPolicy
from repro.storage.faults import FaultInjector
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.storage.persistence import save_directory_atomically
from repro.storage.sequences import check_backend

#: Shard-manifest sentinel file (distinct from the per-shard format-v2
#: ``MANIFEST`` so the two directory kinds are never confused).
SHARD_MANIFEST_NAME = "SHARDS"
SHARD_MANIFEST_MAGIC = "repro-sharded-database"
SHARD_FORMAT_VERSION = 1


def shard_dir_name(index: int) -> str:
    """Canonical subdirectory name for shard ``index``."""
    return f"shard-{index:04d}"


@shared_across_queries
class ShardedDatabase(QueryFacade):
    """N-shard ranked subsequence matching with exact merged answers.

    ``omega``, ``features``, ``page_size``, ``buffer_fraction``, ``p``
    and ``data_stride`` configure every per-shard
    :class:`~repro.api.SubsequenceDatabase`; the sharding-specific
    parameters:

    num_shards:
        Shard count ``N >= 1``.  ``N`` may exceed the number of
        sequences — surplus shards stay empty and are skipped.
    policy:
        Partitioning policy, ``"hash"`` or ``"range"`` (see
        :mod:`repro.shard.planner`).
    executor:
        ``"thread"``, the only value accepted.  It selects nothing:
        every shard run executes in the calling thread
        (``docs/sharding.md``, "Where shard runs execute"); the
        parameter stays because the frozen end-to-end bench passes it.
    fault_injectors:
        Optional ``{shard index -> FaultInjector}`` wiring per-shard
        fault schedules into the chaos harness.
    backend:
        ``"file"`` or ``"mmap"``, applied to every shard (see
        :class:`~repro.api.SubsequenceDatabase`).
    """

    def __init__(
        self,
        num_shards: int,
        policy: str = "hash",
        executor: str = "thread",
        omega: int = 64,
        features: int = 4,
        page_size: int = PAGE_SIZE_DEFAULT,
        buffer_fraction: float = 0.05,
        p: float = 2.0,
        data_stride: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        fault_injectors: Optional[Dict[int, FaultInjector]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        backend: str = "file",
    ) -> None:
        if executor != "thread":
            raise ConfigurationError(
                f"executor {executor!r} is not supported: shard runs "
                "execute in the calling thread (the 'serial' and "
                "'process' executors were removed)"
            )
        self.planner = ShardPlanner(num_shards, policy=policy)
        self.omega = omega
        self.p = p
        #: The per-shard configuration: constructor keywords of every
        #: shard database and the ``config`` block of the manifest.
        self._shard_config: Dict[str, Any] = {
            "omega": omega,
            "features": features,
            "page_size": page_size,
            "buffer_fraction": buffer_fraction,
            "p": p,
            "data_stride": data_stride,
        }
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._fault_injectors = dict(fault_injectors or {})
        self._retry_policy = retry_policy
        self.backend = check_backend(backend)
        self._closed = False
        #: Insertion-ordered staging area; emptied by :meth:`build`.
        self._staged: Dict[int, Any] = {}
        #: ``shard index -> database`` for non-empty shards (build order).
        self.shards: Optional[Dict[int, SubsequenceDatabase]] = None
        self.plan: Optional[ShardPlan] = None
        self._psm = False
        #: Chaos hook: shards that fail wholesale at the next query.
        self._failed_shards: Set[int] = set()

    # ------------------------------------------------------------------
    # Topology / introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.planner.num_shards

    @property
    def policy(self) -> str:
        return self.planner.policy

    @property
    def num_sequences(self) -> int:
        if self.shards is None:
            return len(self._staged)
        return sum(db.store.num_sequences for db in self.shards.values())

    def set_tracer(self, tracer: Tracer) -> None:
        """Swap the tracer across every shard's storage stack."""
        self._tracer = tracer
        if self.shards is not None:
            for db in self.shards.values():
                db.set_tracer(tracer)

    def _live_shards(self) -> Dict[int, SubsequenceDatabase]:
        """The shards of a built, open database — or why there are none."""
        if self._closed:
            raise UsageError("sharded database used after close()")
        if self.shards is None:
            raise IndexNotBuiltError("call build() before querying")
        return self.shards

    def describe(self) -> Dict[str, object]:
        """Topology summary plus per-shard Table 2-style descriptions."""
        shards = self._live_shards()
        assert self.plan is not None
        return {
            "num_shards": self.num_shards,
            "policy": self.policy,
            "empty_shards": self.plan.empty_shards,
            "sequences": self.num_sequences,
            "shards": {index: db.describe() for index, db in shards.items()},
        }

    def reset_cache(self) -> None:
        """Cold-start every shard's buffer pool and I/O counters."""
        for db in self._live_shards().values():
            db.reset_cache()

    def inject_shard_failure(self, shard: int) -> None:
        """Chaos/test hook: make ``shard`` fail wholesale at query time.

        Subsequent queries treat the shard as crashed: ``on_fault=
        "raise"`` propagates a :class:`~repro.exceptions.StorageError`,
        ``"degrade"`` drops the shard and degrades the merged result
        with a 0.0 certificate.
        """
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        self._failed_shards.add(shard)

    def heal_shard(self, shard: int) -> None:
        """Undo :meth:`inject_shard_failure`."""
        self._failed_shards.discard(shard)

    # ------------------------------------------------------------------
    # Loading and building
    # ------------------------------------------------------------------

    def insert(self, sid: int, values: Sequence[float]) -> None:
        """Stage one data sequence.  Must precede :meth:`build`."""
        if self.shards is not None:
            raise ConfigurationError(
                "insert() after build() is not supported; create a new "
                "sharded database and rebuild"
            )
        if sid in self._staged:
            raise ConfigurationError(f"sequence {sid} already inserted")
        self._staged[sid] = values

    def build(self, psm: bool = False) -> None:
        """Partition the staged sequences and build every shard's index.

        Sequences are routed by the planner and inserted into their
        shard **in original insertion order**, so a one-shard database
        is bit-identical (page layout, I/O counts) to the unsharded
        equivalent.
        """
        if not self._staged:
            raise ConfigurationError("no sequences inserted before build()")
        plan = self.planner.plan(list(self._staged))
        shards: Dict[int, SubsequenceDatabase] = {}
        for sid, values in self._staged.items():
            index = plan.assignment[sid]
            db = shards.get(index)
            if db is None:
                db = self._make_shard(index)
                shards[index] = db
            db.insert(sid, values)
        for db in shards.values():
            db.build(psm=psm)
        self.plan = plan
        self.shards = dict(sorted(shards.items()))
        self._psm = psm
        self._staged = {}

    def _make_shard(self, index: int) -> SubsequenceDatabase:
        return SubsequenceDatabase(
            **self._shard_config,
            fault_injector=self._fault_injectors.get(index),
            retry_policy=self._retry_policy,
            tracer=self._tracer,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    # The one query path: spec + control -> fan-out -> merge
    # ------------------------------------------------------------------

    def _sources(
        self, spec: QuerySpec
    ) -> Tuple[List[Tuple[int, SubsequenceDatabase]], List[LostShard]]:
        """Every shard in shard order, and the injected failures among
        them under the shard-fault policy."""
        shards = self._live_shards()
        # One snapshot, taken before the first shard runs: a shard
        # injected or healed meanwhile must not be both lost and run, or
        # neither.
        failed = set(self._failed_shards)
        lost = [self._lose(index, spec) for index in shards if index in failed]
        return list(shards.items()), lost

    def _lose(self, index: int, spec: QuerySpec) -> LostShard:
        """Apply the shard-fault policy to an injected shard failure."""
        failure = StorageError(
            f"shard {index} failed (injected shard failure)"
        )
        if spec.on_fault != "degrade":
            raise failure
        return LostShard(shard=index, detail=str(failure))

    def run_query(
        self,
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
    ) -> SearchResult:
        """:meth:`QueryFacade.run_query`, then the per-shard metrics."""
        merged = super().run_query(query, spec, control)
        self._record_shard_metrics(merged.shard_stats)
        return merged

    def _record_shard_metrics(
        self, shard_stats: Dict[int, QueryStats]
    ) -> None:
        """Publish per-shard NUM_IO counters to the metrics registry.

        ``shard.<i>.page_accesses`` / ``shard.<i>.candidates`` sum to
        the merged result's counters by construction; the property
        suite pins that invariant and, for one shard, the golden
        table's unsharded values.
        """
        if not self._tracer.enabled:
            return
        metrics = self._tracer.metrics
        for index, stats in shard_stats.items():
            metrics.counter(f"shard.{index}.page_accesses").inc(
                stats.page_accesses
            )
            metrics.counter(f"shard.{index}.candidates").inc(
                stats.candidates
            )

    # ------------------------------------------------------------------
    # Persistence: shard manifest on top of format-v2
    # ------------------------------------------------------------------

    def save(self, directory: "os.PathLike[str] | str") -> None:
        """Persist the sharded database: manifest + per-shard format-v2.

        Crash-safe like the per-shard format, through the same commit
        (:func:`~repro.storage.persistence.save_directory_atomically`):
        everything lands in a temporary sibling, each shard directory is
        a complete format-v2 database, the ``SHARDS`` manifest is
        written last, and the root is atomically renamed into place.
        """
        self._live_shards()
        save_directory_atomically(
            directory, SHARD_MANIFEST_NAME, self._write_root
        )

    def _write_root(self, root: pathlib.Path) -> None:
        """Write every shard, then the ``SHARDS`` manifest, into ``root``."""
        assert self.shards is not None and self.plan is not None
        for index, db in self.shards.items():
            db.save(root / shard_dir_name(index))
        manifest = {
            "magic": SHARD_MANIFEST_MAGIC,
            "format": SHARD_FORMAT_VERSION,
            "num_shards": self.num_shards,
            "policy": self.policy,
            "psm": self._psm,
            "assignment": {
                str(sid): shard
                for sid, shard in self.plan.assignment.items()
            },
            "shard_dirs": {
                str(index): shard_dir_name(index) for index in self.shards
            },
            "config": self._shard_config,
        }
        with open(
            root / SHARD_MANIFEST_NAME, "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())

    @classmethod
    def load(
        cls,
        directory: "os.PathLike[str] | str",
        backend: str = "file",
    ) -> "ShardedDatabase":
        """Reconstruct a sharded database saved with :meth:`save`.

        Every shard reloads page-for-page, so a reloaded sharded
        database reproduces identical results *and* identical per-shard
        I/O counts.  ``backend`` applies to every shard.
        """
        root = pathlib.Path(directory)
        manifest_path = root / SHARD_MANIFEST_NAME
        if not manifest_path.exists():
            raise IntegrityError(
                f"{root} is not a sharded database (no "
                f"{SHARD_MANIFEST_NAME} manifest)"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("magic") != SHARD_MANIFEST_MAGIC:
            raise IntegrityError(f"{root}: bad shard manifest magic")
        if manifest.get("format") != SHARD_FORMAT_VERSION:
            raise IntegrityError(
                f"{root}: unsupported shard format "
                f"{manifest.get('format')!r}"
            )
        db = cls(
            num_shards=int(manifest["num_shards"]),
            policy=str(manifest["policy"]),
            backend=backend,
            **manifest["config"],
        )
        psm = bool(manifest.get("psm", False))
        shards: Dict[int, SubsequenceDatabase] = {}
        for index, name in sorted(
            (int(key), name) for key, name in manifest["shard_dirs"].items()
        ):
            # Names come from disk: only the canonical one is opened, so
            # nothing outside the root loads.
            expected = shard_dir_name(index)
            if not 0 <= index < db.num_shards or name != expected:
                raise IntegrityError(
                    f"{root}: manifest names {name!r} for shard {index} of "
                    f"{db.num_shards}; expected {expected!r}"
                )
            shards[index] = SubsequenceDatabase.load(
                root / expected, psm=psm, backend=backend
            )
        assignment = {
            int(sid): int(shard)
            for sid, shard in manifest["assignment"].items()
        }
        db.plan = ShardPlan(
            num_shards=db.num_shards,
            policy=db.policy,
            assignment=assignment,
        )
        db.shards = shards
        db._psm = psm
        return db

    def close(self) -> None:
        """Release each shard's map (idempotent).

        Later queries raise :class:`~repro.exceptions.UsageError`.
        """
        self._closed = True
        if self.shards is not None:
            for db in self.shards.values():
                db.close()
