"""Public facade: :class:`QueryFacade` and :class:`SubsequenceDatabase`.

:class:`QueryFacade` defines the query surface once — the keyword
methods, the tracer, the ``close()`` lifecycle — for every database
shape.  :class:`SubsequenceDatabase` is the one-index shape: one object
wires the whole stack together — paged storage, buffer pool, DualMatch
R*-tree index, and the five query engines — behind that API::

    from repro import SubsequenceDatabase

    db = SubsequenceDatabase(omega=64, features=4)
    db.insert(0, values)
    db.build()
    result = db.search(query, k=25, method="ru-cost", deferred=True)
    for match in result.matches:
        print(match.sid, match.start, match.distance)
    print(result.stats.candidates, result.stats.page_accesses)

Methods
-------
``method`` names accepted by :meth:`QueryFacade.search`:

========== ===========================================================
name       engine
========== ===========================================================
seqscan    LB_Keogh-filtered sequential scan
hlmj       global priority queue + MDMWP pruning (Han et al. [12])
hlmj-wg    hlmj + the window-group distance of [12] (tighter prune)
psm        progressive index merge + bloom signatures (Xin et al. [22])
ru         ranked union, max-delta queue selection (this paper)
ru-cost    ranked union, cost-aware density scheduling (this paper)
========== ===========================================================

``psm`` requires ``build(psm=True)``, which additionally builds the
FRM-style sliding-window index (the ``J = 1`` DualMatch index plus a
bloom filter) PSM joins over.
"""

from __future__ import annotations

import abc
import pathlib
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.control import (
    CancellationToken,
    Deadline,
    ExecutionControl,
    QueryBudget,
)
from repro.core.clock import Clock
from repro.core.metrics import QueryStats
from repro.core.results import Match
from repro.engines.base import (
    Engine,
    QuerySpec,
    RankedStream,
    SearchResult,
)
from repro.engines.hlmj import HlmjEngine
from repro.engines.psm import PsmEngine, build_sliding_index
from repro.engines.range_search import RangeSearchEngine
from repro.engines.ranked_union import MatchStream, RankedUnionEngine
from repro.engines.seqscan import SeqScanEngine
from repro.exceptions import ConfigurationError, IndexNotBuiltError
from repro.index.builder import DualMatchIndex, build_index
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.buffer import BufferPool, RetryPolicy
from repro.storage.faults import FaultInjector, FaultyPager
from repro.storage.page import PAGE_SIZE_DEFAULT, PageKind
from repro.storage.pager import Pager
from repro.storage.sequences import SequenceStore, check_backend, map_values

if TYPE_CHECKING:
    from repro.storage.persistence import PathLike

_Facade = TypeVar("_Facade", bound="QueryFacade")

#: ``name -> factory(index)`` for every
#: :data:`~repro.engines.base.METHODS` entry plus the ``"range"`` kind
#: (``psm`` takes the sliding index, not the DualMatch one).
_ENGINES: Dict[str, Callable[[DualMatchIndex], Engine]] = {
    "seqscan": SeqScanEngine,
    "hlmj": HlmjEngine,
    "hlmj-wg": lambda index: HlmjEngine(index, use_window_group=True),
    "psm": PsmEngine,
    "ru": RankedUnionEngine,
    "ru-cost": lambda index: RankedUnionEngine(index, method="ru-cost"),
    "range": RangeSearchEngine,
}


class QueryFacade(abc.ABC):
    """The public query surface, defined once for every database shape.

    A subclass supplies the two query entries — :meth:`run_query` (one
    ``knn`` / ``range`` spec to completion) and :meth:`open_stream` (one
    ``stream`` spec, lazily) — plus :meth:`set_tracer` and
    :meth:`close`, and the attributes ``omega``, ``p`` and ``_tracer``.
    Everything a caller types is written here over those: the keyword
    methods each build one :class:`~repro.engines.base.QuerySpec` and one
    :class:`~repro.control.ExecutionControl` and hand them to an entry
    unchanged.  :class:`SubsequenceDatabase` answers from one index;
    :class:`~repro.shard.ShardedDatabase` fans the same spec out and
    merges — the ranked union one level up, of which one shard is not a
    special case.

    Lifecycle: :meth:`close` releases what the facade holds (the mmap
    backend's map, the shard thread pool) and is idempotent;
    ``with facade: ...`` calls it on exit.  A facade that can still
    answer after ``close()`` does (the unsharded database falls back to
    heap pages); one that cannot raises
    :class:`~repro.exceptions.UsageError` ("... used after close()"),
    never the :class:`~repro.exceptions.IndexNotBuiltError`
    of a facade that was not built yet.
    """

    omega: int
    p: float
    _tracer: Tracer

    @property
    def tracer(self) -> Tracer:
        """The tracer observing this database's queries."""
        return self._tracer

    @abc.abstractmethod
    def set_tracer(self, tracer: Tracer) -> None:
        """Attach (or swap) the tracer across the whole stack."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release held resources.  Idempotent (see the class docstring)."""

    def __enter__(self: _Facade) -> _Facade:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @abc.abstractmethod
    def run_query(
        self,
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
    ) -> SearchResult:
        """Answer one ``knn`` or ``range`` spec to completion."""

    @abc.abstractmethod
    def open_stream(
        self,
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
    ) -> RankedStream:
        """Open one ``stream`` spec lazily."""

    def _control(
        self,
        budget: Optional[QueryBudget],
        deadline: Optional[Deadline],
        token: Optional[CancellationToken],
    ) -> ExecutionControl:
        """The control plane of one keyword call, on this facade's tracer."""
        return ExecutionControl(
            budget=budget, deadline=deadline, token=token,
            tracer=self._tracer,
        )

    def search(
        self,
        query: Sequence[float],
        k: int = 10,
        rho: Optional[int] = None,
        method: str = "ru-cost",
        deferred: bool = False,
        on_fault: str = "raise",
        budget: Optional[QueryBudget] = None,
        deadline: Optional[Deadline] = None,
        token: Optional[CancellationToken] = None,
        normalize: bool = False,
    ) -> SearchResult:
        """Find the ``k`` subsequences nearest to ``query`` under DTW.

        Parameters
        ----------
        query:
            Query sequence; must satisfy ``len >= omega + J - 1`` for
            the index's data stride ``J`` — ``2 * omega - 1`` by default,
            ``omega`` for ``method="psm"`` (whose index has ``J = 1``).
        k:
            Number of results.
        rho:
            Warping width; defaults to 5 % of the query length (the
            paper's setting).
        method:
            Engine name (see module docstring).
        deferred:
            Use the deferred retrieval mechanism (the "(D)" variants).
        on_fault:
            ``"raise"`` (default) propagates storage faults that survive
            buffer-pool retries; ``"degrade"`` skips unreadable pages,
            returns a well-formed top-k over what is readable, and flags
            the result ``degraded=True`` with a ``fault_report``.
        budget:
            Optional :class:`~repro.control.QueryBudget` capping page
            accesses and candidate evaluations for this query.
        deadline:
            Optional :class:`~repro.control.Deadline` bounding wall
            clock.
        token:
            Optional :class:`~repro.control.CancellationToken` the
            caller can cancel from outside.
        normalize:
            Match under z-normalized DTW: the query and every candidate
            are z-normalized (each by its own mean and standard
            deviation) before distances are computed.  Exact — the
            normalized lower bounds of :mod:`repro.core.normalize` keep
            the same sandwich guarantees as the raw ones — and the
            default raw path is byte-identical to before the flag
            existed.

        When any limit trips mid-query, the return value is a
        :class:`~repro.engines.base.PartialResult`: the best-k-so-far
        plus an exactness certificate bounding what was left unexamined.
        With no limits, behaviour (results and I/O counts) is identical
        to the pre-control-plane library.  A sharded database returns
        the unsharded answer byte for byte (under ``normalize`` too:
        candidates are normalized by their own rolling statistics) with
        the per-shard counters in ``shard_stats``.
        """
        spec = QuerySpec.for_query(
            query,
            rho,
            k=k,
            method=method,
            deferred=deferred,
            p=self.p,
            on_fault=on_fault,
            normalize=normalize,
        )
        control = self._control(budget, deadline, token)
        return self.run_query(query, spec, control)

    def search_scaled(
        self,
        query: Sequence[float],
        k: int = 10,
        scales: Sequence[float] = (0.5, 1.0, 2.0),
        rho_fraction: float = 0.05,
        method: str = "ru-cost",
        deferred: bool = False,
    ) -> SearchResult:
        """Top-k across several query scales (variable-length matching).

        The paper's remedy for matching subsequences of length
        ``l != Len(Q)``: the query is resampled to each scaled length,
        one ranked search runs per scale, and results merge under the
        length-normalised distance of :mod:`repro.core.scaling` (raw
        DTW grows with length, so unnormalised merging would always
        favour the shortest scale).  Matches keep their per-scale
        ``length``; ``Match.distance`` is the *normalised* value.

        Scales whose rounded length violates ``len >= 2*omega - 1`` are
        skipped; stats are summed over the scales actually run.
        """
        from repro.core.scaling import (
            normalized_distance,
            resample,
            scale_lengths,
        )

        lengths = scale_lengths(len(query), scales, self.omega)
        merged: List[Match] = []
        totals = QueryStats()
        for length in lengths:
            scaled_query = resample(query, length)
            rho = max(1, int(rho_fraction * length))
            result = self.search(
                scaled_query,
                k=k,
                rho=rho,
                method=method,
                deferred=deferred,
            )
            totals.merge(result.stats)
            for match in result.matches:
                merged.append(
                    Match(
                        distance=normalized_distance(
                            match.distance, length, self.p
                        ),
                        sid=match.sid,
                        start=match.start,
                        length=match.length,
                    )
                )
        merged.sort()
        return SearchResult(matches=merged[:k], stats=totals)

    def range_search(
        self,
        query: Sequence[float],
        epsilon: float,
        rho: Optional[int] = None,
        on_fault: str = "raise",
        budget: Optional[QueryBudget] = None,
        deadline: Optional[Deadline] = None,
        token: Optional[CancellationToken] = None,
        normalize: bool = False,
    ) -> SearchResult:
        """All subsequences within DTW distance ``epsilon`` of ``query``.

        The classical range subsequence matching query of the FRM /
        DualMatch lineage the paper builds on; exact under the banded
        DTW model.  Results are sorted best-first, with the same
        ``on_fault`` policy, fault reporting, budget / deadline /
        cancellation surface, and ``normalize`` semantics as
        :meth:`search`.
        """
        spec = QuerySpec.for_query(
            query,
            rho,
            kind="range",
            epsilon=epsilon,
            p=self.p,
            on_fault=on_fault,
            normalize=normalize,
        )
        control = self._control(budget, deadline, token)
        return self.run_query(query, spec, control)

    def iter_matches(
        self,
        query: Sequence[float],
        k: int = 10,
        rho: Optional[int] = None,
        method: str = "ru-cost",
        on_fault: str = "raise",
        budget: Optional[QueryBudget] = None,
        deadline: Optional[Deadline] = None,
        token: Optional[CancellationToken] = None,
        normalize: bool = False,
    ) -> RankedStream:
        """Stream up to ``k`` matches lazily, best first.

        Exposes the extended iterator model (Definition 5) directly:
        the ranked-union operator tree is pulled one ``GetNext()`` at a
        time, and each confirmed result is yielded as soon as its rank
        is settled — the first match typically arrives long before the
        k-th is resolved.  Consumers may stop early; no further index
        work happens after the stream is abandoned or closed.

        Returns a :class:`~repro.engines.base.RankedStream` — an
        iterator that, once exhausted or closed, holds the same result
        object :meth:`search` returns (``stream.result``, over the
        emitted prefix) and so surfaces the per-query
        :class:`~repro.core.metrics.QueryStats` and (under
        ``on_fault="degrade"``) the
        :class:`~repro.engines.base.FaultReport`.  A budget, deadline,
        or cancellation ends the stream early, leaving
        ``stream.interrupted`` set with the reason and exactness
        certificate.

        ``method`` is ``"ru-cost"`` (default) or ``"ru"``: the same
        two ranked-union engines :meth:`search` runs, and each stream
        emits exactly that method's top-``k``.  Any other method raises
        :class:`~repro.exceptions.ConfigurationError`.

        Non-deferred only (deferral batches retrievals, which is
        incompatible with incremental emission).  A sharded database
        emits from one ranked union over every shard's operators;
        emission is nondecreasing in ``(distance, sid, start)`` and
        byte-identical to the unsharded stream.
        """
        spec = QuerySpec.for_query(
            query,
            rho,
            kind="stream",
            k=k,
            method=method,
            p=self.p,
            on_fault=on_fault,
            normalize=normalize,
        )
        control = self._control(budget, deadline, token)
        return self.open_stream(query, spec, control)


class SubsequenceDatabase(QueryFacade):
    """A ranked subsequence matching database.

    Parameters
    ----------
    omega:
        Disjoint/sliding window size (paper default 64).
    features:
        PAA dimensionality ``f`` (must divide ``omega``).
    page_size:
        Simulated disk page size in bytes (paper: 4096).
    buffer_fraction:
        LRU buffer capacity as a fraction of the database's pages,
        applied when :meth:`build` runs (paper default 5 %).
    p:
        Norm order for all distances.
    data_stride:
        GeneralMatch data-window stride ``J`` (must divide ``omega``).
        Defaults to ``omega`` — the paper's DualMatch configuration.
        Smaller strides index more (overlapping) data windows in
        exchange for tighter per-class bounds; ``J = 1`` is the FRM
        end of the spectrum.
    fault_injector:
        Optional :class:`~repro.storage.faults.FaultInjector`; when
        given, the database runs on a
        :class:`~repro.storage.faults.FaultyPager` that injects the
        configured faults.  With no injector (or an empty one) results
        and I/O counts are identical to a plain pager.
    retry_policy:
        Optional :class:`~repro.storage.buffer.RetryPolicy` bounding
        how transient read failures are retried by the buffer pool.
    clock:
        Injectable :class:`~repro.core.clock.Clock` shared by retry
        backoff and injected latency faults.
        Defaults to the real monotonic clock; tests and the chaos
        harness inject a :class:`~repro.core.clock.FakeClock`.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When given (and enabled)
        every query records a structured span tree and metrics into it,
        and results carry a :class:`~repro.obs.QueryProfile`.  Defaults
        to the disabled null tracer — the untraced fast path is
        byte-identical to a database built without one.  Can be swapped
        later with :meth:`set_tracer`.
    backend:
        ``"file"`` keeps sequence values on the heap; ``"mmap"`` serves
        them from a read-only memory map once the database is built or
        loaded (:func:`~repro.storage.sequences.map_values`).  Results,
        page access counts and the saved format are the same under
        both.
    """

    def __init__(
        self,
        omega: int = 64,
        features: int = 4,
        page_size: int = PAGE_SIZE_DEFAULT,
        buffer_fraction: float = 0.05,
        p: float = 2.0,
        data_stride: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        tracer: Optional[Tracer] = None,
        backend: str = "file",
    ) -> None:
        if not 0 < buffer_fraction <= 1:
            raise ConfigurationError(
                f"buffer_fraction must be in (0, 1], got {buffer_fraction}"
            )
        self.omega = omega
        self.features = features
        self.data_stride = omega if data_stride is None else data_stride
        self.p = p
        self.buffer_fraction = buffer_fraction
        self.clock = clock
        self.backend = check_backend(backend)
        self._detach: Optional[Callable[[], None]] = None
        self.pager: Pager = (
            Pager(page_size)
            if fault_injector is None
            else FaultyPager(page_size, fault_injector, clock)
        )
        self.buffer = BufferPool(
            self.pager,
            capacity_pages=1,
            retry_policy=retry_policy,
            clock=clock,
        )
        self.store = SequenceStore(self.pager, self.buffer)
        self.index: Optional[DualMatchIndex] = None
        self._sliding_index = None
        self._wal = None
        self._durable_root = None
        self._last_applied_lsn = 0
        self._tracer = NULL_TRACER
        self.set_tracer(tracer if tracer is not None else NULL_TRACER)

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach (or swap) the tracer across the whole storage stack.

        Propagates to the pager, the buffer pool, and — via the shared
        buffer — the R*-tree and every engine constructed afterwards,
        so one call flips the entire plane on or off.
        """
        self._tracer = tracer
        self.pager.tracer = tracer
        self.buffer.tracer = tracer
        if self._wal is not None:
            self._wal.tracer = tracer

    def close(self) -> None:
        """Release the mmap backend's map and scratch file.  Idempotent.

        The database stays usable afterwards: still-mapped values are
        copied back to the heap before unmapping, and new queries run
        on heap pages.
        """
        detach, self._detach = self._detach, None
        if detach is not None:
            detach()

    def _seal(self) -> None:
        """Put the page file in its query-serving state.

        Under ``backend="mmap"`` the values move into a fresh map first,
        so the checksums snapshot the payloads queries will read.
        ``build()`` and ``load()`` both end here.
        """
        if self.backend == "mmap":
            self.close()
            self._detach = map_values(self.store)
        self.pager.seal()

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The active fault injector, if the pager is a faulty one."""
        return getattr(self.pager, "injector", None)

    # ------------------------------------------------------------------
    # Loading and building
    # ------------------------------------------------------------------

    def insert(self, sid: int, values: Sequence[float]) -> None:
        """Add one data sequence.  Must precede :meth:`build`."""
        if self.index is not None:
            raise ConfigurationError(
                "insert() after build() is not supported; create a new "
                "database and rebuild"
            )
        self.store.add_sequence(sid, values)

    def build(self, psm: bool = False) -> None:
        """Build the DualMatch index (and optionally PSM's sliding index).

        Also sizes the LRU buffer to ``buffer_fraction`` of the final
        page count and clears it, so searches start from a cold cache.
        """
        if self.store.num_sequences == 0:
            raise ConfigurationError("no sequences inserted before build()")
        self.index = build_index(
            self.store,
            omega=self.omega,
            features=self.features,
            p=self.p,
            data_stride=self.data_stride,
        )
        if psm:
            self._sliding_index = build_sliding_index(
                self.store, omega=self.omega, features=self.features, p=self.p
            )
        # Snapshot per-page checksums so every later fetch is verified.
        self._seal()
        self.resize_buffer(self.buffer_fraction)
        self.reset_cache()

    def resize_buffer(self, fraction: float) -> None:
        """Re-size the buffer pool to a fraction of all allocated pages."""
        if not 0 < fraction <= 1:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        self.buffer_fraction = fraction
        capacity = max(1, int(self.pager.num_pages * fraction))
        self.buffer.resize(capacity)

    def reset_cache(self) -> None:
        """Empty the buffer pool and zero the I/O counters (cold start)."""
        self.buffer.clear()
        self.buffer.stats.reset()
        self.pager.stats.reset()

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------

    def _engine(self, name: str) -> Engine:
        """A fresh engine ``name``: a ``METHODS`` entry or ``"range"``.

        Engines hold nothing but a reference to their index, so one is
        built per query and threads share none.
        """
        if self.index is None:
            raise IndexNotBuiltError("call build() before querying")
        index = self._sliding_index if name == "psm" else self.index
        if index is None:
            raise IndexNotBuiltError(
                "psm requires build(psm=True) for the sliding index"
            )
        return _ENGINES[name](index)

    def run_query(
        self,
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
    ) -> SearchResult:
        """Answer one ``knn`` or ``range`` spec.

        The sharded fan-out and the query service call it with a spec
        they built themselves.
        """
        engine = self._engine(
            "range" if spec.kind == "range" else spec.method
        )
        return engine.search(query, spec, control)

    def open_stream(
        self,
        query: Sequence[float],
        spec: QuerySpec,
        control: ExecutionControl,
    ) -> MatchStream:
        """Open one ``stream`` spec lazily."""
        if self.index is None:
            raise IndexNotBuiltError("call build() before iter_matches()")
        return MatchStream(self.index, query, spec, control)

    # ------------------------------------------------------------------
    # Online ingest (WAL-backed; see :mod:`repro.ingest`)
    # ------------------------------------------------------------------

    @property
    def wal(self):
        """The attached write-ahead log, if this database is durable."""
        return self._wal

    @property
    def durable_root(self):
        """Durable root directory (checkpoint + WAL), if attached."""
        return self._durable_root

    def attach_wal(self, wal, root=None) -> None:
        """Attach a :class:`~repro.storage.wal.WriteAheadLog`.

        Usually called by :func:`repro.ingest.create_durable` /
        :func:`repro.ingest.recover_database` rather than directly.
        The log inherits this database's tracer.
        """
        self._wal = wal
        self._durable_root = None if root is None else pathlib.Path(root)
        wal.tracer = self._tracer

    def ingest(self):
        """Open a WAL-logged mutation session against the built database.

        Use as a context manager; mutations group-commit (one fsync) on
        clean exit.  Without an attached WAL the session applies
        in-memory only (no durability).
        """
        from repro.ingest import IngestSession

        return IngestSession(self, self._wal)

    def append_sequence(self, sid: int, values: Sequence[float]):
        """Add one new sequence online, as a single committed session."""
        with self.ingest() as session:
            session.append(sid, values)
        return session.commit_lsn

    def extend_sequence(self, sid: int, values: Sequence[float]):
        """Append values to a stored sequence, as one committed session."""
        with self.ingest() as session:
            session.extend(sid, values)
        return session.commit_lsn

    def delete_sequence(self, sid: int):
        """Delete a stored sequence, as a single committed session."""
        with self.ingest() as session:
            session.delete(sid)
        return session.commit_lsn

    def checkpoint(self) -> int:
        """Checkpoint the durable root and truncate the WAL."""
        from repro.ingest import checkpoint_database

        return checkpoint_database(self)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: "PathLike") -> None:
        """Persist the built database to a directory.

        See :mod:`repro.storage.persistence` for the format; a reloaded
        database reproduces identical results *and* identical page
        access counts.
        """
        from repro.storage.persistence import save_database

        save_database(self, directory)

    @classmethod
    def load(
        cls,
        directory: "PathLike",
        psm: bool = False,
        backend: str = "file",
    ) -> "SubsequenceDatabase":
        """Reconstruct a database saved with :meth:`save`.

        ``backend`` is as for the constructor; a save loads under
        either.
        """
        from repro.storage.persistence import load_database

        return load_database(directory, psm=psm, backend=backend)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, float]:
        """Shape of the stored data and index (Table 2-style summary)."""
        if self.index is None:
            raise IndexNotBuiltError("call build() before describe()")
        summary = self.index.describe()
        summary["buffer_pages"] = self.buffer.capacity
        summary["total_pages"] = self.pager.num_pages
        return summary

    def verify_integrity(self) -> Dict[str, object]:
        """Scrub the built database: checksums plus counter invariants.

        Walks every page verifying its CRC32, validates the R*-tree
        structure, and cross-checks the storage counters (sequence
        placement versus allocated data pages, tree size versus leaf
        records).  Returns a report dict whose ``"ok"`` key is ``True``
        only when everything holds; the ``scrub`` CLI prints it.
        """
        if self.index is None:
            raise IndexNotBuiltError("call build() before verify_integrity()")
        report: Dict[str, object] = {
            "pages": self.pager.num_pages,
            "sealed": self.pager.sealed,
            "corrupt_pages": self.pager.verify_all(),
            "tree_errors": [],
            "counter_errors": [],
        }
        try:
            self.index.tree.check_invariants()
        except Exception as error:  # noqa: BLE001 — scrub reports, not raises
            report["tree_errors"] = [f"{type(error).__name__}: {error}"]

        counter_errors: List[str] = []
        histogram = self.pager.kind_histogram()
        data_pages = histogram.get(PageKind.DATA, 0)
        if data_pages != self.store.total_data_pages:
            counter_errors.append(
                f"data pages allocated ({data_pages}) != sequence "
                f"placement total ({self.store.total_data_pages})"
            )
        for sid in self.store.sequence_ids():
            meta = self.store.meta(sid)
            expected = -(-meta.length // self.store.values_per_page)
            if meta.num_pages != expected:
                counter_errors.append(
                    f"sequence {sid}: {meta.num_pages} pages recorded, "
                    f"{expected} required for {meta.length} values"
                )
            for page_id in meta.pages:
                if self.pager.kind_of(page_id) != PageKind.DATA:
                    counter_errors.append(
                        f"sequence {sid}: page {page_id} is "
                        f"{self.pager.kind_of(page_id).value}, expected data"
                    )
                    break
        if not report["tree_errors"]:  # the walk needs a sound tree
            leaf_records = sum(
                len(leaf.refs) for leaf in self.index.tree.iter_leaves()
            )
            if leaf_records != len(self.index.tree):
                counter_errors.append(
                    f"leaf records ({leaf_records}) != tree size "
                    f"({len(self.index.tree)})"
                )
        report["counter_errors"] = counter_errors
        report["ok"] = (
            not report["corrupt_pages"]
            and not report["tree_errors"]
            and not counter_errors
        )
        return report
