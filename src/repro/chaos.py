"""Chaos / metamorphic exactness harness (``python -m repro chaos``).

Every guarantee this library makes is a *relation* between runs — an
engine agrees with brute force, a degraded run under-reports but never
lies, a partial result's certificate is sound — which makes the whole
stack checkable metamorphically: generate seeded random databases and
queries, run randomized-but-reproducible combinations of fault
schedules x budgets x deadlines x cancellation across all engines, and
cross-check the relations against SeqScan-equivalent ground truth
(:func:`repro.core.reference.brute_force_topk`).

Each iteration draws a *world* (:class:`_Iteration`): an unsharded
:class:`~repro.api.SubsequenceDatabase` or a 2-4 shard
:class:`~repro.shard.ShardedDatabase` (topology), raw or z-normalized
matching (normalize), and ``"file"`` or ``"mmap"`` storage (backend).
Every suite builds through :meth:`_Iteration.build_db` and checks
against one brute-force oracle over the world's raw sequences.  A
scenario's faults, retries, limits and fault policy come from one
adversity table, ``_ADVERSITY``; a sharded world takes the faults on a
random non-empty subset of shards, and its merged ``NUM_IO`` must equal
the per-shard sum.

``parity``
    No faults, no limits: every engine must agree with brute force
    exactly, and a run under an *unlimited* :class:`ExecutionControl`
    must be byte-identical (top-k and ``NUM_IO``) to a run with no
    control at all — the control plane must cost nothing when unused.
    One range query must equal the range oracle, and one stream must
    equal brute force with nondecreasing emission.
``budget-pages`` / ``budget-candidates`` / ``deadline`` / ``cancel``
    A limit that may trip mid-query.  Completed runs must be exact;
    interrupted runs must return a :class:`~repro.engines.base.
    PartialResult` whose certificate is *sound*: no ground-truth top-k
    member strictly below the certified bar may be missing from the
    partial answer, every reported distance must be the true distance,
    and ranked prefixes may never beat brute force.  An interrupted
    stream must stay ranked and certified.
``faults-transient``
    Injected transient read failures within the retry budget: the run
    must recover, complete and stay *exact* (faults are invisible to
    results).
``faults-degrade``
    Permanently corrupted data pages under ``on_fault="degrade"``:
    results must be well-formed, honestly flagged, and every reported
    distance must still be a true distance (degradation may omit,
    never fabricate); a run not flagged degraded must be exact.
``faults-exhausted``
    Transient read failures on data pages frequent enough to outlast a
    two-attempt retry budget, under ``on_fault="degrade"``: the query
    must complete, possibly degraded, and never fabricate a distance.
``shard-crash`` (sharded worlds only)
    One shard fails wholesale.  Under ``raise`` the crash propagates as
    ``StorageError``; under ``degrade`` the survivors answer with a
    :class:`~repro.engines.base.PartialResult` carrying the vacuous
    certificate ``0.0``, exact for the surviving sequences, and the
    stream degrades to the same matches.

All randomness flows from ``random.Random(f"{seed}:{iteration}")``, a
seeded deck of ``(scenario, topology)`` cells and ``numpy`` generators
seeded from them, so a failing iteration replays exactly from its
printed seed.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
from collections import Counter
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import SubsequenceDatabase
from repro.control import CancellationToken, Deadline, QueryBudget
from repro.core.clock import FakeClock
from repro.core.reference import brute_force_range, brute_force_topk
from repro.core.results import Match
from repro.engines.base import (
    RANKED_UNION_METHODS,
    PartialResult,
    QuerySpec,
    SearchResult,
)
from repro.exceptions import (
    ReproError,
    ServiceOverloadedError,
    StorageError,
)
from repro.ingest import create_durable, recover_database
from repro.serve.protocol import QueryRequest
from repro.serve.service import QueryService, ServiceConfig
from repro.shard import POLICIES, REASON_SHARD_LOST, ShardedDatabase
from repro.storage.buffer import BufferPool, RetryPolicy
from repro.storage.faults import (
    CORRUPT,
    TRANSIENT,
    FaultInjector,
    FaultSpec,
)
from repro.storage.page import PageKind
from repro.storage.pager import Pager
from repro.storage.sequences import BACKENDS, SequenceStore
from repro.storage.wal import SimulatedCrash

#: Distance slack for float comparisons (DTW sums differ across
#: evaluation orders by strictly less than this on these data sizes).
_EPS = 1e-6

#: Every engine each suite runs; ``psm`` joins when the world built it.
_ENGINES = ("seqscan", "hlmj", "hlmj-wg", "ru", "ru-cost")


def _stream_method(engine: str) -> str:
    """The method a stream runs for a drawn ``engine``: itself if it is
    ranked union, else ``ru`` / ``ru-cost`` by list position parity."""
    if engine in RANKED_UNION_METHODS:
        return engine
    return RANKED_UNION_METHODS[(_ENGINES + ("psm",)).index(engine) % 2]


_Draw = Callable[[random.Random], Dict[str, Any]]

_DATA = frozenset({PageKind.DATA})


@dataclass(frozen=True)
class _Adversity:
    """What one scenario does to a world, and what its runs must keep."""

    #: Draws the :class:`FaultSpec` keywords; ``None`` injects nothing.
    faults: Optional[_Draw] = None
    #: The buffer's retry policy (``None``: the default one).
    retry: Optional[RetryPolicy] = None
    #: Draws one query's ``budget`` / ``deadline`` / ``token``.
    limits: _Draw = lambda rng: {}
    #: Under ``"degrade"`` a run that completes may omit matches; under
    #: ``"raise"`` it must be exact.
    on_fault: str = "raise"


_CALM = _Adversity()

_ADVERSITY: Dict[str, _Adversity] = {
    "parity": _CALM,
    "budget-pages": _Adversity(
        limits=lambda rng: {
            "budget": QueryBudget(max_page_accesses=rng.randint(0, 40))
        }
    ),
    "budget-candidates": _Adversity(
        limits=lambda rng: {
            "budget": QueryBudget(max_candidates=rng.randint(0, 60))
        }
    ),
    "deadline": _Adversity(
        limits=lambda rng: {
            "deadline": Deadline.after(
                rng.uniform(0.0, 0.2), clock=FakeClock(auto_advance=0.001)
            )
        }
    ),
    "cancel": _Adversity(
        limits=lambda rng: {
            "token": CancellationToken(
                cancel_after_checks=rng.randint(0, 200)
            )
        }
    ),
    # The per-page fault budget stays below the attempt budget, so every
    # injected failure is recoverable and results must be exact.
    "faults-transient": _Adversity(
        faults=lambda rng: {
            "fault": TRANSIENT,
            "probability": rng.uniform(0.05, 0.3),
            "max_per_page": 2,
        },
        retry=RetryPolicy(max_attempts=4),
    ),
    "faults-degrade": _Adversity(
        faults=lambda rng: {
            "fault": CORRUPT,
            "page_kinds": _DATA,
            "probability": 1.0,
            "max_triggers": rng.randint(1, 3),
        },
        on_fault="degrade",
    ),
    "faults-exhausted": _Adversity(
        faults=lambda rng: {
            "fault": TRANSIENT,
            "page_kinds": _DATA,
            "probability": 0.8,
        },
        retry=RetryPolicy(max_attempts=2),
        on_fault="degrade",
    ),
    "shard-crash": _Adversity(on_fault="degrade"),
}

SCENARIOS = tuple(_ADVERSITY)

#: Scenarios drawn only for sharded worlds.
_SHARDED_ONLY = ("shard-crash",)

TOPOLOGIES = ("unsharded", "sharded")


@dataclass
class ChaosFailure:
    """One violated invariant, with enough context to replay it."""

    iteration: int
    scenario: str
    engine: str
    message: str

    def __str__(self) -> str:
        return (
            f"iteration {self.iteration} [{self.scenario}/{self.engine}]: "
            f"{self.message}"
        )


@dataclass
class ChaosReport:
    """Outcome of one campaign."""

    seed: int
    iterations: int = 0
    #: Invariant checks evaluated (each engine x relation counts one).
    checks: int = 0
    #: Queries that returned a PartialResult (interrupt paths covered).
    partials: int = 0
    #: Iterations per ``(scenario, topology)``.
    cell_counts: "Counter[Tuple[str, str]]" = field(default_factory=Counter)
    #: Iterations per value of each world axis: ``"unsharded"`` /
    #: ``"sharded"``, ``"raw"`` / ``"z-norm"``, ``"file"`` / ``"mmap"``.
    axis_counts: "Counter[str]" = field(default_factory=Counter)
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def scenario_counts(self) -> "Counter[str]":
        """Iterations per scenario, over both topologies."""
        counts: "Counter[str]" = Counter()
        for (scenario, _), count in self.cell_counts.items():
            counts[scenario] += count
        return counts

    def record(self, it: Any, engine: str, message: Optional[str]) -> None:
        """Count one invariant check of iteration ``it``; a non-``None``
        ``message`` is a violation."""
        self.checks += 1
        if message is not None:
            self.failures.append(
                ChaosFailure(
                    iteration=it.iteration,
                    scenario=it.scenario,
                    engine=engine,
                    message=message,
                )
            )

    def count(self, it: "_Iteration") -> None:
        """Tally one finished iteration's scenario and world."""
        self.iterations += 1
        self.cell_counts[(it.scenario, it.topology)] += 1
        self.axis_counts.update(it.axes)


class _Iteration:
    """One seeded world + scenario + query, shared across engines.

    ``stream`` tags the suite's private seed stream (``""``,
    ``"serve:"``, ``"ingest:"``), ``salt`` separates the numpy
    generator, ``sharding`` lets the world be sharded, and only suites
    with ``psm`` draw for a PSM index.  The ``(scenario, topology)``
    cell is dealt from a seeded shuffle of every cell, one deck per
    block of iterations, so any run a deck long covers each cell.
    """

    def __init__(
        self,
        seed: int,
        iteration: int,
        stream: str = "",
        scenarios: Tuple[str, ...] = SCENARIOS,
        salt: int = 0xC4A05,
        sharding: bool = True,
        psm: bool = True,
    ) -> None:
        self.iteration = iteration
        self.rng = random.Random(f"{seed}:{stream}{iteration}")
        cells = [
            (scenario, topology)
            for topology in (TOPOLOGIES if sharding else TOPOLOGIES[:1])
            for scenario in scenarios
            if topology == "sharded" or scenario not in _SHARDED_ONLY
        ]
        block, position = divmod(iteration, len(cells))
        random.Random(f"{seed}:{stream}deck{block}").shuffle(cells)
        self.scenario, self.topology = cells[position]
        self.num_shards = 0
        if self.topology == "sharded":
            self.num_shards = self.rng.randint(2, 4)
            self.policy = self.rng.choice(POLICIES)
        self.normalize = self.rng.random() < 0.5
        self.backend = self.rng.choice(BACKENDS)
        self.omega = self.rng.choice((8, 16))
        # PSM's join blows up under z-normalization's loose node bounds
        # (20-40k index-node reads per query on these worlds, ~100x a
        # raw one), so only raw worlds build its index.
        self.with_psm = (
            psm and not self.normalize and self.rng.random() < 0.25
        )
        self.np_rng = np.random.default_rng(
            [seed & 0x7FFFFFFF, iteration, salt]
        )
        # A sharded world holds one more, shorter sequence to spread.
        count, low, high = (
            (3, 250, 550) if self.num_shards else (2, 280, 700)
        )
        pager = Pager(1024)
        #: The raw sequences: what every database and the oracle hold.
        self.sequences = SequenceStore(
            pager, BufferPool(pager, capacity_pages=1)
        )
        for sid in range(count):
            length = int(self.np_rng.integers(low, high))
            values = self.np_rng.standard_normal(length).cumsum()
            self.sequences.add_sequence(sid, values)
        #: The fault injectors of the last :meth:`build_db`.
        self.injectors: List[FaultInjector] = []
        #: Every database built for this iteration; the campaign closes
        #: them (the mmap backend's scratch files go with them).
        self.opened: List[Any] = []

    @property
    def axes(self) -> Tuple[str, str, str]:
        return (
            self.topology,
            "z-norm" if self.normalize else "raw",
            self.backend,
        )

    def build_db(self, adversity: _Adversity = _CALM) -> Any:
        """The world's database, with ``adversity``'s fault schedule on
        the whole of an unsharded one or on a random non-empty subset of
        a sharded one's shards."""
        injectors: Dict[int, FaultInjector] = {}
        if adversity.faults is not None:
            spec = adversity.faults(self.rng)
            while not injectors:
                for shard in range(max(1, self.num_shards)):
                    if not self.num_shards or self.rng.random() < 0.6:
                        injector = FaultInjector(
                            seed=self.rng.randrange(2**31)
                        )
                        injector.add(FaultSpec(**spec))
                        injectors[shard] = injector
        self.injectors = list(injectors.values())
        config: Dict[str, Any] = dict(
            omega=self.omega, features=4, page_size=1024,
            buffer_fraction=0.1, backend=self.backend,
            retry_policy=adversity.retry,
        )
        db: Any
        if self.num_shards:
            db = ShardedDatabase(
                num_shards=self.num_shards,
                policy=self.policy,
                fault_injectors=injectors,
                **config,
            )
        else:
            db = SubsequenceDatabase(
                fault_injector=injectors.get(0), **config
            )
        for injector in self.injectors:
            injector.enabled = False  # keep the build phase clean
        for sid, values in self.sequences.iter_sequences():
            db.insert(sid, values)
        db.build(psm=self.with_psm)
        for injector in self.injectors:
            injector.enabled = True
        self.opened.append(db)
        return db

    def make_query(self) -> np.ndarray:
        min_len = 2 * self.omega - 1
        length = int(self.rng.randint(min_len, min_len + 2 * self.omega))
        # Round down to a multiple of omega so PSM's disjoint join
        # windows tile the query exactly; still >= min_len.
        length = max(min_len, (length // self.omega) * self.omega)
        if self.rng.random() < 0.5:
            sid = self.rng.choice(self.sequences.sequence_ids())
            values = self.sequences.peek_full_sequence(sid)
            start = self.rng.randint(0, values.size - length)
            return values[start : start + length].copy()
        return self.np_rng.standard_normal(length).cumsum()

    def gold(
        self, query: np.ndarray, rho: int, p: float
    ) -> Tuple[List[Match], Dict[Tuple[int, int], float]]:
        """Every subsequence by true distance, and its lookup table."""
        gold = brute_force_topk(
            self.sequences, query, 10**6, rho, p=p, normalize=self.normalize
        )
        return gold, {(m.sid, m.start): m.distance for m in gold}

    def engines(self) -> Tuple[str, ...]:
        if self.with_psm:
            return _ENGINES + ("psm",)
        return _ENGINES


def _check_reported_distances(
    result: SearchResult, truth: Dict[Tuple[int, int], float]
) -> Optional[str]:
    """Every reported match must be a real subsequence at its true
    distance — no run, however degraded or interrupted, may fabricate."""
    for match in result.matches:
        true_distance = truth.get((match.sid, match.start))
        if true_distance is None:
            return (
                f"match ({match.sid},{match.start}) does not exist in "
                f"ground truth"
            )
        if abs(match.distance - true_distance) > _EPS:
            return (
                f"match ({match.sid},{match.start}) reported "
                f"{match.distance:.9f}, true {true_distance:.9f}"
            )
    for first, second in zip(result.matches, result.matches[1:]):
        if second.distance < first.distance - _EPS:
            return "matches are not sorted best-first"
    return None


def _check_prefix(
    result: SearchResult, gold: List[Match]
) -> Optional[str]:
    """The i-th best reported distance can never beat the i-th best
    true distance (reported distances are true, so beating brute force
    is impossible for an honest run)."""
    for position, match in enumerate(result.matches):
        if position < len(gold):
            if match.distance < gold[position].distance - _EPS:
                return (
                    f"rank {position} reports {match.distance:.9f}, "
                    f"better than brute force "
                    f"{gold[position].distance:.9f}"
                )
    return None


def _check_exact(
    result: SearchResult, gold: List[Match], k: int
) -> Optional[str]:
    """Top-k distances must equal brute force exactly (ties by value)."""
    expected = [round(match.distance, 6) for match in gold[:k]]
    got = [round(match.distance, 6) for match in result.matches]
    if got != expected:
        return f"top-k distances {got} != brute force {expected}"
    return None


def _check_certificate(
    partial: PartialResult, gold: List[Match], k: int
) -> Optional[str]:
    """Certificate soundness (the heart of the harness).

    The contract: any candidate missing from the partial answer has
    true distance >= min(certificate, k-th reported distance).  So
    every ground-truth top-k member strictly below that bar must be
    present.  Members at or beyond the bar may legitimately be missing
    (they were unexamined, or displaced only by ties).
    """
    bar = partial.certificate
    if len(partial.matches) >= k:
        bar = min(bar, partial.matches[-1].distance)
    reported = {(match.sid, match.start) for match in partial.matches}
    for gold_match in gold[:k]:
        if gold_match.distance >= bar - _EPS:
            continue
        if (gold_match.sid, gold_match.start) not in reported:
            return (
                f"gold match ({gold_match.sid},{gold_match.start}) at "
                f"{gold_match.distance:.9f} is below the certified bar "
                f"{bar:.9f} but missing from the partial result "
                f"(reason={partial.reason!r}, "
                f"certificate={partial.certificate:.9f})"
            )
    return None


def _judge(
    report: ChaosReport,
    it: Any,
    label: str,
    result: SearchResult,
    gold: List[Match],
    truth: Dict[Tuple[int, int], float],
    k: int,
    complete_is_exact: bool = True,
) -> None:
    """The verdict on one possibly interrupted or degraded answer.

    Reported distances are true and never beat brute force; a partial
    then carries a sound certificate and a reason, and a complete run
    is exact unless ``complete_is_exact`` is false (a flagged-degraded
    or budget-squeezed run may legitimately omit).
    """
    report.record(it, label, _check_reported_distances(result, truth))
    report.record(it, label, _check_prefix(result, gold))
    if isinstance(result, PartialResult):
        report.partials += 1
        report.record(it, label, _check_certificate(result, gold, k))
        report.record(
            it,
            label,
            None if result.reason else "partial result carries no reason",
        )
    elif complete_is_exact:
        report.record(it, label, _check_exact(result, gold, k))


def _campaign(
    seed: int,
    iterations: int,
    progress: Optional[Callable[[str], None]],
    make_iteration: Callable[[int, int], Any],
    run_iteration: Callable[[Any, ChaosReport], None],
) -> ChaosReport:
    """The one campaign loop: seed an iteration, run it, count it.

    ``run_iteration`` may refine ``it.scenario`` (the ingest suite only
    learns its crash point while running), so the scenario is counted
    after the iteration returns.
    """
    report = ChaosReport(seed=seed)
    for iteration in range(iterations):
        it = make_iteration(seed, iteration)
        if progress is not None:
            progress(
                f"iteration {iteration}: {it.scenario} "
                f"({', '.join(it.axes)})"
            )
        try:
            run_iteration(it, report)
        finally:
            for db in it.opened:
                db.close()
        report.count(it)
    return report


def run_chaos(
    seed: int = 0,
    iterations: int = 100,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the search campaign over every world and return its report."""
    return _campaign(seed, iterations, progress, _Iteration, _run_iteration)


def _num_io_message(result: SearchResult) -> Optional[str]:
    merged = result.stats.page_accesses
    parts = sum(
        stats.page_accesses for stats in result.shard_stats.values()
    )
    if merged != parts:
        return f"merged NUM_IO {merged} != per-shard sum {parts}"
    return None


def _judge_run(
    report: ChaosReport,
    it: _Iteration,
    label: str,
    result: SearchResult,
    gold: List[Match],
    truth: Dict[Tuple[int, int], float],
    k: int,
) -> None:
    """:func:`_judge` under the iteration's adversity: a complete run
    must be exact under ``raise`` or when not flagged degraded, and a
    parity or recoverable-fault run may never come back partial."""
    raising = _ADVERSITY[it.scenario].on_fault == "raise"
    _judge(
        report, it, label, result, gold, truth, k,
        complete_is_exact=raising or not result.degraded,
    )
    if it.scenario in ("parity", "faults-transient"):
        partial = isinstance(result, PartialResult)
        report.record(it, label, "run is partial" if partial else None)


def _check_stream(
    emitted: List[Match], result: Optional[SearchResult]
) -> Optional[str]:
    """A finished stream emitted, in rank order, exactly the matches its
    result reports."""
    keys = [(m.distance, m.sid, m.start) for m in emitted]
    if keys != sorted(keys):
        return "stream emission is not nondecreasing"
    if result is None or emitted != result.matches:
        return "stream emitted != its result"
    return None


def _run_iteration(it: _Iteration, report: ChaosReport) -> None:
    adversity = _ADVERSITY[it.scenario]
    db = it.build_db(adversity)
    k = it.rng.randint(1, 8)
    query = it.make_query()
    rho = max(1, len(query) // 20)
    gold, truth = it.gold(query, rho, db.p)
    base: Dict[str, Any] = {"k": k, "rho": rho, "normalize": it.normalize}

    if it.scenario == "shard-crash":
        _crash_shard(it, report, db, query, base, gold, truth)
        return

    deferred_ok = it.rng.random() < 0.4
    for engine in it.engines():
        kwargs = dict(
            base,
            method=engine,
            deferred=deferred_ok and engine not in ("seqscan", "psm"),
        )
        db.reset_cache()
        result = db.search(
            query,
            on_fault=adversity.on_fault,
            **adversity.limits(it.rng),
            **kwargs,
        )
        _judge_run(report, it, engine, result, gold, truth, k)
        if it.num_shards:
            report.record(it, engine, _num_io_message(result))

        if it.scenario == "parity":
            # The control plane must be invisible when unlimited:
            # identical top-k and identical NUM_IO from a cold cache.
            db.reset_cache()
            controlled = db.search(query, budget=QueryBudget(), **kwargs)
            same = [m.distance for m in controlled.matches] == [
                m.distance for m in result.matches
            ] and (
                controlled.stats.page_accesses
                == result.stats.page_accesses
            )
            report.record(
                it,
                engine,
                None
                if same
                else (
                    f"unlimited-control run diverged: "
                    f"{controlled.stats.page_accesses} pages vs "
                    f"{result.stats.page_accesses}"
                ),
            )

    if it.scenario == "parity":
        # A range query answers from the same oracle as top-k.  The
        # nudge keeps the k-th match in range across the root's rounding.
        epsilon = gold[min(k, len(gold)) - 1].distance * (1 + 1e-12)
        want = brute_force_range(
            it.sequences, query, epsilon, rho, p=db.p,
            normalize=it.normalize,
        )
        ranged = db.range_search(
            query, epsilon=epsilon, rho=rho, normalize=it.normalize
        )
        report.record(it, "range", _check_reported_distances(ranged, truth))
        got_keys = sorted(match.key() for match in ranged.matches)
        want_keys = sorted(match.key() for match in want)
        report.record(
            it,
            "range",
            None
            if got_keys == want_keys
            else f"range {got_keys} != range oracle {want_keys}",
        )
        if it.num_shards:
            report.record(it, "range", _num_io_message(ranged))

    # The stream under the same adversity: its emission stays ranked,
    # and its result is judged like a search's.  Iterations alternate
    # the two ranked-union methods.
    method = RANKED_UNION_METHODS[it.iteration % len(RANKED_UNION_METHODS)]
    label = f"stream/{method}"
    stream = db.iter_matches(
        query, method=method, on_fault=adversity.on_fault,
        **adversity.limits(it.rng), **base,
    )
    emitted = list(stream)
    assert stream.result is not None  # set by exhaustion
    report.record(it, label, _check_stream(emitted, stream.result))
    _judge_run(report, it, label, stream.result, gold, truth, k)


def _crash_shard(
    it: _Iteration,
    report: ChaosReport,
    db: ShardedDatabase,
    query: np.ndarray,
    base: Dict[str, Any],
    gold: List[Match],
    truth: Dict[Tuple[int, int], float],
) -> None:
    """One shard fails wholesale: ``raise`` propagates it, ``degrade``
    answers exactly from the surviving shards."""
    assert db.shards is not None and db.plan is not None
    k = base["k"]
    victim = it.rng.choice(sorted(db.shards))
    db.inject_shard_failure(victim)
    engine = it.rng.choice(it.engines())

    try:
        db.search(query, method=engine, **base)
        report.record(it, engine, "crashed shard did not raise")
    except StorageError:
        report.record(it, engine, None)

    # The survivors complete normally, so the answer must be exact for
    # the sequences they hold.
    alive = {
        sid for sid, shard in db.plan.assignment.items() if shard != victim
    }
    alive_gold = [match for match in gold if match.sid in alive]
    result = db.search(query, method=engine, on_fault="degrade", **base)
    report.record(it, engine, _lost_shard_message(result))
    _judge(report, it, engine, result, alive_gold, truth, k)
    report.record(it, engine, _check_exact(result, alive_gold, k))
    report.record(it, engine, _num_io_message(result))

    # The stream follows the same shard-fault policy.
    method = _stream_method(engine)
    label = f"stream/{method}"
    stream = db.iter_matches(
        query, method=method, on_fault="degrade", **base
    )
    emitted = list(stream)
    report.record(it, label, _lost_shard_message(stream.result))
    report.record(it, label, _check_stream(emitted, stream.result))
    report.record(
        it,
        label,
        None
        if emitted == result.matches
        else "stream did not degrade to the search's matches",
    )


def _lost_shard_message(result: Optional[SearchResult]) -> Optional[str]:
    """A lost shard's answer is a degraded partial carrying the vacuous
    certificate ``0.0`` and :data:`REASON_SHARD_LOST`."""
    if (
        isinstance(result, PartialResult)
        and result.certificate == 0.0
        and REASON_SHARD_LOST in result.reason
        and result.degraded
    ):
        return None
    return "lost shard's answer is not a degraded shard:lost partial at 0.0"


# ----------------------------------------------------------------------
# Ingest / crash-recovery chaos (``repro chaos --suite ingest``)
# ----------------------------------------------------------------------

@dataclass
class _IngestOp:
    """One planned mutation (pre-validated against the evolving sid set)."""

    op: str  # "append" | "extend" | "delete"
    sid: int
    values: Optional[np.ndarray] = None


class _IngestPlan(_Iteration):
    """An unsharded world plus a session/checkpoint schedule.

    The same plan is executed three times per iteration: a *dry run*
    (counting crash-point invocations and recording commit LSNs), a
    *crash run* (dying at one seeded crash point), and — after
    recovering the crash run — a WAL-less *oracle* applying exactly the
    sessions whose commits survived.  Byte-identical results between
    the recovered database and the oracle at every crash point is the
    committed-prefix guarantee.  ``scenario`` becomes ``crash@<point>``
    once the crash run has died.
    """

    def __init__(self, seed: int, iteration: int) -> None:
        super().__init__(
            seed, iteration, "ingest:", ("ingest",), 0x1463E57,
            sharding=False,
        )
        # Plan sessions against a simulated sid set so every op is valid
        # when executed (ingest pre-validates before WAL-logging).
        live = set(self.sequences.sequence_ids())
        next_sid = self.sequences.num_sequences
        self.sessions: List[List[_IngestOp]] = []
        self.checkpoint_after: List[bool] = []
        for _ in range(self.rng.randint(2, 4)):
            ops: List[_IngestOp] = []
            for _ in range(self.rng.randint(1, 3)):
                choices = ["append"]
                if live:
                    choices.append("extend")
                if len(live) > 1:
                    choices.append("delete")
                kind = self.rng.choice(choices)
                if kind == "append":
                    values = self.np_rng.standard_normal(
                        int(self.np_rng.integers(40, 200))
                    ).cumsum()
                    ops.append(_IngestOp("append", next_sid, values))
                    live.add(next_sid)
                    next_sid += 1
                elif kind == "extend":
                    sid = self.rng.choice(sorted(live))
                    values = self.np_rng.standard_normal(
                        int(self.np_rng.integers(10, 100))
                    ).cumsum()
                    ops.append(_IngestOp("extend", sid, values))
                else:
                    sid = self.rng.choice(sorted(live))
                    ops.append(_IngestOp("delete", sid))
                    live.discard(sid)
            self.sessions.append(ops)
            self.checkpoint_after.append(self.rng.random() < 0.4)

    def run_sessions(
        self,
        db: SubsequenceDatabase,
        first: int = 0,
        last: Optional[int] = None,
        checkpoints: bool = True,
    ) -> List[Optional[int]]:
        """Execute sessions ``[first, last)``; returns their commit LSNs."""
        commit_lsns: List[Optional[int]] = []
        stop = len(self.sessions) if last is None else last
        for position in range(first, stop):
            with db.ingest() as session:
                for op in self.sessions[position]:
                    if op.op == "append":
                        session.append(op.sid, op.values)
                    elif op.op == "extend":
                        session.extend(op.sid, op.values)
                    else:
                        session.delete(op.sid)
            commit_lsns.append(session.commit_lsn)
            if checkpoints and self.checkpoint_after[position]:
                db.checkpoint()
        return commit_lsns


def _search_fingerprint(
    db: SubsequenceDatabase,
    query: np.ndarray,
    k: int,
    engine: str,
    normalize: bool,
) -> List[Tuple[int, int, float, int]]:
    """Exact (sid, start, distance, NUM_IO) fingerprint of one search."""
    db.reset_cache()
    result = db.search(query, k=k, method=engine, normalize=normalize)
    return [
        (match.sid, match.start, match.distance, result.stats.page_accesses)
        for match in result.matches
    ]


def run_ingest_chaos(
    seed: int = 0,
    iterations: int = 100,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Crash-recovery chaos: die at a seeded WAL/checkpoint step, recover,
    and demand byte-identical equality with a never-crashed oracle.

    Per iteration: a dry run of the ingest plan counts every crash-point
    invocation ``S`` and records each session's commit LSN; a fresh
    crash run dies at crash point ``c ~ U[0, S)`` (with a torn partial
    frame half the time); :func:`repro.ingest.recover_database` rolls
    the durable root forward; the recovered LSN must be exactly a
    committed-session boundary (committed-prefix property); and every
    engine's top-k — matches, distances, *and* page-access counts — must
    equal a WAL-less oracle that applied exactly the surviving sessions.
    The remaining sessions are then applied to both databases and the
    comparison repeats, proving the recovered database ingests on.
    """
    return _campaign(
        seed, iterations, progress, _IngestPlan, _run_ingest_iteration
    )


def _run_ingest_iteration(plan: _IngestPlan, report: ChaosReport) -> None:
    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-", ignore_cleanup_errors=True
    ) as workdir:
        _crash_recover_compare(plan, report, workdir)


def _crash_recover_compare(
    plan: _IngestPlan, report: ChaosReport, workdir: str
) -> None:
    # -- dry run: count crash-point invocations, learn commit LSNs ----
    dry_root = os.path.join(workdir, "dry")
    dry_db = plan.build_db()
    dry_wal = create_durable(dry_db, dry_root, sync=False)
    try:
        steps = 0

        def counting_hook(point: str) -> None:
            nonlocal steps
            steps += 1

        dry_wal.crash_hook = counting_hook
        commit_lsns = plan.run_sessions(dry_db)
        total_steps = steps
    finally:
        dry_wal.close()
    assert total_steps > 0  # every plan logs at least one record

    # -- crash run: same plan, fresh root, die at step c ---------------
    crash_step = plan.rng.randrange(total_steps)
    torn = plan.rng.random() < 0.5
    crash_root = os.path.join(workdir, "crash")
    crash_db = plan.build_db()
    # The crash handle is deliberately never closed: it stands in for a
    # process that died mid-write, and close() would flush/fsync state
    # the "crash" is supposed to lose.
    crash_wal = create_durable(crash_db, crash_root, sync=False)
    fired = {"point": None}
    count = {"n": 0}

    def crashing_hook(point: str) -> None:
        count["n"] += 1
        if count["n"] - 1 == crash_step:
            fired["point"] = point
            raise SimulatedCrash(
                point, torn_fraction=0.5 if torn else None
            )

    crash_wal.crash_hook = crashing_hook
    try:
        plan.run_sessions(crash_db)
    except SimulatedCrash:
        pass
    plan.scenario = f"crash@{fired['point'] or 'end'}"

    # -- recover and check the committed-prefix property ---------------
    recovered, recovery = recover_database(
        crash_root, psm=plan.with_psm, sync=False, backend=plan.backend
    )
    plan.opened.append(recovered)
    effective = recovery.effective_lsn
    committed = [lsn for lsn in commit_lsns if lsn is not None]
    if effective != 0 and effective not in committed:
        report.record(
            plan, "recovery",
            f"effective LSN {effective} is not a session commit "
            f"boundary {committed}",
        )
        return
    report.record(plan, "recovery", None)
    survivors = sum(1 for lsn in committed if lsn <= effective)

    integrity = recovered.verify_integrity()
    report.record(
        plan, "scrub",
        None if integrity["ok"] else f"recovered database fails scrub: "
        f"{integrity}",
    )

    # -- oracle: never crashed, applied exactly the surviving sessions -
    oracle = plan.build_db()
    plan.run_sessions(oracle, first=0, last=survivors, checkpoints=False)

    query = plan.make_query()
    k = plan.rng.randint(1, 8)
    for phase in ("", "+resume"):
        if phase:
            # -- the recovered database must ingest on ----------------
            if survivors == len(plan.sessions):
                break
            for db in (recovered, oracle):
                plan.run_sessions(db, first=survivors, checkpoints=False)
        for engine in plan.engines():
            got, want = (
                _search_fingerprint(db, query, k, engine, plan.normalize)
                for db in (recovered, oracle)
            )
            report.record(
                plan, engine + phase,
                None if got == want else (
                    f"results{phase} diverge from oracle after "
                    f"{survivors}/{len(committed)} sessions: {got} != {want}"
                ),
            )


# ----------------------------------------------------------------------
# Service chaos (``repro chaos --suite serve``)
# ----------------------------------------------------------------------

SERVE_SCENARIOS = (
    "calm",
    "overload",
    "faults",
    "deadline",
    "cancel",
    "shutdown",
)

#: Wall-clock bound on any single response; exceeding it is recorded as
#: a hang (the campaign's zero-hang guarantee).
_SERVE_HANG_S = 30.0

#: Overload reasons a serve campaign may legitimately produce.
_SERVE_REASONS = frozenset({"queue-full", "shutdown"})


def _serve_iteration(seed: int, iteration: int) -> _Iteration:
    return _Iteration(
        seed, iteration, "serve:", SERVE_SCENARIOS, 0x5E12E, psm=False
    )


def run_serve_chaos(
    seed: int = 0,
    iterations: int = 100,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Many-client chaos against :class:`repro.serve.service.QueryService`.

    Per iteration: a seeded database plus a pool of concurrent client
    threads (>= 8) drive mixed k-NN / range / streaming requests through
    an in-process service while the scenario injects adversity —
    overload (a capacity-3 queue behind two workers), corrupt
    storage pages, racing deadlines on a fake clock, client-side
    cancellation, or a shutdown mid-flight.  Every outcome is checked
    against the single-query oracle:

    * a successful response must be exact (calm path) or an honestly
      flagged degraded/partial answer whose reported distances are true
      and whose certificate is sound (:func:`_check_certificate`);
    * every rejection must be a typed
      :class:`~repro.exceptions.ServiceOverloadedError` with a known
      reason and a non-negative retry-after (when present);
    * every submitted request must resolve within ``_SERVE_HANG_S``
      wall-clock seconds — zero crashes, zero hangs, zero silent drops.
    """
    return _campaign(
        seed, iterations, progress, _serve_iteration, _run_serve_iteration
    )


def _run_serve_iteration(it: _Iteration, report: ChaosReport) -> None:
    scenario = it.scenario
    adversity = _ADVERSITY["faults-degrade"] if scenario == "faults" else _CALM
    db = it.build_db(adversity)

    clock = FakeClock(auto_advance=0.001) if scenario == "deadline" else None

    clients = 8
    requests_per_client = 2 if scenario != "overload" else 5
    if scenario == "overload":
        config = ServiceConfig(
            workers=2,
            queue_capacity=3,
            retry_after_hint_s=0.05,
        )
    else:
        config = ServiceConfig(workers=4, queue_capacity=64)

    # Shared query pool: few distinct queries keep the brute-force
    # oracle affordable while every client still races the same data.
    queries = []
    for _ in range(3):
        query = it.make_query()
        rho = max(1, len(query) // 20)
        queries.append((query, rho, *it.gold(query, rho, db.p)))

    service = QueryService(db, config, clock=clock)
    service.start()
    outcomes: List[Tuple[str, object]] = []
    outcome_lock = threading.Lock()
    barrier = threading.Barrier(clients)
    stop_submitting = threading.Event()

    def client_loop(index: int) -> None:
        rng = random.Random(f"{it.rng.random()}:{index}")
        try:
            barrier.wait(timeout=_SERVE_HANG_S)
        except threading.BrokenBarrierError:
            return
        for turn in range(requests_per_client):
            if stop_submitting.is_set():
                break
            query, rho, gold, truth = queries[
                (index + turn) % len(queries)
            ]
            kind = rng.choice(("knn", "knn", "stream"))
            k = rng.randint(1, 6)
            timeout_s = None
            if it.scenario == "deadline":
                timeout_s = rng.uniform(0.01, 0.4)
            method = rng.choice(it.engines())
            if kind == "stream":
                method = _stream_method(method)
            request = QueryRequest(
                query=tuple(float(v) for v in query),
                spec=QuerySpec(
                    rho=rho,
                    kind=kind,
                    k=k,
                    method=method,
                    on_fault=adversity.on_fault,
                    normalize=it.normalize,
                ),
                tenant=f"tenant-{index}",
                request_id=(index, turn),
                timeout_s=timeout_s,
            )
            label = f"{kind}/{request.spec.method}"
            try:
                pending = service.submit(request)
                if it.scenario == "cancel" and rng.random() < 0.6:
                    pending.cancel()
                response = pending.result(timeout=_SERVE_HANG_S)
                outcome = ("response", (label, k, gold, truth, response))
            except FutureTimeout:
                outcome = ("hang", label)
            except ServiceOverloadedError as error:
                outcome = ("overload", (label, error))
            except ReproError as error:
                outcome = ("error", (label, error))
            except BaseException as error:  # noqa: BLE001
                outcome = ("crash", (label, error))
            with outcome_lock:
                outcomes.append(outcome)

    threads = [
        threading.Thread(target=client_loop, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    if it.scenario == "shutdown":
        # Let some requests land, then yank the service mid-flight.
        deadline = it.rng.uniform(0.0, 0.02)
        threading.Event().wait(deadline)
        service.shutdown(drain=it.rng.random() < 0.5, timeout=_SERVE_HANG_S)
        stop_submitting.set()
    for thread in threads:
        thread.join(timeout=_SERVE_HANG_S)
    hung = [thread for thread in threads if thread.is_alive()]
    if it.scenario != "shutdown":
        service.shutdown(drain=True, timeout=_SERVE_HANG_S)

    report.record(
        it,
        "service",
        None if not hung else f"{len(hung)} client thread(s) hung",
    )

    for status, payload in outcomes:
        if status == "hang":
            report.record(it, str(payload), "request exceeded the hang bound")
        elif status == "crash":
            label, error = payload  # type: ignore[misc]
            report.record(
                it,
                str(label),
                f"untyped crash escaped the service: {error!r}",
            )
        elif status == "overload":
            label, error = payload  # type: ignore[misc]
            bad_reason = error.reason not in _SERVE_REASONS
            bad_retry = (
                error.retry_after_s is not None and error.retry_after_s < 0
            )
            report.record(
                it,
                str(label),
                None
                if not bad_reason and not bad_retry
                else (
                    f"malformed overload rejection: reason="
                    f"{error.reason!r} retry_after={error.retry_after_s!r}"
                ),
            )
        elif status == "error":
            label, error = payload  # type: ignore[misc]
            # Typed library errors are legitimate only on the faults
            # path (a corrupt page under on_fault="raise" would be one,
            # but serve chaos always degrades there).
            report.record(
                it,
                str(label),
                f"unexpected typed error: {type(error).__name__}: {error}",
            )
        else:
            label, k, gold, truth, response = payload  # type: ignore[misc]
            result = response.result
            _judge(
                report, it, str(label), result, gold, truth, k,
                complete_is_exact=(
                    not result.degraded and response.degradation_tier == 0
                ),
            )
