"""Chaos / metamorphic exactness harness (``python -m repro chaos``).

Every guarantee this library makes is a *relation* between runs — an
engine agrees with brute force, a degraded run under-reports but never
lies, a partial result's certificate is sound — which makes the whole
stack checkable metamorphically: generate seeded random databases and
queries, run randomized-but-reproducible combinations of fault
schedules x budgets x deadlines x cancellation across all engines, and
cross-check the relations against SeqScan-equivalent ground truth
(:func:`repro.core.reference.brute_force_topk`).

Scenarios
---------
``parity``
    No faults, no limits: every engine must agree with brute force
    exactly, and a run under an *unlimited* :class:`ExecutionControl`
    must be byte-identical (top-k and ``NUM_IO``) to a run with no
    control at all — the control plane must cost nothing when unused.
``budget-pages`` / ``budget-candidates`` / ``deadline`` / ``cancel``
    A limit that may trip mid-query.  Completed runs must be exact;
    interrupted runs must return a :class:`~repro.engines.base.
    PartialResult` whose certificate is *sound*: no ground-truth top-k
    member strictly below the certified bar may be missing from the
    partial answer, every reported distance must be the true distance,
    and ranked prefixes may never beat brute force.
``faults-transient``
    Injected transient read failures within the retry budget: the run
    must recover and stay *exact* (faults are invisible to results).
``faults-degrade``
    Permanently corrupted data pages under ``on_fault="degrade"``:
    results must be well-formed, honestly flagged, and every reported
    distance must still be a true distance (degradation may omit,
    never fabricate).
``faults-exhausted``
    Transient read failures on data pages frequent enough to outlast a
    two-attempt retry budget, under ``on_fault="degrade"``: the query
    must complete, possibly degraded, and never fabricate a distance.

All randomness flows from ``random.Random(f"{seed}:{iteration}")`` and
``numpy`` generators seeded from it, so a failing iteration replays
exactly from its printed seed.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import SubsequenceDatabase
from repro.control import CancellationToken, Deadline, QueryBudget
from repro.core.clock import FakeClock
from repro.core.reference import brute_force_topk
from repro.core.results import Match
from repro.engines.base import PartialResult, QuerySpec, SearchResult
from repro.exceptions import (
    ReproError,
    ServiceOverloadedError,
    StorageError,
)
from repro.ingest import create_durable, recover_database
from repro.serve.protocol import QueryRequest
from repro.serve.service import QueryService, ServiceConfig
from repro.shard import POLICIES, REASON_SHARD_LOST, ShardedDatabase
from repro.storage.buffer import RetryPolicy
from repro.storage.faults import (
    CORRUPT,
    TRANSIENT,
    FaultInjector,
    FaultSpec,
)
from repro.storage.page import PageKind
from repro.storage.wal import SimulatedCrash

#: Distance slack for float comparisons (DTW sums differ across
#: evaluation orders by strictly less than this on these data sizes).
_EPS = 1e-6

SCENARIOS = (
    "parity",
    "budget-pages",
    "budget-candidates",
    "deadline",
    "cancel",
    "faults-transient",
    "faults-degrade",
    "faults-exhausted",
)

#: Scenarios that run ``on_fault="degrade"``: a complete run may omit.
_DEGRADING = ("faults-degrade", "faults-exhausted")

_ENGINES = ("seqscan", "hlmj", "ru", "ru-cost")


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
    """Outcome of one :func:`run_chaos` campaign."""

    seed: int
    iterations: int = 0
    #: Invariant checks evaluated (each engine x relation counts one).
    checks: int = 0
    #: Queries that returned a PartialResult (interrupt paths covered).
    partials: int = 0
    scenario_counts: Dict[str, int] = field(default_factory=dict)
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

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


class _Iteration:
    """One seeded database + query + ground truth, shared across engines.

    ``stream`` tags the suite's private seed stream (``""``, ``"serve:"``,
    ``"shard:"``), ``scenarios`` is the tuple the scenario is drawn
    from, ``salt`` separates the numpy generator, and only suites with
    ``psm`` draw for a PSM index.
    """

    def __init__(
        self,
        seed: int,
        iteration: int,
        stream: str = "",
        scenarios: Tuple[str, ...] = SCENARIOS,
        salt: int = 0xC4A05,
        psm: bool = True,
    ) -> None:
        self.iteration = iteration
        self.rng = random.Random(f"{seed}:{stream}{iteration}")
        self.scenario = self.rng.choice(scenarios)
        self.omega = self.rng.choice((8, 16))
        self.with_psm = psm and self.rng.random() < 0.25
        self.np_rng = np.random.default_rng(
            [seed & 0x7FFFFFFF, iteration, salt]
        )

    def build_db(self, **db_kwargs: object) -> SubsequenceDatabase:
        db = SubsequenceDatabase(
            omega=self.omega,
            features=4,
            page_size=1024,
            buffer_fraction=0.1,
            **db_kwargs,  # type: ignore[arg-type]
        )
        injector = db.fault_injector
        if injector is not None:
            injector.enabled = False  # keep the build phase clean
        for sid in range(2):
            length = int(self.np_rng.integers(280, 700))
            db.insert(sid, self.np_rng.standard_normal(length).cumsum())
        db.build(psm=self.with_psm)
        if injector is not None:
            injector.enabled = True
        return db

    def make_query(self, db: SubsequenceDatabase) -> np.ndarray:
        min_len = 2 * self.omega - 1
        length = int(self.rng.randint(min_len, min_len + 2 * self.omega))
        # Round down to a multiple of omega so PSM's disjoint join
        # windows tile the query exactly; still >= min_len.
        length = max(min_len, (length // self.omega) * self.omega)
        if self.rng.random() < 0.5:
            sid = self.rng.choice(list(db.store.sequence_ids()))
            start = self.rng.randint(0, db.store.length(sid) - length)
            return db.store.peek_subsequence(sid, start, length).copy()
        return self.np_rng.standard_normal(length).cumsum()

    def engines(self) -> Tuple[str, ...]:
        if self.with_psm:
            return _ENGINES + ("psm",)
        return _ENGINES


def _distance_table(gold: List[Match]) -> Dict[Tuple[int, int], float]:
    return {(match.sid, match.start): match.distance for match in gold}


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
        report.iterations += 1
        if progress is not None:
            progress(f"iteration {iteration}: {it.scenario}")
        run_iteration(it, report)
        report.scenario_counts[it.scenario] = (
            report.scenario_counts.get(it.scenario, 0) + 1
        )
    return report


def run_chaos(
    seed: int = 0,
    iterations: int = 100,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the chaos campaign and return its report."""
    return _campaign(seed, iterations, progress, _Iteration, _run_iteration)


def _run_iteration(it: _Iteration, report: ChaosReport) -> None:
    k = it.rng.randint(1, 8)
    scenario = it.scenario

    if scenario == "faults-transient":
        # Per-page fault budget stays below the retry attempt budget,
        # so every injected failure is recoverable and results must be
        # exact.
        injector = FaultInjector(seed=it.rng.randrange(2**31))
        injector.add(
            FaultSpec(
                fault=TRANSIENT,
                probability=it.rng.uniform(0.05, 0.3),
                max_per_page=2,
            )
        )
        db = it.build_db(
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=4),
        )
    elif scenario == "faults-degrade":
        injector = FaultInjector(seed=it.rng.randrange(2**31))
        injector.add(
            FaultSpec(
                fault=CORRUPT,
                page_kinds=frozenset({PageKind.DATA}),
                probability=1.0,
                max_triggers=it.rng.randint(1, 3),
            )
        )
        db = it.build_db(fault_injector=injector)
    elif scenario == "faults-exhausted":
        injector = FaultInjector(seed=it.rng.randrange(2**31))
        injector.add(
            FaultSpec(
                fault=TRANSIENT,
                page_kinds=frozenset({PageKind.DATA}),
                probability=0.8,
            )
        )
        db = it.build_db(
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2),
        )
    else:
        db = it.build_db()

    query = it.make_query(db)
    rho = max(1, len(query) // 20)
    gold = brute_force_topk(db.store, query, k=10**6, rho=rho, p=db.p)
    truth = _distance_table(gold)
    deferred_ok = it.rng.random() < 0.4

    for engine in it.engines():
        deferred = deferred_ok and engine not in ("seqscan", "psm")
        kwargs: Dict[str, object] = {
            "k": k,
            "rho": rho,
            "method": engine,
            "deferred": deferred,
        }
        db.reset_cache()

        if scenario == "parity":
            result = db.search(query, **kwargs)  # type: ignore[arg-type]
            report.record(it, engine, _check_exact(result, gold, k))
            report.record(
                it,
                engine,
                "parity run is unexpectedly partial"
                if isinstance(result, PartialResult)
                else None,
            )
            # The control plane must be invisible when unlimited:
            # identical top-k and identical NUM_IO from a cold cache.
            db.reset_cache()
            controlled = db.search(
                query,
                budget=QueryBudget(),
                **kwargs,  # type: ignore[arg-type]
            )
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
            continue

        if scenario == "budget-pages":
            kwargs["budget"] = QueryBudget(
                max_page_accesses=it.rng.randint(0, 40)
            )
        elif scenario == "budget-candidates":
            kwargs["budget"] = QueryBudget(
                max_candidates=it.rng.randint(0, 60)
            )
        elif scenario == "deadline":
            clock = FakeClock(auto_advance=0.001)
            kwargs["deadline"] = Deadline.after(
                it.rng.uniform(0.0, 0.2), clock=clock
            )
        elif scenario == "cancel":
            kwargs["token"] = CancellationToken(
                cancel_after_checks=it.rng.randint(0, 200)
            )
        elif scenario in _DEGRADING:
            kwargs["on_fault"] = "degrade"

        result = db.search(query, **kwargs)  # type: ignore[arg-type]
        # Where the limit never tripped (or every fault was retried
        # away) the run must be exact; only the degrading scenarios
        # may complete short.
        _judge(
            report, it, engine, result, gold, truth, k,
            complete_is_exact=scenario not in _DEGRADING,
        )

        if scenario == "faults-degrade":
            fired = db.fault_injector is not None and (
                db.fault_injector.stats.corruptions > 0
            )
            report.record(
                it,
                engine,
                None
                if (not fired or result.degraded or not result.matches
                    or _check_exact(result, gold, k) is None)
                else "faults fired but result is neither exact nor "
                "flagged degraded",
            )


# ----------------------------------------------------------------------
# Ingest / crash-recovery chaos (``repro chaos --suite ingest``)
# ----------------------------------------------------------------------

_INGEST_ENGINES = ("seqscan", "hlmj", "hlmj-wg", "ru", "ru-cost")


@dataclass
class _IngestOp:
    """One planned mutation (pre-validated against the evolving sid set)."""

    op: str  # "append" | "extend" | "delete"
    sid: int
    values: Optional[np.ndarray] = None


class _IngestPlan:
    """A seeded base database plus a session/checkpoint schedule.

    The same plan is executed three times per iteration: a *dry run*
    (counting crash-point invocations and recording commit LSNs), a
    *crash run* (dying at one seeded crash point), and — after
    recovering the crash run — a WAL-less *oracle* applying exactly the
    sessions whose commits survived.  Byte-identical results between
    the recovered database and the oracle at every crash point is the
    committed-prefix guarantee.
    """

    def __init__(self, seed: int, iteration: int) -> None:
        self.iteration = iteration
        #: Becomes ``crash@<point>`` once the crash run has died.
        self.scenario = "ingest"
        self.rng = random.Random(f"{seed}:ingest:{iteration}")
        self.omega = self.rng.choice((8, 16))
        self.with_psm = self.rng.random() < 0.25
        self.np_rng = np.random.default_rng(
            [seed & 0x7FFFFFFF, iteration, 0x1463E57]
        )
        self.base = [
            self.np_rng.standard_normal(
                int(self.np_rng.integers(280, 700))
            ).cumsum()
            for _ in range(2)
        ]
        # Plan sessions against a simulated sid set so every op is valid
        # when executed (ingest pre-validates before WAL-logging).
        live = {0, 1}
        next_sid = 2
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

    def build_base(self) -> SubsequenceDatabase:
        db = SubsequenceDatabase(
            omega=self.omega,
            features=4,
            page_size=1024,
            buffer_fraction=0.1,
        )
        for sid, values in enumerate(self.base):
            db.insert(sid, values)
        db.build(psm=self.with_psm)
        return db

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

    def make_query(self) -> np.ndarray:
        length = 2 * self.omega
        return self.np_rng.standard_normal(length).cumsum()

    def engines(self) -> Tuple[str, ...]:
        if self.with_psm:
            return _INGEST_ENGINES + ("psm",)
        return _INGEST_ENGINES


def _search_fingerprint(
    db: SubsequenceDatabase, query: np.ndarray, k: int, engine: str
) -> List[Tuple[int, int, float, int]]:
    """Exact (sid, start, distance, NUM_IO) fingerprint of one search."""
    db.reset_cache()
    result = db.search(query, k=k, method=engine)
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
    dry_db = plan.build_base()
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
    crash_db = plan.build_base()
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
        crash_root, psm=plan.with_psm, sync=False
    )
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
    oracle = plan.build_base()
    plan.run_sessions(oracle, first=0, last=survivors, checkpoints=False)

    query = plan.make_query()
    k = plan.rng.randint(1, 8)
    for engine in plan.engines():
        got = _search_fingerprint(recovered, query, k, engine)
        want = _search_fingerprint(oracle, query, k, engine)
        report.record(
            plan, engine,
            None if got == want else (
                f"post-recovery results diverge from oracle after "
                f"{survivors}/{len(committed)} sessions: {got} != {want}"
            ),
        )

    # -- the recovered database must ingest on ------------------------
    if survivors < len(plan.sessions):
        plan.run_sessions(
            recovered, first=survivors, checkpoints=False
        )
        plan.run_sessions(oracle, first=survivors, checkpoints=False)
        for engine in plan.engines():
            got = _search_fingerprint(recovered, query, k, engine)
            want = _search_fingerprint(oracle, query, k, engine)
            report.record(
                plan, f"{engine}+resume",
                None if got == want else (
                    f"post-resume results diverge from oracle: "
                    f"{got} != {want}"
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

    if scenario == "faults":
        injector = FaultInjector(seed=it.rng.randrange(2**31))
        injector.add(
            FaultSpec(
                fault=CORRUPT,
                page_kinds=frozenset({PageKind.DATA}),
                probability=1.0,
                max_triggers=it.rng.randint(1, 3),
            )
        )
        db = it.build_db(fault_injector=injector)
    else:
        db = it.build_db()

    clock = None
    if scenario == "deadline":
        clock = FakeClock(auto_advance=0.001)

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
        query = it.make_query(db)
        rho = max(1, len(query) // 20)
        gold = brute_force_topk(db.store, query, k=10**6, rho=rho, p=db.p)
        queries.append((query, rho, gold, _distance_table(gold)))

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
            request = QueryRequest(
                query=tuple(float(v) for v in query),
                spec=QuerySpec(
                    rho=rho,
                    kind=kind,
                    k=k,
                    method=rng.choice(_ENGINES),
                    on_fault=(
                        "degrade" if it.scenario == "faults" else "raise"
                    ),
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


# ---------------------------------------------------------------------------
# Sharded-execution chaos (python -m repro chaos --suite shard)
# ---------------------------------------------------------------------------

SHARD_SCENARIOS = (
    "parity",
    "shard-crash",
    "shard-transient",
    "shard-corrupt",
    "budget",
    "deadline",
)


class _ShardIteration(_Iteration):
    """One seeded sharded-vs-oracle iteration (own seed stream)."""

    def __init__(self, seed: int, iteration: int) -> None:
        super().__init__(
            seed, iteration, "shard:", SHARD_SCENARIOS, 0x54A8D, psm=False
        )
        self.num_shards = self.rng.randint(2, 4)
        self.policy = self.rng.choice(POLICIES)

    def build_pair(
        self,
        fault_injectors: Optional[Dict[int, FaultInjector]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        """An unsharded fault-free oracle plus its sharded twin."""
        oracle = SubsequenceDatabase(
            omega=self.omega,
            features=4,
            page_size=1024,
            buffer_fraction=0.1,
        )
        sdb = ShardedDatabase(
            num_shards=self.num_shards,
            policy=self.policy,
            omega=self.omega,
            features=4,
            page_size=1024,
            buffer_fraction=0.1,
            fault_injectors=fault_injectors,
            retry_policy=retry_policy,
        )
        for injector in (fault_injectors or {}).values():
            injector.enabled = False  # keep the build phase clean
        for sid in range(3):
            length = int(self.np_rng.integers(250, 550))
            values = self.np_rng.standard_normal(length).cumsum()
            oracle.insert(sid, values)
            sdb.insert(sid, values)
        oracle.build()
        sdb.build()
        for injector in (fault_injectors or {}).values():
            injector.enabled = True
        return oracle, sdb


def _shard_injectors(
    it: "_ShardIteration", fault: object, **spec_kwargs: object
) -> Dict[int, FaultInjector]:
    """Fault injectors for a random non-empty subset of shards."""
    injectors: Dict[int, FaultInjector] = {}
    while not injectors:
        for shard in range(it.num_shards):
            if it.rng.random() < 0.6:
                injector = FaultInjector(seed=it.rng.randrange(2**31))
                injector.add(
                    FaultSpec(
                        fault=fault,  # type: ignore[arg-type]
                        page_kinds=frozenset({PageKind.DATA}),
                        **spec_kwargs,  # type: ignore[arg-type]
                    )
                )
                injectors[shard] = injector
    return injectors


def run_shard_chaos(
    seed: int = 0,
    iterations: int = 100,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Sharded execution vs the single-process oracle, under adversity.

    Per iteration: identical data goes into an unsharded oracle and a
    2-4 shard :class:`~repro.shard.ShardedDatabase` (random policy),
    then the scenario attacks the sharded side only —

    ``parity``
        No faults: every engine's merged answer and the merged stream
        must equal brute force exactly, and merged ``NUM_IO`` must be
        the exact sum of the per-shard counters.
    ``shard-crash``
        One shard fails wholesale (worker loss).  Under ``degrade`` the
        survivors must answer: the result must be a
        :class:`~repro.engines.base.PartialResult` carrying the
        (vacuous but honest) certificate ``0.0``, every reported
        distance must be true, and the answer must be *exact for the
        surviving shards* — brute force restricted to alive sequences.
        Under ``raise`` the crash must propagate as ``StorageError``.
    ``shard-transient`` / ``shard-corrupt``
        Per-shard fault schedules on a random subset of shards.
        Transient faults within the retry budget must stay invisible
        (exact answers); corrupt pages under ``degrade`` may omit but
        never fabricate and never beat brute force.
    ``budget`` / ``deadline``
        Per-shard budgets or a shared fake-clock deadline interrupt a
        data-dependent subset of shards mid-merge; interrupted runs
        must return certified partials (:func:`_check_certificate`).
    """
    return _campaign(
        seed, iterations, progress, _ShardIteration, _run_shard_iteration
    )


def _num_io_message(result: SearchResult) -> Optional[str]:
    merged = result.stats.page_accesses
    parts = sum(
        stats.page_accesses for stats in result.shard_stats.values()
    )
    if merged != parts:
        return f"merged NUM_IO {merged} != per-shard sum {parts}"
    return None


def _run_shard_iteration(it: _ShardIteration, report: ChaosReport) -> None:
    k = it.rng.randint(1, 8)
    scenario = it.scenario

    injectors: Optional[Dict[int, FaultInjector]] = None
    retry: Optional[RetryPolicy] = None
    if scenario == "shard-transient":
        injectors = _shard_injectors(
            it,
            TRANSIENT,
            probability=it.rng.uniform(0.05, 0.3),
            max_per_page=2,
        )
        retry = RetryPolicy(max_attempts=4)
    elif scenario == "shard-corrupt":
        injectors = _shard_injectors(
            it,
            CORRUPT,
            probability=1.0,
            max_triggers=it.rng.randint(1, 2),
        )

    oracle, sdb = it.build_pair(
        fault_injectors=injectors, retry_policy=retry
    )
    try:
        query = it.make_query(oracle)
        rho = max(1, len(query) // 20)
        gold = brute_force_topk(
            oracle.store, query, k=10**6, rho=rho, p=oracle.p
        )
        truth = _distance_table(gold)

        if scenario == "parity":
            for engine in _ENGINES:
                result = sdb.search(query, k=k, rho=rho, method=engine)
                report.record(it, engine, _check_exact(result, gold, k))
                report.record(it, engine, _num_io_message(result))
                report.record(
                    it,
                    engine,
                    "parity run is unexpectedly partial"
                    if isinstance(result, PartialResult)
                    else None,
                )
            stream = sdb.iter_matches(query, k=k, rho=rho)
            emitted = list(stream)
            got = [round(m.distance, 6) for m in emitted]
            want = [round(m.distance, 6) for m in gold[:k]]
            report.record(
                it,
                "stream",
                None if got == want else f"stream {got} != {want}",
            )
            keys = [(m.distance, m.sid, m.start) for m in emitted]
            report.record(
                it,
                "stream",
                None
                if keys == sorted(keys)
                else "stream emission is not nondecreasing",
            )
            return

        if scenario == "shard-crash":
            assert sdb.shards is not None
            victim = it.rng.choice(sorted(sdb.shards))
            sdb.inject_shard_failure(victim)
            engine = it.rng.choice(_ENGINES)

            try:
                sdb.search(query, k=k, rho=rho, method=engine)
                report.record(it, engine, "crashed shard did not raise")
            except StorageError:
                report.record(it, engine, None)

            result = sdb.search(
                query, k=k, rho=rho, method=engine, on_fault="degrade"
            )
            report.partials += 1
            report.record(
                it,
                engine,
                None
                if isinstance(result, PartialResult)
                else "lost shard did not produce a PartialResult",
            )
            if isinstance(result, PartialResult):
                report.record(
                    it,
                    engine,
                    None
                    if result.certificate == 0.0
                    else (
                        f"lost shard certificate is "
                        f"{result.certificate!r}, not the vacuous 0.0"
                    ),
                )
                report.record(
                    it,
                    engine,
                    None
                    if REASON_SHARD_LOST in result.reason
                    else f"reason {result.reason!r} does not flag the loss",
                )
                report.record(it, engine, _check_certificate(result, gold, k))
            report.record(
                it,
                engine,
                None
                if result.degraded
                else "lost shard result is not flagged degraded",
            )
            report.record(it, engine, _check_reported_distances(result, truth))
            # The survivors completed normally, so the answer must be
            # exact for the sequences they hold.
            alive = {
                sid
                for sid, shard in sdb.plan.assignment.items()
                if shard != victim
            }
            alive_gold = [m for m in gold if m.sid in alive]
            report.record(it, engine, _check_exact(result, alive_gold, k))

            # The stream follows the same shard-fault policy.
            stream = sdb.iter_matches(
                query, k=k, rho=rho, on_fault="degrade"
            )
            emitted = list(stream)
            lost = stream.result
            report.record(
                it,
                "stream",
                None
                if isinstance(lost, PartialResult)
                and lost.certificate == 0.0
                and REASON_SHARD_LOST in lost.reason
                and lost.degraded
                and emitted == result.matches
                else "stream did not degrade around the lost shard",
            )
            return

        if scenario in ("shard-transient", "shard-corrupt"):
            on_fault = (
                "raise" if scenario == "shard-transient" else "degrade"
            )
            for engine in ("hlmj", "ru", "ru-cost"):
                sdb.reset_cache()
                result = sdb.search(
                    query, k=k, rho=rho, method=engine, on_fault=on_fault
                )
                if scenario == "shard-transient":
                    # Recoverable faults must be invisible.
                    report.record(it, engine, _check_exact(result, gold, k))
                else:
                    _judge(
                        report, it, engine, result, gold, truth, k,
                        complete_is_exact=not result.degraded,
                    )
            return

        # budget / deadline: interruption of a data-dependent shard
        # subset; certified partials or exact completions only.
        engine = it.rng.choice(("hlmj", "ru", "ru-cost"))
        kwargs: Dict[str, object] = {"k": k, "rho": rho, "method": engine}
        if scenario == "budget":
            if it.rng.random() < 0.5:
                kwargs["budget"] = QueryBudget(
                    max_page_accesses=it.rng.randint(0, 40)
                )
            else:
                kwargs["budget"] = QueryBudget(
                    max_candidates=it.rng.randint(0, 60)
                )
        else:
            clock = FakeClock(auto_advance=0.001)
            kwargs["deadline"] = Deadline.after(
                it.rng.uniform(0.0, 0.2), clock=clock
            )
        result = sdb.search(query, **kwargs)  # type: ignore[arg-type]
        _judge(report, it, engine, result, gold, truth, k)
        if isinstance(result, PartialResult):
            report.record(it, engine, _num_io_message(result))

        # The same interruption applied mid-merge to the streaming
        # path: the emitted prefix must stay ranked and certified.
        stream_kwargs = {
            key: value for key, value in kwargs.items() if key != "method"
        }
        stream = sdb.iter_matches(
            query, **stream_kwargs  # type: ignore[arg-type]
        )
        emitted = list(stream)
        keys = [(m.distance, m.sid, m.start) for m in emitted]
        report.record(
            it,
            "stream",
            None
            if keys == sorted(keys)
            else "interrupted stream emission is not nondecreasing",
        )
        assert stream.result is not None  # set by exhaustion
        _judge(report, it, "stream", stream.result, gold, truth, k)
    finally:
        sdb.close()
