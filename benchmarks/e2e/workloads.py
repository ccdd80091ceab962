"""The six workloads of the end-to-end benchmark.

Every workload is a closed loop over a fixed request list: the next
request is sent only after the previous one has been answered.  The
program under test only ever receives generated inputs (arrays, JSON
lines, CLI flags) — never a workload name.

What ``--seed`` draws
---------------------
The *population* of a workload — its dataset and its queries — is the
same on every run (``DATASET_SEED``, ``QUERY_SEED``), so the paper's
counts (NUM_IO, candidates) repeat exactly and the committed expected
answers check every run.  ``--seed`` draws what may vary without moving
the population: the order in which the requests are sent, which of them
are also answered by the other engine configurations and, in
``ingest_restart``, every value that is written.  README.md says why.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import SubsequenceDatabase
from repro.core.distance import dtw_pow_batch
from repro.data import load_dataset
from repro.data.queries import regular_queries
from repro.exceptions import ServiceOverloadedError
from repro.ingest import create_durable, recover_database
from repro.obs.tracer import NULL_TRACER
from repro.serve import ServeClient
from repro.shard import ShardedDatabase

from layers import (
    SpanRecorder,
    TraceAggregator,
    core_probes,
    serve_probes,
    shard_probes,
)

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

OMEGA = 64
FEATURES = 4
QUERY_LENGTH = 256
K = 10
WARMUP_REQUESTS = 4
DISTANCE_TOLERANCE = 1e-9
DATASET_SEED = 1
QUERY_SEED = 2
#: Requests of a run that every other engine configuration answers too.
AGREEMENT_REQUESTS = 2


@dataclass(frozen=True)
class EngineConfig:
    label: str
    method: str
    deferred: bool


RU_COST = EngineConfig("ru_cost", "ru-cost", False)
RU_COST_D = EngineConfig("ru_cost_d", "ru-cost", True)
RU_D = EngineConfig("ru_d", "ru", True)
HLMJ_D = EngineConfig("hlmj_d", "hlmj", True)
SEQSCAN = EngineConfig("seqscan", "seqscan", False)
#: The four engine configurations every indexed answer must agree on.
INDEXED_CONFIGS = (RU_COST, RU_COST_D, RU_D, HLMJ_D)


@dataclass
class Request:
    """One generated input: a query, or a write in ``ingest_restart``."""

    index: int
    kind: str = "query"
    config: Optional[EngineConfig] = None
    query: Optional[np.ndarray] = None
    sid: int = -1
    values: Optional[np.ndarray] = None


@dataclass
class Sample:
    """What the caller saw of one request."""

    request: int
    kind: str
    config: str
    latency_s: float
    ok: bool
    stats: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    outcome: str = "answered"


Answer = List[Tuple[int, int, float]]


def answer_of(matches: Sequence[Any]) -> Answer:
    return [(m.sid, m.start, m.distance) for m in matches]


def answers_equal(actual: Answer, expected: Sequence[Sequence[float]]) -> bool:
    """Same ``(sid, start)`` list, distances equal to 1e-9."""
    if len(actual) != len(expected):
        return False
    for (sid, start, distance), (e_sid, e_start, e_distance) in zip(
        actual, expected
    ):
        if (sid, start) != (e_sid, e_start):
            return False
        if abs(distance - e_distance) > DISTANCE_TOLERANCE * max(
            1.0, abs(e_distance)
        ):
            return False
    return True


#: Answers of the fixed population, agreed on by every engine
#: configuration when ``run.py --update-expected`` wrote them.
EXPECTED_PATH = HERE / "expected_seed0.json"


def load_expected(smoke: bool) -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["smoke" if smoke else "full"]


class Workload:
    """Base: set-up, one closed-loop round, tear-down."""

    name = ""
    #: ``expected_seed0.json`` section holding this workload's answers.
    expected_key = ""
    #: (points, sequences, queries) at full size and under ``--smoke``.
    full_size = (0, 0, 0)
    smoke_size = (0, 0, 0)
    dataset = "WALK"
    configs: Tuple[EngineConfig, ...] = INDEXED_CONFIGS
    normalize = False
    #: The paper's protocol: every query starts from a cold buffer.
    cold_buffer = True
    warmup_requests = WARMUP_REQUESTS

    def __init__(
        self,
        seed: int,
        smoke: bool,
        recorder: SpanRecorder,
        workdir: pathlib.Path,
        expected: Optional[Dict[str, Dict[str, Any]]],
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.recorder = recorder
        self.workdir = workdir
        #: ``None`` while ``--update-expected`` is producing the answers.
        self.all_expected = expected
        self.expected = (
            expected.get(self.expected_key or self.name)
            if expected is not None
            else None
        )
        self.points, self.sequences, self.num_queries = (
            self.smoke_size if smoke else self.full_size
        )
        self.data = np.empty(0)
        self.requests: List[Request] = []
        self.build_s = 0.0
        self.db: Any = None
        #: Duration of every set-up this run has done.
        self.setup_times: List[float] = []

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> None:
        with self.recorder.span("setup") as span:
            self.setup()
        self.setup_times.append(span.duration)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def load_population(self) -> List[np.ndarray]:
        """Generate the dataset and cut the query population from it."""
        self.data = load_dataset(
            self.dataset, size=self.points, seed=DATASET_SEED
        ).values
        return regular_queries(
            self.data,
            QUERY_LENGTH,
            self.num_queries,
            seed=QUERY_SEED,
            omega=OMEGA,
            features=FEATURES,
        )

    def query_requests(self, queries: Sequence[np.ndarray]) -> List[Request]:
        """The population in the order ``--seed`` draws."""
        requests = [
            Request(
                index=index,
                config=self.configs[index % len(self.configs)],
                query=query,
            )
            for index, query in enumerate(queries)
        ]
        random.Random(self.seed).shuffle(requests)
        return requests

    def new_database(self) -> Any:
        return SubsequenceDatabase(omega=OMEGA, features=FEATURES)

    def build_database(self) -> None:
        db = self.new_database()
        chunk = self.points // self.sequences
        for sid in range(self.sequences):
            db.insert(sid, self.data[sid * chunk : (sid + 1) * chunk])
        with self.recorder.span("db.build") as span:
            db.build()
        self.build_s = span.duration
        self.db = db

    # -- the loop -------------------------------------------------------

    def issue(self, request: Request) -> Sample:
        """Answer one query on ``self.db`` and check the answer."""
        config = request.config
        assert config is not None
        if self.cold_buffer:
            self.db.reset_cache()
        with self.recorder.span("db.search", request.index) as span:
            result = self.db.search(
                request.query,
                k=K,
                method=config.method,
                deferred=config.deferred,
                normalize=self.normalize,
            )
        sample = Sample(
            request=request.index,
            kind="query",
            config=config.label,
            latency_s=span.duration,
            ok=self.matches_expected(request, answer_of(result.matches)),
            stats=result.stats.as_dict(),
        )
        self.annotate(sample, result)
        return sample

    def annotate(self, sample: Sample, result: Any) -> None:
        """Hook: workload-specific extras read from the result."""

    def guarded_issue(self, request: Request, *args: Any) -> Sample:
        """``issue`` that turns any failure into a failed sample."""
        try:
            return self.issue(request, *args)
        except Exception:  # the loop must finish and count the failure
            traceback.print_exc(file=sys.stderr)
            config = request.config.label if request.config else ""
            return Sample(
                request.index, request.kind, config, 0.0, False,
                outcome="error",
            )

    def run_round(
        self, traced: Optional[TraceAggregator] = None
    ) -> Tuple[List[Sample], float]:
        """Send every request once, one after the other."""
        self.db.set_tracer(traced.tracer if traced else NULL_TRACER)
        samples: List[Sample] = []
        with self.recorder.span("round") as round_span:
            for request in self.requests:
                sample = self.guarded_issue(request)
                if traced is not None:
                    page_accesses = sample.stats.get("page_accesses")
                    traced.harvest(
                        None if page_accesses is None else int(page_accesses)
                    )
                samples.append(sample)
        self.db.set_tracer(NULL_TRACER)
        return samples, round_span.duration

    def warm_up(self) -> None:
        for request in self.requests[: self.warmup_requests]:
            self.guarded_issue(request)

    def finish(self, trace: bool) -> List[bool]:
        """Phases after the rounds; returns one flag per extra check."""
        return self.agreement_checks()

    def agreement_checks(self) -> List[bool]:
        """The run's first requests, untimed, under every other engine
        configuration: each must give the expected answer too."""
        return [
            self.guarded_issue(
                Request(request.index, config=config, query=request.query)
            ).ok
            for request in self.requests[:AGREEMENT_REQUESTS]
            for config in INDEXED_CONFIGS
            if config != request.config
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def index_shape(self) -> Tuple[float, float]:
        """(nodes, height) of the index; summed / tallest over shards."""
        if self.db is None:
            return (0.0, 0.0)
        description = self.db.describe()
        shards = description.get("shards")
        parts = list(shards.values()) if shards else [description]
        return (
            float(sum(part["index_nodes"] for part in parts)),
            float(max(part["tree_height"] for part in parts)),
        )

    def probes(self) -> Dict[str, float]:
        """Direct timed calls into layer functions, on this run's inputs."""
        query = next(r.query for r in self.requests if r.kind == "query")
        return core_probes(query, self.data, OMEGA, FEATURES)

    def matches_expected(self, request: Request, answer: Answer) -> bool:
        if self.expected is None:
            return True
        return answers_equal(answer, self.expected[str(request.index)])


class KnnWorkload(Workload):
    """Library, one caller, cold buffer before every query."""

    def setup(self) -> None:
        queries = self.load_population()
        self.build_database()
        self.requests = self.query_requests(queries)


class KnnRaw(KnnWorkload):
    name = "knn_raw"
    full_size = (200_000, 8, 16)
    smoke_size = (20_000, 8, 8)


class KnnZnorm(KnnWorkload):
    name = "knn_znorm"
    dataset = "MUSIC"
    full_size = (40_000, 4, 6)
    smoke_size = (4_000, 4, 4)
    configs = (RU_COST_D, RU_COST)
    normalize = True


class ScanBaseline(KnnWorkload):
    name = "scan_baseline"
    full_size = (8_000, 2, 6)
    smoke_size = (800, 2, 4)
    configs = (SEQSCAN,)


class ShardFanout(KnnWorkload):
    """The ``knn_raw`` dataset behind a two-shard thread fan-out."""

    name = "shard_fanout"
    expected_key = "knn_raw"
    full_size = (200_000, 8, 6)
    smoke_size = (20_000, 8, 4)
    configs = (RU_COST_D,)
    num_shards = 2

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.last_result: Any = None
        #: The same requests answered once by one unsharded database.
        self.unsharded_samples: List[Sample] = []

    def new_database(self) -> Any:
        return ShardedDatabase(
            num_shards=self.num_shards,
            policy="hash",
            executor="thread",
            omega=OMEGA,
            features=FEATURES,
        )

    def annotate(self, sample: Sample, result: Any) -> None:
        shard_times = [
            stats.wall_time_s for stats in result.shard_stats.values()
        ]
        sample.extra["slowest_shard_s"] = max(shard_times)
        sample.extra["mean_shard_s"] = sum(shard_times) / len(shard_times)
        self.last_result = result

    def probes(self) -> Dict[str, float]:
        return {**super().probes(), **shard_probes(self.last_result)}

    def finish(self, trace: bool) -> List[bool]:
        checks = self.agreement_checks()
        if not trace:
            return checks
        twin = _UnshardedTwin(
            self.seed, self.smoke, self.recorder, self.workdir,
            self.all_expected,
        )
        twin.setup()
        try:
            self.unsharded_samples, _ = twin.run_round()
        finally:
            twin.close()
        return checks + [sample.ok for sample in self.unsharded_samples]


class _UnshardedTwin(ShardFanout):
    def new_database(self) -> Any:
        return KnnWorkload.new_database(self)

    def annotate(self, sample: Sample, result: Any) -> None:
        pass


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class ServerProcess:
    """``python -m repro serve`` as a child; always stop it in ``finally``."""

    def __init__(self, points: int, seed: int, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["TMPDIR"] = tempfile.gettempdir()
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--dataset", "WALK",
                "--size", str(points),
                "--omega", str(OMEGA),
                "--workers", str(workers),
                "--seed", str(seed),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            env=env,
        )
        self.host = ""
        self.port = 0

    def wait_ready(self) -> None:
        """Parse ``listening on HOST:PORT`` from stdout, under a timeout."""
        assert self.process.stdout is not None
        descriptor = self.process.stdout.fileno()
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen = b""
        while b"\n" not in seen:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select(
                [descriptor], [], [], remaining
            )[0]
            chunk = os.read(descriptor, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"repro serve never printed 'listening': {seen!r}"
                )
            seen += chunk
        line = seen.split(b"\n", 1)[0].decode()
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"unexpected first line from serve: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServeMixed(Workload):
    """The real program behind its socket, two persistent connections."""

    name = "serve_mixed"
    full_size = (200_000, 1, 16)
    smoke_size = (20_000, 1, 8)
    workers = 2
    connections = 2

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.server: Optional[ServerProcess] = None
        self.clients: List[ServeClient] = []
        #: The last request line that got an exact answer, and the answer.
        self.last_exchange: Optional[
            Tuple[Dict[str, Any], Dict[str, Any]]
        ] = None
        #: One round sent over a single connection (traced pass only).
        self.single_samples: List[Sample] = []
        self.single_elapsed_s = 0.0

    def setup(self) -> None:
        self.requests = self.query_requests(self.load_population())
        self.server = ServerProcess(self.points, DATASET_SEED, self.workers)
        with self.recorder.span("serve.start"):
            self.server.wait_ready()
        self.clients = [
            ServeClient(self.server.host, self.server.port)
            for _ in range(self.connections)
        ]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def peak_rss_mb(self) -> float:
        # The program under test is the child; its peak is read once it
        # has been reaped.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def probes(self) -> Dict[str, float]:
        # The engines run in the child; only the wire codec is probed here.
        assert self.last_exchange is not None
        return serve_probes(*self.last_exchange)

    def issue(
        self, request: Request, client: Optional[ServeClient] = None
    ) -> Sample:
        config = request.config
        assert config is not None and request.query is not None
        payload = {
            "kind": "knn",
            "query": request.query.tolist(),
            "k": K,
            "method": config.method,
            "deferred": config.deferred,
            "id": request.index,
        }
        outcome = "answered"
        response: Dict[str, Any] = {}
        with self.recorder.span("client.request", request.index) as span:
            try:
                response = (client or self.clients[0]).request(payload)
            except ServiceOverloadedError:
                outcome = "rejected"
        ok = False
        if outcome == "answered":
            if response.get("status") != "exact":
                outcome = "partial"
            else:
                self.last_exchange = (payload, response)
                ok = response.get("id") == request.index and (
                    self.matches_expected(
                        request,
                        [
                            (sid, start, distance)
                            for sid, start, _, distance in response["matches"]
                        ],
                    )
                )
        return Sample(
            request=request.index,
            kind="query",
            config=config.label,
            latency_s=span.duration,
            ok=ok,
            stats=response.get("stats", {}),
            extra={
                "queue_wait_s": response.get("queue_wait_s", 0.0),
                "execution_s": response.get("execution_s", 0.0),
            },
            outcome=outcome,
        )

    def run_round(
        self,
        traced: Optional[TraceAggregator] = None,
        connections: Optional[int] = None,
    ) -> Tuple[List[Sample], float]:
        """Each connection takes the next unsent request when it is free."""
        pending = iter(self.requests)
        lock = threading.Lock()
        samples: List[Sample] = []

        def client_loop(client: ServeClient) -> None:
            while True:
                with lock:
                    request = next(pending, None)
                if request is None:
                    return
                samples.append(self.guarded_issue(request, client))

        threads = [
            threading.Thread(target=client_loop, args=(client,))
            for client in self.clients[: connections or self.connections]
        ]
        with self.recorder.span("round") as round_span:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return samples, round_span.duration

    def finish(self, trace: bool) -> List[bool]:
        checks = self.agreement_checks()
        if trace:
            self.single_samples, self.single_elapsed_s = self.run_round(
                connections=1
            )
            checks += [sample.ok for sample in self.single_samples]
        return checks


# ----------------------------------------------------------------------
# ingest_restart
# ----------------------------------------------------------------------

FIRST_NEW_SID = 1000
APPEND_VALUES = 512
EXTEND_VALUES = 256
WRITES_PER_QUERY = 8
FINAL_QUERIES = 3


class IngestRestart(Workload):
    """Fsynced writes beside reads, then a restart from the bytes on disk."""

    name = "ingest_restart"
    full_size = (40_000, 4, 12)
    smoke_size = (8_000, 4, 2)
    configs = (RU_COST_D,)
    #: A live database answers from a warm buffer.
    cold_buffer = False
    #: A warm-up would change the database the first round writes to.
    warmup_requests = 0

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.appends, self.deletes = (10, 1) if self.smoke else (48, 4)
        self.root: Optional[pathlib.Path] = None
        self.dirty = False
        #: Every value of every sequence ever stored, by sid.
        self.stored: Dict[int, np.ndarray] = {}
        self.user_values = 0
        self.restart: Dict[str, float] = {}

    def setup(self) -> None:
        queries = self.load_population()
        self.build_database()
        self.root = pathlib.Path(
            tempfile.mkdtemp(prefix="durable-", dir=self.workdir)
        )
        with self.recorder.span("create_durable"):
            create_durable(self.db, self.root / "db", sync=True)
        # Queries keep the population's order: with a warm buffer the
        # order decides NUM_IO, and here --seed already draws the writes.
        self.requests = self.operations(
            sorted(self.query_requests(queries), key=lambda r: r.index)
        )
        self.dirty = False

    def close(self) -> None:
        if self.db is not None and self.db.wal is not None:
            self.db.wal.close()
        super().close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def operations(self, queries: List[Request]) -> List[Request]:
        """Writes drawn from ``--seed``, a query after every 8th write."""
        rng = np.random.default_rng(self.seed)
        chunk = self.points // self.sequences
        self.stored = {
            sid: self.data[sid * chunk : (sid + 1) * chunk]
            for sid in range(self.sequences)
        }
        self.user_values = 0
        operations: List[Request] = []
        unsent = iter(queries)
        writes = 0

        def write(kind: str, sid: int, count: int = 0) -> None:
            nonlocal writes
            values = rng.standard_normal(count).cumsum() if count else None
            operations.append(
                Request(len(operations), kind, sid=sid, values=values)
            )
            if values is not None:
                self.user_values += count
                self.stored[sid] = np.concatenate(
                    [self.stored.get(sid, np.empty(0)), values]
                )
            writes += 1
            if writes % WRITES_PER_QUERY == 0:
                query = next(unsent, None)
                if query is not None:
                    query.index = len(operations)
                    operations.append(query)

        delete_every = self.appends // self.deletes
        for position in range(self.appends):
            sid = FIRST_NEW_SID + position
            write("append", sid, APPEND_VALUES)
            write("extend", sid, EXTEND_VALUES)
            if (position + 1) % delete_every == 0:
                write("delete", sid - 5)
        return operations

    def run_round(
        self, traced: Optional[TraceAggregator] = None
    ) -> Tuple[List[Sample], float]:
        if self.dirty:
            # Every round writes to a database fresh from set-up.
            self.close()
            self.timed_setup()
        self.dirty = True
        return super().run_round(traced)

    def issue(self, request: Request) -> Sample:
        if request.kind == "query":
            return super().issue(request)
        call = f"{request.kind}_sequence"
        arguments = [request.sid]
        if request.values is not None:
            arguments.append(request.values)
        with self.recorder.span(f"db.{call}", request.index) as span:
            getattr(self.db, call)(*arguments)
        return Sample(request.index, request.kind, "", span.duration, True)

    def matches_expected(self, request: Request, answer: Answer) -> bool:
        assert request.query is not None
        return self.sound(request.query, answer)

    def sound(self, query: np.ndarray, answer: Answer) -> bool:
        """k matches, best first, each distance the true banded DTW."""
        if len(answer) != K:
            return False
        distances = [distance for _, _, distance in answer]
        if distances != sorted(distances):
            return False
        rho = max(1, int(0.05 * query.size))
        batch = np.stack(
            [
                self.stored[sid][start : start + query.size]
                for sid, start, _ in answer
            ]
        )
        truth = np.sqrt(dtw_pow_batch(batch, query, rho))
        return bool(
            np.all(
                np.abs(truth - distances)
                <= DISTANCE_TOLERANCE * np.maximum(1.0, truth)
            )
        )

    # -- restart --------------------------------------------------------

    def final_queries(self) -> List[Request]:
        queries = [r for r in self.requests if r.kind == "query"]
        return queries[:FINAL_QUERIES]

    def final_answers(self, db: Any) -> List[Tuple[Any, ...]]:
        """Post-ingest answers as compared across live/recovered/loaded."""
        answers = []
        for request in self.final_queries():
            db.reset_cache()
            result = db.search(
                request.query, k=K, method=RU_COST_D.method,
                deferred=RU_COST_D.deferred,
            )
            answers.append(
                (
                    [(m.sid, m.start, repr(m.distance)) for m in result.matches],
                    result.stats.page_accesses,
                )
            )
        return answers

    def finish(self, trace: bool) -> List[bool]:
        """Restart from disk; every reopened copy must answer as the live
        database did."""
        assert self.root is not None
        root = self.root / "db"
        live = self.final_answers(self.db)
        checks: List[bool] = []

        # Engines must still agree after the writes.
        for request, (matches, _) in zip(self.final_queries(), live):
            other = self.db.search(request.query, k=K, method="ru")
            checks.append(
                answers_equal(
                    answer_of(other.matches),
                    [(sid, start, float(text)) for sid, start, text in matches],
                )
            )

        if trace:
            save_dir = self.root / "saved"
            with self.recorder.span("db.save") as span:
                self.db.save(save_dir)
            self.restart["save_s"] = span.duration

        self.db.wal.close()
        wal_bytes = (root / "wal.log").stat().st_size
        self.restart["wal_bytes_per_user_byte"] = wal_bytes / (
            8.0 * self.user_values
        )

        if trace:
            # What recovery costs before it replays a single record.
            with self.recorder.span("db.load.initial") as span:
                SubsequenceDatabase.load(root / "checkpoint").close()
            self.restart["initial_open_s"] = span.duration

        copy = self.root / "recover"
        shutil.copytree(root, copy)
        with self.recorder.span("recover_database") as span:
            recovered, report = recover_database(copy)
        self.restart["recover_s"] = span.duration
        self.restart["replayed_records"] = float(report.replayed_records)
        try:
            checks.append(self.final_answers(recovered) == live)
            with self.recorder.span("db.checkpoint") as span:
                recovered.checkpoint()
            self.restart["checkpoint_s"] = span.duration
        finally:
            recovered.wal.close()
            recovered.close()

        checkpoint = copy / "checkpoint"
        self.restart["stored_bytes_per_user_byte"] = sum(
            path.stat().st_size for path in checkpoint.iterdir()
        ) / (8.0 * sum(values.size for values in self.live_values()))
        backends = ["file", "mmap"] if trace else ["file"]
        for backend in backends:
            with self.recorder.span(f"db.load.{backend}") as span:
                loaded = SubsequenceDatabase.load(checkpoint, backend=backend)
            try:
                checks.append(self.final_answers(loaded) == live)
            finally:
                loaded.close()
            key = "open_s" if backend == "file" else "load_mmap_s"
            self.restart[key] = span.duration
        return checks

    def live_values(self) -> List[np.ndarray]:
        deleted = {r.sid for r in self.requests if r.kind == "delete"}
        return [
            values for sid, values in self.stored.items() if sid not in deleted
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        KnnRaw, KnnZnorm, ScanBaseline, ServeMixed, ShardFanout, IngestRestart
    )
}
