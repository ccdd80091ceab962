"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``demo``
    Build a small database and run one ranked query with every engine,
    printing matches and the paper's three cost metrics.
``inventory``
    Print the Table 2-style dataset inventory at a chosen scale.
``scrub``
    Load a saved database directory, verify every on-disk checksum and
    every in-memory page checksum plus the structural invariants, and
    exit 0 (clean) or 1 (damage found, detailed on stderr).
``recover``
    Roll a durable ingest root (``checkpoint/`` + ``wal.log``) forward
    to its last committed state: replay committed WAL batches over the
    checkpoint, discard the torn tail, verify integrity, and optionally
    checkpoint.  Exit 0 (recovered clean) or 1.
``lint``
    Run the repo-specific static invariant checker
    (:mod:`repro.analysis`) over the source tree and exit 0 (clean) or
    1 (contract violations found).
``chaos``
    Run the chaos / metamorphic exactness harness
    (:mod:`repro.chaos`): seeded random databases and queries under
    randomized fault schedules x budgets x deadlines x cancellation,
    cross-checked against brute-force ground truth.  Exit 0 (every
    invariant held) or 1 (a violation, printed with its replay seed).
``bench``
    Run the kernel perf-regression gate (:mod:`repro.bench.perf`):
    seeded micro-benchmarks of the vectorized kernels, each re-verified
    against its scalar oracle, with the speedup ratios gated against
    the committed ``benchmarks/baseline.json``.  Exit 0 (gate passed),
    1 (regression / exactness failure), or 2 (usage error, e.g. a
    missing baseline).  Everything end to end is timed by
    ``benchmarks/e2e`` instead.
``trace``
    Run one fully traced query (:mod:`repro.obs`) against a synthetic
    dataset and write the span tree in Chrome ``chrome://tracing`` /
    Perfetto format.  Also cross-checks the span-level page accounting
    against the paper's NUM_IO counter and fails (exit 1) on mismatch.
``profile``
    Run one traced query and print the per-query profile: the hottest
    span names ranked by self time, plus the observability counters.
``serve``
    Run the concurrent query service (:mod:`repro.serve`): JSON-lines
    over a local TCP socket, one bounded FIFO admission queue in front
    of a fixed worker pool, graceful degradation under load (see
    ``docs/service.md``).  ``--self-test N`` instead drives N
    concurrent socket clients against the single-query oracle and
    exits 0/1 (the CI smoke mode).

These are convenience smoke tests; the real experiment drivers live in
``benchmarks/`` (one pytest-benchmark module per figure).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence, cast

import numpy as np

if TYPE_CHECKING:
    from repro.api import QueryFacade


def _demo(args: argparse.Namespace) -> int:
    from repro import SubsequenceDatabase
    from repro.data import load_dataset

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    db = SubsequenceDatabase(omega=args.omega, features=4)
    db.insert(0, dataset.values)
    db.build()
    print(f"{dataset.name}: {dataset.size:,} points indexed")
    print(db.describe())

    rng = np.random.default_rng(args.seed + 1)
    start = int(rng.integers(0, dataset.size - args.query_length))
    query = dataset.values[start : start + args.query_length].copy()
    print(f"\nquery: subsequence [{start}:{start + args.query_length})")

    print(
        f"\n{'engine':>10s} {'top-1 dist':>12s} {'candidates':>12s} "
        f"{'pages':>8s} {'ms':>8s}"
    )
    for method in ("seqscan", "hlmj", "hlmj-wg", "ru", "ru-cost"):
        db.reset_cache()
        result = db.search(
            query, k=args.k, method=method, deferred=method != "seqscan"
        )
        stats = result.stats
        print(
            f"{method:>10s} {result.matches[0].distance:>12.4f} "
            f"{stats.candidates:>12,d} {stats.page_accesses:>8,d} "
            f"{stats.wall_time_s * 1000:>8.1f}"
        )
    return 0


def _inventory(args: argparse.Namespace) -> int:
    from repro.data import DATASET_NAMES, load_dataset
    from repro.data.datasets import scaled_size

    print(f"{'Data set':>10s} {'Size':>12s} {'Markers':>30s}")
    for name in DATASET_NAMES:
        dataset = load_dataset(
            name, size=scaled_size(name, args.scale), seed=args.seed
        )
        info = dataset.describe()
        print(
            f"{name:>10s} {info['size']:>12,d} {str(info['markers']):>30s}"
        )
    return 0


def _scrub(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.storage.persistence import load_database

    try:
        db = load_database(args.directory, backend=args.backend)
    except FileNotFoundError as error:
        print(f"scrub: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(
            f"scrub: {args.directory}: FAILED on-disk verification: "
            f"{type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1
    with db:  # under --backend mmap, closing removes the scratch map
        report = db.verify_integrity()
    if report["ok"]:
        print(
            f"scrub: {args.directory}: OK "
            f"({report['pages']} pages, all checksums verified)"
        )
        return 0
    for page_id in report["corrupt_pages"]:
        print(
            f"scrub: page {page_id} failed checksum verification",
            file=sys.stderr,
        )
    for message in report["tree_errors"] + report["counter_errors"]:
        print(f"scrub: {message}", file=sys.stderr)
    print(f"scrub: {args.directory}: FAILED", file=sys.stderr)
    return 1


def _chaos(args: argparse.Namespace) -> int:
    from repro.chaos import (
        run_chaos,
        run_ingest_chaos,
        run_serve_chaos,
    )

    progress = None
    if args.verbose:
        progress = lambda message: print(f"chaos: {message}")  # noqa: E731
    runners = {
        "search": (run_chaos,),
        "ingest": (run_ingest_chaos,),
        "serve": (run_serve_chaos,),
        "all": (run_chaos, run_ingest_chaos, run_serve_chaos),
    }[args.suite]
    exit_code = 0
    for runner in runners:
        report = runner(
            seed=args.seed, iterations=args.iterations, progress=progress
        )
        print(
            f"chaos: suite={runner.__name__} seed={report.seed} "
            f"iterations={report.iterations} checks={report.checks} "
            f"partials={report.partials}"
        )
        for (scenario, topology), count in sorted(report.cell_counts.items()):
            print(f"chaos:   {scenario} [{topology}]: {count} iterations")
        worlds = sorted(report.axis_counts.items())
        print("chaos:   worlds: " + " ".join(f"{a}={n}" for a, n in worlds))
        if report.ok:
            print("chaos: OK — every invariant held")
            continue
        for failure in report.failures:
            print(f"chaos: VIOLATION at {failure}", file=sys.stderr)
        print(
            f"chaos: FAILED — {len(report.failures)} violations "
            f"(replay with --seed {report.seed})",
            file=sys.stderr,
        )
        exit_code = 1
    return exit_code


def _recover(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.ingest import recover_database

    try:
        db, report = recover_database(
            args.root, psm=args.psm, backend=args.backend
        )
    except FileNotFoundError as error:
        print(f"recover: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(
            f"recover: {args.root}: FAILED: "
            f"{type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1
    print(
        f"recover: {args.root}: checkpoint_lsn={report.checkpoint_lsn} "
        f"replayed {report.replayed_records} record(s) in "
        f"{report.replayed_batches} committed batch(es), "
        f"torn_bytes_discarded={report.torn_bytes_discarded}, "
        f"effective_lsn={report.effective_lsn}"
    )
    with db:  # under --backend mmap, closing removes the scratch map
        integrity = db.verify_integrity()
        if not integrity["ok"]:
            for message in (
                [
                    f"page {p} failed checksum"
                    for p in integrity["corrupt_pages"]
                ]
                + integrity["tree_errors"]
                + integrity["counter_errors"]
            ):
                print(f"recover: {message}", file=sys.stderr)
            print(f"recover: {args.root}: FAILED integrity", file=sys.stderr)
            return 1
        if args.checkpoint:
            watermark = db.checkpoint()
            print(f"recover: checkpointed at LSN {watermark}, WAL truncated")
    print(f"recover: {args.root}: OK")
    return 0


def _bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench import perf

    report = perf.run_report(seed=args.seed, quick=args.quick)
    print(perf.format_report(report))

    exact_failures = [
        name
        for name, bench in report["suites"]["kernels"].items()
        if not bench["exact"]
    ]
    for name in exact_failures:
        print(
            f"bench: kernels/{name}: vectorized kernel does not match the "
            f"scalar oracle",
            file=sys.stderr,
        )

    if args.json:
        perf.write_report(report, args.json)
        print(f"bench: wrote {args.json}")
    if args.update_baseline:
        perf.write_report(report, args.baseline)
        print(f"bench: wrote baseline {args.baseline}")
        return 1 if exact_failures else 0

    if not os.path.exists(args.baseline):
        print(
            f"bench: baseline {args.baseline} not found — run with "
            f"--update-baseline to create it",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = perf.load_report(args.baseline)
    except (ValueError, OSError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    regressions = perf.compare(report, baseline)
    if not regressions and not exact_failures:
        print(f"bench: OK — no regression against {args.baseline}")
        return 0
    for regression in regressions:
        print(f"bench: REGRESSION {regression}", file=sys.stderr)
    print(
        f"bench: FAILED — {len(regressions) + len(exact_failures)} "
        f"problem(s) against {args.baseline}",
        file=sys.stderr,
    )
    return 1


def _serve_database(
    args: argparse.Namespace,
) -> "tuple[QueryFacade, object]":
    from repro import SubsequenceDatabase
    from repro.data import load_dataset

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    shards = getattr(args, "shards", 0)
    if shards and shards > 1:
        from repro.shard import ShardedDatabase

        # Split the dataset into one sequence per shard so partitioning
        # has something to distribute; each chunk must still be long
        # enough to hold sliding windows (and the self-test queries).
        chunk = len(dataset.values) // shards
        minimum = max(2 * args.omega - 1, args.query_length)
        if chunk < minimum:
            raise SystemExit(
                f"serve: --shards {shards} leaves {chunk} values per "
                f"sequence; need at least {minimum} (grow --size)"
            )
        sdb = ShardedDatabase(
            num_shards=shards,
            policy=args.shard_policy,
            omega=args.omega,
            features=4,
        )
        for index in range(shards):
            hi = (index + 1) * chunk if index < shards - 1 else None
            sdb.insert(index, dataset.values[index * chunk : hi])
        sdb.build(psm=args.psm)
        return sdb, dataset
    db = SubsequenceDatabase(omega=args.omega, features=4)
    db.insert(0, dataset.values)
    db.build(psm=args.psm)
    return db, dataset


def _physical_reads(db: "QueryFacade") -> int:
    """Physical page reads so far, summed over a sharded db's pagers."""
    shards = getattr(db, "shards", None)
    dbs = [db] if shards is None else list(shards.values())
    return sum(one.pager.stats.physical_reads for one in dbs)


def _serve_self_test(
    args: argparse.Namespace, db: "QueryFacade", dataset: "object"
) -> int:
    """Concurrent socket clients (``knn`` and ``stream``, cycling the
    methods) vs the in-process ``search`` / ``iter_matches`` oracle.

    Also checks NUM_IO conservation: the ``page_accesses`` of every
    served response and every oracle call, which all run at once, sum
    to the pagers' physical reads over the test.  And each response
    read as many candidates as its oracle call: a query's schedule
    depends on none of the queries running beside it.
    """
    import threading

    import numpy as np  # noqa: F811 — keep function self-contained

    from repro.serve import ServeClient, ServiceConfig, SocketServer
    from repro.serve.service import QueryService

    clients = max(1, args.self_test)
    service = QueryService(
        db,
        ServiceConfig(
            workers=args.workers, queue_capacity=args.queue_capacity
        ),
    )
    server = SocketServer(service, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(f"serve: self-test with {clients} concurrent clients on "
          f"{host}:{port}")
    rng = np.random.default_rng(args.seed + 1)
    cycle = [
        ("knn", method) for method in ("seqscan", "hlmj", "ru", "ru-cost")
    ] + [("stream", method) for method in ("ru", "ru-cost")]
    jobs = []
    for index in range(clients):
        start = int(rng.integers(0, args.size - args.query_length))
        query = dataset.values[start : start + args.query_length].tolist()
        jobs.append((index, *cycle[index % len(cycle)], query))
    failures: list = []
    charged: list = []
    reads_before = _physical_reads(db)
    barrier = threading.Barrier(clients)

    def run_client(
        index: int, kind: str, method: str, query: "list[float]"
    ) -> None:
        label = f"client {index} ({kind}/{method})"
        try:
            with ServeClient(host, port) as client:
                barrier.wait(timeout=30)
                out = client.request(
                    {
                        "kind": kind,
                        "query": query,
                        "k": args.k,
                        "method": method,
                        "id": index,
                    }
                )
                if kind == "stream":
                    rows = out["streamed"]
                    stream = db.iter_matches(query, k=args.k, method=method)
                    gold = list(stream)
                    oracle = stream.stats
                else:
                    rows = out["matches"]
                    result = db.search(query, k=args.k, method=method)
                    gold, oracle = result.matches, result.stats
                charged.append(
                    out["stats"]["page_accesses"] + oracle.page_accesses
                )
                got = [tuple(row[:2]) for row in rows]
                want = [(m.sid, m.start) for m in gold]
                if out["status"] != "exact" or got != want:
                    failures.append(f"{label}: got {got!r}, want {want!r}")
                served = out["stats"]["candidates"]
                if served != oracle.candidates:
                    failures.append(
                        f"{label}: read {served} candidates, the oracle "
                        f"{oracle.candidates}"
                    )
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append(f"{label}: {error!r}")

    threads = [
        threading.Thread(target=run_client, args=job, daemon=True)
        for job in jobs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    alive = [thread for thread in threads if thread.is_alive()]
    server.close()
    service.shutdown()
    for failure in failures:
        print(f"serve: FAILED {failure}", file=sys.stderr)
    if alive:
        print(f"serve: FAILED {len(alive)} client(s) hung", file=sys.stderr)
        return 1
    if failures:
        return 1
    physical = _physical_reads(db) - reads_before
    if sum(charged) != physical:
        print(
            f"serve: FAILED NUM_IO conservation: queries were charged "
            f"{sum(charged)} page accesses, the pagers read {physical}",
            file=sys.stderr,
        )
        return 1
    stats = service.stats
    print(
        f"serve: self-test OK — {stats.completed} completed, "
        f"{stats.rejected} rejected, peak inflight {stats.peak_inflight}, "
        f"{physical} page accesses conserved; clean shutdown"
    )
    return 0


def _serve(args: argparse.Namespace) -> int:
    db, dataset = _serve_database(args)
    if args.self_test:
        return _serve_self_test(args, db, dataset)

    from repro.serve import ServiceConfig, SocketServer
    from repro.serve.service import QueryService

    service = QueryService(
        db,
        ServiceConfig(
            workers=args.workers, queue_capacity=args.queue_capacity
        ),
    )
    server = SocketServer(service, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(
        f"serve: listening on {host}:{port} "
        f"({args.workers} workers, queue {args.queue_capacity}; "
        f"JSON-lines protocol, see docs/service.md); Ctrl-C to stop"
    )
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        print("serve: shutting down")
    finally:
        server.close()
        service.shutdown()
    return 0


def _traced_query(args: argparse.Namespace) -> "object":
    """Build a dataset-backed database and run one traced query."""
    from repro import SubsequenceDatabase
    from repro.data import load_dataset
    from repro.obs import Tracer

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    tracer = Tracer(enabled=True)
    db = SubsequenceDatabase(omega=args.omega, features=4, tracer=tracer)
    db.insert(0, dataset.values)
    db.build(psm=args.engine == "psm")
    rng = np.random.default_rng(args.seed + 1)
    start = int(rng.integers(0, dataset.size - args.query_length))
    query = dataset.values[start : start + args.query_length].copy()
    db.reset_cache()
    return db.search(
        query,
        k=args.k,
        method=args.engine,
        deferred=args.deferred,
    )


def _trace(args: argparse.Namespace) -> int:
    import json

    result = _traced_query(args)
    profile = result.profile  # type: ignore[attr-defined]
    if profile is None:
        print("trace: query returned no profile", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(profile.to_chrome_trace(), handle)
    fetch_spans = profile.span_count("buffer.fetch")
    num_io = profile.stats.page_accesses
    total_spans = sum(
        count for count, _ in profile.span_totals().values()
    )
    print(
        f"trace: {args.engine} on {args.dataset}: "
        f"{total_spans} spans -> {args.out}"
    )
    print(
        f"trace: buffer.fetch spans={fetch_spans} NUM_IO={num_io} "
        f"({'conformant' if fetch_spans == num_io else 'MISMATCH'})"
    )
    if fetch_spans != num_io:
        print(
            "trace: span-level page accounting does not match the "
            "NUM_IO counter",
            file=sys.stderr,
        )
        return 1
    return 0


def _profile(args: argparse.Namespace) -> int:
    result = _traced_query(args)
    profile = result.profile  # type: ignore[attr-defined]
    if profile is None:
        print("profile: query returned no profile", file=sys.stderr)
        return 1
    print(
        f"profile: {args.engine} on {args.dataset} "
        f"(k={args.k}, NUM_IO={profile.stats.page_accesses}, "
        f"candidates={profile.stats.candidates})"
    )
    print(f"{'span':>24s} {'count':>8s} {'total ms':>10s} {'self ms':>10s}")
    for name, count, total_s, self_s in profile.top_spans(args.top):
        print(
            f"{name:>24s} {count:>8,d} {total_s * 1000:>10.2f} "
            f"{self_s * 1000:>10.2f}"
        )
    counters = profile.metrics.counters
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]:,g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.engines.base import METHODS
    from repro.shard.planner import POLICIES
    from repro.storage.sequences import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ranked subsequence matching via ranked union "
        "(SIGMOD 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one query with every engine")
    demo.add_argument("--dataset", default="WALK", help="dataset name")
    demo.add_argument("--size", type=int, default=40_000)
    demo.add_argument("--omega", type=int, default=32)
    demo.add_argument("--query-length", type=int, default=128)
    demo.add_argument("--k", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_demo)

    inventory = sub.add_parser(
        "inventory", help="print the Table 2 dataset inventory"
    )
    inventory.add_argument("--scale", type=float, default=1.0 / 256.0)
    inventory.add_argument("--seed", type=int, default=0)
    inventory.set_defaults(func=_inventory)

    scrub = sub.add_parser(
        "scrub", help="verify a saved database directory end to end"
    )
    scrub.add_argument("directory", help="database directory to verify")
    scrub.add_argument(
        "--backend",
        choices=BACKENDS,
        default="file",
        help="storage backend to load under (default: file)",
    )
    scrub.set_defaults(func=_scrub)

    recover = sub.add_parser(
        "recover",
        help="roll a durable root (checkpoint + wal.log) forward to its "
        "last committed state",
    )
    recover.add_argument(
        "root", help="durable root directory (holds checkpoint/ and wal.log)"
    )
    recover.add_argument(
        "--psm",
        action="store_true",
        help="also reattach PSM's sliding index",
    )
    recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="checkpoint after replay (truncates the WAL)",
    )
    recover.add_argument(
        "--backend",
        choices=BACKENDS,
        default="file",
        help="storage backend for the recovered database (default: file)",
    )
    recover.set_defaults(func=_recover)

    chaos = sub.add_parser(
        "chaos", help="run the chaos / metamorphic exactness harness"
    )
    chaos.add_argument(
        "--suite",
        choices=("search", "ingest", "serve", "all"),
        default="search",
        help="search = query-path invariants on unsharded and sharded "
        "worlds, shard loss included (default); ingest = crash-recovery "
        "exactness at seeded WAL/checkpoint crash points; serve = "
        "many-client service campaign (overload, faults, cancellation, "
        "deadlines) against the single-query oracle.  Every suite draws "
        "raw or z-normalized matching and the file or mmap backend",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--iterations", type=int, default=100)
    chaos.add_argument(
        "--verbose", action="store_true", help="print per-iteration progress"
    )
    chaos.set_defaults(func=_chaos)

    bench = sub.add_parser(
        "bench", help="run the kernel perf-regression gate"
    )
    bench.add_argument(
        "--json", metavar="PATH", help="write the JSON report to PATH"
    )
    bench.add_argument(
        "--baseline",
        default="benchmarks/baseline.json",
        help="baseline report to gate against",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current run as the new baseline instead of gating",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="fewer timing repeats (CI smoke); sizes and ratios unchanged",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=_bench)

    serve = sub.add_parser(
        "serve",
        help="run the concurrent query service (JSON-lines over TCP)",
    )
    serve.add_argument("--dataset", default="WALK", help="dataset name")
    serve.add_argument("--size", type=int, default=40_000)
    serve.add_argument("--omega", type=int, default=32)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 = ephemeral (printed)"
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--query-length", type=int, default=128)
    serve.add_argument("--k", type=int, default=5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--psm", action="store_true", help="also build the PSM index"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="serve a sharded database: split the dataset into N "
        "sequences, partition them across N shards, and answer queries "
        "across every shard: ru / ru-cost as one ranked union, other "
        "methods shard by shard into one collector (0 = unsharded)",
    )
    serve.add_argument(
        "--shard-policy",
        choices=POLICIES,
        default="hash",
        help="shard partitioning policy (with --shards)",
    )
    serve.add_argument(
        "--self-test",
        type=int,
        default=0,
        metavar="N",
        help="run N concurrent socket clients against the oracle, then "
        "shut down cleanly and exit 0/1 (CI smoke mode)",
    )
    serve.set_defaults(func=_serve)

    def add_query_options(command: argparse.ArgumentParser) -> None:
        command.add_argument("--size", type=int, default=40_000)
        command.add_argument("--omega", type=int, default=32)
        command.add_argument("--query-length", type=int, default=128)
        command.add_argument("--k", type=int, default=5)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--deferred",
            action="store_true",
            help="use the deferred retrieval variant",
        )

    trace = sub.add_parser(
        "trace", help="run one traced query, export a Chrome trace"
    )
    trace.add_argument("dataset", help="dataset name (e.g. WALK)")
    trace.add_argument("engine", choices=METHODS, help="engine to trace")
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace output path (default: trace.json)",
    )
    add_query_options(trace)
    trace.set_defaults(func=_trace)

    profile = sub.add_parser(
        "profile", help="run one traced query, print the hottest spans"
    )
    profile.add_argument(
        "dataset", nargs="?", default="WALK", help="dataset name"
    )
    profile.add_argument(
        "engine",
        nargs="?",
        choices=METHODS,
        default="ru-cost",
        help="engine to profile (default: ru-cost)",
    )
    profile.add_argument(
        "--top", type=int, default=10, help="span names to show"
    )
    add_query_options(profile)
    profile.set_defaults(func=_profile)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(sub)

    args = parser.parse_args(argv)
    handler = cast(Callable[[argparse.Namespace], int], args.func)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
