"""The query service: queueing, overload typing, timeouts.

Organised by layer, bottom up:

* :class:`AdmissionQueue` — FIFO order, typed full-queue rejection
  with a depth-scaled retry-after, close-drains-and-rejects.
* :class:`QueryService` in-process — exactness against the direct
  library oracle, typed overload rejections with retry-after hints,
  FIFO dispatch behind one held worker, no per-tenant rate limit,
  the saturation page budget, server-side timeout to
  :class:`PartialResult` conversion under an 8-thread hammer, and
  drain/cancel shutdown semantics.
* The JSON-lines protocol (including a Hypothesis fuzzer over
  ``parse_request``) and :class:`SocketServer` end to end.

These are the runtime counterparts of the chaos `serve` campaign: the
campaign randomises scenarios, this file pins each property with a
deterministic instance.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SubsequenceDatabase
from repro.core.clock import FakeClock
from repro.engines.base import PartialResult, QuerySpec
from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    ServiceOverloadedError,
)
from repro.serve import service as service_module
from repro.serve import (
    AdmissionQueue,
    QueryRequest,
    QueryService,
    ServeClient,
    ServiceConfig,
    SocketServer,
    decode_response,
    encode_error,
    parse_request,
)

THREADS = 8

#: Every key :func:`parse_request` reads.
REQUEST_KEYS = (
    "kind", "query", "k", "rho", "epsilon", "method", "deferred",
    "on_fault", "normalize", "tenant", "id", "timeout_s",
    "max_pages", "max_candidates", "profile",
)

#: JSON numbers, including integers beyond float range and the
#: non-finite floats ``json.loads`` accepts.
json_numbers = (
    st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
)

#: Any value a JSON document can decode to, nested; the sampled strings
#: are valid field values, so some requests get past the type checks.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | json_numbers
    | st.text(max_size=8)
    | st.sampled_from(
        ["knn", "range", "stream", "ru", "ru-cost", "seqscan",
         "cost-aware", "degrade", "raise"]
    ),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _run_threads(worker, count: int = THREADS) -> None:
    barrier = threading.Barrier(count)
    failures: List[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def _make_db(size: int = 2000, omega: int = 16) -> SubsequenceDatabase:
    rng = np.random.default_rng(7)
    db = SubsequenceDatabase(omega=omega, features=4, buffer_fraction=0.2)
    db.insert(0, np.asarray(rng.standard_normal(size).cumsum()))
    db.insert(1, np.asarray(rng.standard_normal(size // 2).cumsum()))
    db.build()
    return db


def _request(
    query: List[float], tenant: str = "default", timeout_s=None, **spec: Any
) -> QueryRequest:
    """An in-process request; ``spec`` holds :class:`QuerySpec` fields."""
    return QueryRequest(
        query=tuple(query),
        spec=QuerySpec(rho=2, **spec),
        tenant=tenant,
        timeout_s=timeout_s,
    )


class _HeldWorker:
    """Park a one-worker service's only worker inside a stream request.

    The stream's ``on_match`` hook blocks on an event, so everything
    submitted inside the ``with`` block queues up behind it; leaving
    the block releases the worker.  The service is started here, after
    the hook is attached, so the worker cannot outrun the hook.
    """

    def __init__(self, service: QueryService, query: List[float]) -> None:
        self._service = service
        self._entered = threading.Event()
        self._release = threading.Event()
        self.pending = service.submit(_request(query, kind="stream", k=2))
        self.pending.on_match = self._hold

    def _hold(self, match: Any) -> None:
        self._entered.set()
        assert self._release.wait(timeout=30.0)

    def __enter__(self) -> "_HeldWorker":
        self._service.start()
        assert self._entered.wait(timeout=30.0)
        assert self._service.queue.depth == 0
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._release.set()


@pytest.fixture(scope="module")
def db() -> SubsequenceDatabase:
    return _make_db()


@pytest.fixture(scope="module")
def query(db: SubsequenceDatabase) -> List[float]:
    return [float(v) for v in db.store.peek_subsequence(0, 400, 48)]


# ---------------------------------------------------------------------------
# AdmissionQueue
# ---------------------------------------------------------------------------


class TestAgingPriorityQueue:
    """:class:`AdmissionQueue` (the ids predate its FIFO order)."""

    def test_fifo_within_a_class(self) -> None:
        queue = AdmissionQueue(capacity=8)
        for i in range(4):
            queue.put(i)
        assert [queue.get(timeout=0) for _ in range(4)] == [0, 1, 2, 3]

    def test_full_queue_rejects_equal_class_with_retry_after(self) -> None:
        queue = AdmissionQueue(capacity=2, retry_after_hint_s=0.1)
        queue.put("a")
        queue.put("b")
        with pytest.raises(ServiceOverloadedError) as info:
            queue.put("c")
        assert info.value.reason == "queue-full"
        # Depth-scaled hint: 2 queued items * 0.1s base.
        assert info.value.retry_after_s == pytest.approx(0.2)
        assert queue.depth == 2

    def test_close_drains_in_key_order_and_rejects_put(self) -> None:
        queue = AdmissionQueue(capacity=8)
        queue.put("first")
        queue.put("second")
        drained = queue.close()
        assert drained == ["first", "second"]
        with pytest.raises(ServiceOverloadedError) as info:
            queue.put("late")
        assert info.value.reason == "shutdown"
        assert queue.get(timeout=0) is None

    def test_capacity_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=0)


# ---------------------------------------------------------------------------
# QueryService in-process
# ---------------------------------------------------------------------------


class TestQueryService:
    def test_knn_matches_direct_search(self, db, query) -> None:
        direct = db.search(query, k=5, rho=2, method="ru-cost")
        with QueryService(db) as service:
            response = service.query(
                _request(query, k=5, method="ru-cost"), timeout=30.0
            )
        assert response.exact and not response.partial
        assert [(m.sid, m.start, m.distance) for m in response.result.matches] \
            == [(m.sid, m.start, m.distance) for m in direct.matches]

    def test_one_tenant_back_to_back_is_never_rate_limited(
        self, db, query
    ) -> None:
        # The queue is the only gate: with the default config, 24
        # submits under one tenant name, with no time passing on the
        # clock, all queue and all resolve exact.
        gold = db.search(query, k=2, rho=2, method="seqscan")
        service = QueryService(db, clock=FakeClock())
        try:
            with _HeldWorker(service, query):
                pendings = [
                    service.submit(_request(query, k=2, method="seqscan"))
                    for _ in range(24)
                ]
            responses = [pending.result(timeout=30.0) for pending in pendings]
        finally:
            service.shutdown(timeout=30.0)
        assert service.stats.rejected == 0
        for response in responses:
            assert response.tenant == "default"
            assert response.exact and not response.partial
            assert response.result.matches == gold.matches

    def test_timeout_converts_to_sound_partial_under_hammer(
        self, db, query
    ) -> None:
        # Eight threads, each submitting a query whose deadline expires
        # before its first engine checkpoint (the FakeClock auto-advance
        # outruns the sub-millisecond timeout).  Every response must
        # resolve — partial with reason "deadline" and a certificate no
        # better than its reported matches — and none may raise or hang.
        gold = db.search(query, k=4, rho=2, method="seqscan")
        gold_set = {(m.sid, m.start): m.distance for m in gold.matches}
        clock = FakeClock(auto_advance=0.001)
        responses: List[Any] = []
        record = threading.Lock()
        with QueryService(db, clock=clock) as service:

            def worker(index: int) -> None:
                response = service.query(
                    _request(
                        query, tenant=f"t{index}", timeout_s=0.0005,
                        k=4, method="seqscan",
                    ),
                    timeout=60.0,
                )
                with record:
                    responses.append(response)

            _run_threads(worker)
        assert len(responses) == THREADS
        for response in responses:
            result = response.result
            assert isinstance(result, PartialResult)
            assert result.reason == "deadline"
            # Soundness: every gold match below the certificate must be
            # present in the partial's reported matches.
            reported = {(m.sid, m.start) for m in result.matches}
            for key, distance in gold_set.items():
                if distance < result.certificate - 1e-9:
                    assert key in reported

    def test_queue_full_rejection_carries_retry_after(self, db, query) -> None:
        # One held worker and a capacity-1 queue force the second
        # enqueue to bounce with "queue-full".
        config = ServiceConfig(
            workers=1, queue_capacity=1, retry_after_hint_s=0.2
        )
        service = QueryService(db, config=config)
        try:
            with _HeldWorker(service, query):
                service.submit(_request(query, k=3))  # fills the queue
                with pytest.raises(ServiceOverloadedError) as info:
                    service.submit(_request(query, k=3))
        finally:
            service.shutdown(timeout=30.0)
        assert info.value.reason == "queue-full"
        assert info.value.retry_after_s is not None
        assert info.value.retry_after_s > 0.0

    @pytest.mark.parametrize(
        "gap_s, expected",
        [
            # Submission order is dispatch order, whether the requests
            # arrive at the same instant or far apart, and whatever
            # their tenant labels say.
            (0.0, ["interactive", "batch"]),
            (0.6, ["batch", "interactive"]),
        ],
    )
    def test_dispatch_order_behind_one_busy_worker(
        self, db, query, gap_s, expected
    ) -> None:
        clock = FakeClock()
        service = QueryService(db, ServiceConfig(workers=1), clock=clock)
        executed: List[str] = []
        try:
            with _HeldWorker(service, query):
                for name in expected:
                    pending = service.submit(
                        _request(query, tenant=name, k=2, method="seqscan")
                    )
                    # One worker, so completion order is execution order.
                    pending.future.add_done_callback(
                        lambda _future, name=name: executed.append(name)
                    )
                    clock.advance(gap_s)
        finally:
            service.shutdown(timeout=30.0)
        assert executed == expected

    def test_saturation_caps_every_request_at_the_page_budget(
        self, query, monkeypatch
    ) -> None:
        # Tier 1 engages when the queue behind a starting request is at
        # least half full; every request, whatever its tenant label,
        # then runs under the (here: tiny) page budget and must come
        # back as a certified partial.
        monkeypatch.setattr(service_module, "SATURATED_PAGE_BUDGET", 1)
        db = _make_db()
        gold = db.search(query, k=4, rho=2, method="seqscan")
        service = QueryService(
            db, ServiceConfig(workers=1, queue_capacity=4), clock=FakeClock()
        )
        try:
            with _HeldWorker(service, query):
                squeezed = [
                    service.submit(
                        _request(query, tenant=name, k=4, method="seqscan")
                    )
                    for name in ("default", "vip")
                ]
                for _ in range(2):  # keep the queue past the watermark
                    service.submit(_request(query, k=1, method="seqscan"))
            responses = [pending.result(timeout=30.0) for pending in squeezed]
        finally:
            service.shutdown(timeout=30.0)
        for response in responses:
            assert response.degradation_tier == 1
            result = response.result
            assert isinstance(result, PartialResult)
            assert result.reason == "budget:pages"
            reported = {(m.sid, m.start) for m in result.matches}
            for match in gold.matches:
                if match.distance < result.certificate - 1e-9:
                    assert (match.sid, match.start) in reported

    def test_shutdown_fails_queued_requests_with_typed_error(
        self, db, query
    ) -> None:
        config = ServiceConfig(workers=1, queue_capacity=8)
        service = QueryService(db, config=config)  # never started
        pending = service.submit(_request(query, k=3))
        service.shutdown(drain=False, timeout=1.0)
        with pytest.raises(ServiceOverloadedError) as info:
            pending.result(timeout=5.0)
        assert info.value.reason == "shutdown"
        with pytest.raises(ServiceOverloadedError):
            service.submit(_request(query, k=3))

    def test_cancel_resolves_as_partial(self, db, query) -> None:
        with QueryService(db) as service:
            pending = service.submit(_request(query, k=4, method="seqscan"))
            pending.cancel()
            # Either the cancel landed before execution finished
            # (partial, reason "cancelled") or the query won the race
            # and completed exactly; both are legal, neither may hang.
            response = pending.result(timeout=30.0)
        if isinstance(response.result, PartialResult):
            assert response.result.reason == "cancelled"

    def test_stream_interrupt_certificate_capped_by_emitted(
        self, db, query
    ) -> None:
        # An interrupted stream reports only *emitted* matches; its
        # certificate must never promise completeness beyond the last
        # emitted distance (unemitted-but-examined candidates sit there).
        clock = FakeClock(auto_advance=0.001)
        with QueryService(db, clock=clock) as service:
            response = service.query(
                _request(
                    query, timeout_s=0.2, kind="stream", k=6, method="ru"
                ),
                timeout=60.0,
            )
        result = response.result
        if isinstance(result, PartialResult):
            if result.matches:
                assert result.certificate <= result.matches[-1].distance + 1e-9
            else:
                assert result.certificate == 0.0


# ---------------------------------------------------------------------------
# Protocol + socket end to end
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_request_rejects_garbage(self) -> None:
        with pytest.raises(ProtocolError):
            parse_request({"kind": "nope", "query": [1.0]})
        with pytest.raises(ProtocolError):
            parse_request({"kind": "knn"})  # missing query
        with pytest.raises(ProtocolError):
            parse_request({"kind": "knn", "query": "not-a-list"})
        with pytest.raises(ProtocolError):
            parse_request([1, 2, 3])  # not an object

    @pytest.mark.parametrize(
        "field, value",
        [
            ("method", "nope"),
            ("on_fault", "nope"),
            ("k", 0),
            ("rho", -1),
            ("k", "3"),
            ("method", 7),
            ("normalize", 1),
        ],
    )
    def test_spec_violations_are_protocol_errors(self, field, value) -> None:
        with pytest.raises(ProtocolError, match=field):
            parse_request({"query": [0.0] * 32, field: value})
        with pytest.raises(ProtocolError, match="epsilon"):
            parse_request({"kind": "range", "query": [0.0], "epsilon": -1})

    def test_stream_refuses_a_method_outside_ranked_union(self) -> None:
        with pytest.raises(ConfigurationError, match="method"):
            QuerySpec(rho=2, kind="stream", method="hlmj")
        with pytest.raises(ProtocolError, match="method"):
            parse_request(
                {"kind": "stream", "query": [0.0] * 32, "method": "hlmj"}
            )

    def test_parse_builds_the_spec_once(self) -> None:
        request = parse_request(
            {
                "kind": "stream", "query": [0.0] * 40, "k": 2,
                "method": "ru", "normalize": True,
                "deferred": True,
            }
        )
        assert request.spec == QuerySpec(
            rho=2, kind="stream", k=2, method="ru",
            normalize=True, on_fault="degrade",
            deferred=False,  # the wire flag only applies to knn
        )

    def test_decode_reconstructs_overload_error(self) -> None:
        obj = {
            "error": "ServiceOverloadedError",
            "reason": "queue-full",
            "retry_after_s": 1.5,
            "message": "slow down",
        }
        with pytest.raises(ServiceOverloadedError) as info:
            decode_response(obj)
        assert info.value.reason == "queue-full"
        assert info.value.retry_after_s == pytest.approx(1.5)
        # A round trip over the wire keeps the message as it was: the
        # retry-after suffix is not appended a second time.
        original = ServiceOverloadedError("queue-full", retry_after_s=0.018)
        with pytest.raises(ServiceOverloadedError) as info:
            decode_response(encode_error(original))
        assert str(info.value) == str(original)

    def test_certificate_null_decodes_to_inf(self) -> None:
        obj = {"ok": True, "status": "partial", "certificate": None}
        assert decode_response(obj)["certificate"] == math.inf

    def test_exact_response_is_json_serializable(self, db, query) -> None:
        from repro.serve.protocol import encode_response

        with QueryService(db) as service:
            response = service.query(_request(query, k=3), timeout=30.0)
        encoded = encode_response(response)
        assert encoded["status"] == "exact"
        assert "certificate" not in encoded  # only partials carry one
        assert json.loads(json.dumps(encoded)) == encoded


@settings(max_examples=300, deadline=None)
@given(
    obj=json_values
    | st.fixed_dictionaries(
        {}, optional={key: json_values for key in REQUEST_KEYS}
    )
    | st.fixed_dictionaries(
        {"query": st.lists(json_numbers, min_size=1, max_size=40)},
        optional={
            key: json_values for key in REQUEST_KEYS if key != "query"
        },
    )
)
@example(obj={"query": [10**400]})  # beyond float range
@example(obj={"query": [0.0] * 32, "timeout_s": -(10**400)})
def test_parse_request_returns_a_request_or_a_protocol_error(obj) -> None:
    # The wire contract: whatever JSON arrives, parsing either yields a
    # request or refuses it with a ProtocolError, never another error.
    try:
        request = parse_request(obj)
    except ProtocolError:
        return
    assert isinstance(request, QueryRequest)


class TestSocketServer:
    def test_concurrent_clients_mixed_engines(self, db, query) -> None:
        direct: Dict[str, List[Any]] = {}
        for method in ("seqscan", "hlmj", "ru", "ru-cost"):
            result = db.search(query, k=4, rho=2, method=method)
            direct[method] = [
                [m.sid, m.start, repr(m.distance)] for m in result.matches
            ]
        failures: List[str] = []
        record = threading.Lock()
        with QueryService(db) as service:
            with SocketServer(service) as server:
                host, port = server.address

                def worker(index: int) -> None:
                    method = ("seqscan", "hlmj", "ru", "ru-cost")[index % 4]
                    with ServeClient(host, port) as client:
                        out = client.request(
                            {
                                "kind": "knn",
                                "query": list(query),
                                "k": 4,
                                "rho": 2,
                                "method": method,
                                "tenant": f"sock-{index}",
                                "id": index,
                            }
                        )
                    got = [
                        [row[0], row[1], repr(row[3])]
                        for row in out["matches"]
                    ]
                    with record:
                        if out["status"] != "exact":
                            failures.append(f"{method}: {out['status']}")
                        if got != direct[method]:
                            failures.append(f"{method}: digest mismatch")

                _run_threads(worker)
        assert failures == []

    def test_normalize_over_the_wire_equals_direct_search(
        self, db, query
    ) -> None:
        direct = db.search(query, k=4, rho=2, normalize=True)
        with QueryService(db) as service:
            with SocketServer(service) as server:
                with ServeClient(*server.address) as client:
                    out = client.request(
                        {"query": list(query), "k": 4, "rho": 2,
                         "normalize": True}
                    )
                    for kind in ("knn", "stream"):
                        with pytest.raises(ProtocolError, match="method"):
                            client.request(
                                {"query": list(query), "kind": kind,
                                 "method": "nope"}
                            )
            # The bad requests never reached a worker.
            assert service.stats.submitted == 1
            assert service.stats.errors == 0
        assert out["status"] == "exact"
        assert [
            (row[0], row[1], row[2], repr(row[3])) for row in out["matches"]
        ] == [
            (m.sid, m.start, m.length, repr(m.distance))
            for m in direct.matches
        ]

    def test_stream_interleaves_match_lines(self, db, query) -> None:
        with QueryService(db) as service:
            with SocketServer(service) as server:
                host, port = server.address
                with ServeClient(host, port) as client:
                    lines = client.request_raw(
                        {
                            "kind": "stream",
                            "query": list(query),
                            "k": 3,
                            "rho": 2,
                            "id": "s1",
                        }
                    )
        assert lines[-1].get("final", True)
        streamed = [line["match"] for line in lines[:-1] if "match" in line]
        final_matches = lines[-1]["matches"]
        assert streamed == final_matches
        assert len(streamed) == 3

    def test_malformed_line_returns_typed_error(self, db) -> None:
        with QueryService(db) as service:
            with SocketServer(service) as server:
                host, port = server.address
                with ServeClient(host, port) as client:
                    client._conn.sendall(b"this is not json\n")
                    error_line = client._read_object()
                    with pytest.raises(ProtocolError):
                        decode_response(error_line)
                    # The connection survives a bad line.
                    out = client.request(
                        {
                            "kind": "knn",
                            "query": [0.0] * 32,
                            "k": 1,
                            "method": "seqscan",
                        }
                    )
        assert "matches" in out
