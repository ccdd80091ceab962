"""JSON-lines wire protocol for the query service.

One request per line, one (or, for streams, several) response lines
back.  Requests are plain JSON objects::

    {"kind": "knn", "query": [..], "k": 5, "method": "ru-cost",
     "tenant": "ops", "timeout_s": 0.5, "id": 17}

``kind`` is ``"knn"``, ``"range"``, or ``"stream"``.  Responses echo
``id`` and carry ``"ok"``: a ``true`` response holds matches, status
(``"exact"`` / ``"partial"``), stats, and optionally a profile; a
``false`` response is a typed error with ``reason`` and, for overload,
``retry_after_s``.  Stream responses interleave ``{"match": [...]}``
lines before the final summary line (``"final": true``).

Parsing is strict: anything malformed raises
:class:`~repro.exceptions.ProtocolError` *before* the request touches
the query layer, and is reported to the client as an error response —
a bad client can never crash or wedge a worker.

The exactness certificate of a partial result is serialised as
``null`` when infinite (strict JSON has no ``Infinity``); decoding maps
it back to ``inf``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engines.base import PartialResult, QuerySpec, SearchResult
from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
)


@dataclass(frozen=True)
class QueryRequest:
    """One validated service request (wire or in-process).

    ``spec`` says what is asked (built once, here at the protocol
    edge; the service only stamps the database's norm order onto it);
    the remaining fields say for whom and under which limits.
    """

    query: Tuple[float, ...]
    spec: QuerySpec
    tenant: str = "default"
    request_id: Optional[Any] = None
    timeout_s: Optional[float] = None
    max_pages: Optional[int] = None
    max_candidates: Optional[int] = None
    profile: bool = False


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _finite(value: Any, name: str) -> float:
    """``value`` (a JSON number) as a finite float.

    A JSON integer may lie beyond float range; that is refused like an
    infinity rather than escaping as :class:`OverflowError`.
    """
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    _require(math.isfinite(result), f"{name} must be finite")
    return result


def _float_field(
    obj: Dict[str, Any], name: str, allow_none: bool = True
) -> Optional[float]:
    value = obj.get(name)
    if value is None:
        _require(allow_none, f"missing required field {name!r}")
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{name!r} must be a number, got {type(value).__name__}",
    )
    return _finite(value, repr(name))


def _int_field(
    obj: Dict[str, Any], name: str, default: Optional[int]
) -> Optional[int]:
    value = obj.get(name, default)
    if value is None:
        return None
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name!r} must be an integer, got {type(value).__name__}",
    )
    return value


def _str_field(obj: Dict[str, Any], name: str, default: str) -> str:
    value = obj.get(name, default)
    _require(
        isinstance(value, str),
        f"{name!r} must be a string, got {type(value).__name__}",
    )
    return value


def _bool_field(obj: Dict[str, Any], name: str) -> bool:
    value = obj.get(name, False)
    _require(isinstance(value, bool), f"{name!r} must be a boolean")
    return value


def parse_request(obj: Any) -> QueryRequest:
    """Validate one decoded JSON object into a :class:`QueryRequest`.

    Raises :class:`~repro.exceptions.ProtocolError` on any shape,
    type, or range violation; the error message names the offending
    field.  Shape, type and finiteness are checked here; the value
    ranges are :class:`~repro.engines.base.QuerySpec`'s own, so the
    wire accepts exactly what the library accepts.
    """
    _require(isinstance(obj, dict), "request must be a JSON object")
    raw_query = obj.get("query")
    _require(
        isinstance(raw_query, (list, tuple)) and len(raw_query) > 0,
        "query must be a non-empty array of numbers",
    )
    query: List[float] = []
    for index, value in enumerate(raw_query):
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"query[{index}] must be a number",
        )
        query.append(_finite(value, f"query[{index}]"))

    tenant = _str_field(obj, "tenant", "default")
    _require(tenant != "", "tenant must be a non-empty string")

    kind = _str_field(obj, "kind", "knn")
    fields: Dict[str, Any] = {
        "kind": kind,
        "method": _str_field(obj, "method", "ru-cost"),
        # Streams emit incrementally, which deferral's batching would
        # defeat: the wire flag only ever applied to knn.
        "deferred": _bool_field(obj, "deferred") and kind == "knn",
        "on_fault": _str_field(obj, "on_fault", "degrade"),
        "normalize": _bool_field(obj, "normalize"),
    }
    k = _int_field(obj, "k", None)
    if k is not None:
        fields["k"] = k
    if kind == "range":
        fields["epsilon"] = _float_field(obj, "epsilon", allow_none=False)
    try:
        spec = QuerySpec.for_query(
            query, _int_field(obj, "rho", None), **fields
        )
    except (ConfigurationError, QueryError) as error:
        raise ProtocolError(str(error)) from None

    timeout_s = _float_field(obj, "timeout_s")
    _require(
        timeout_s is None or timeout_s > 0,
        f"timeout_s must be > 0, got {timeout_s}",
    )
    max_pages = _int_field(obj, "max_pages", None)
    _require(
        max_pages is None or max_pages >= 0,
        f"max_pages must be >= 0, got {max_pages}",
    )
    max_candidates = _int_field(obj, "max_candidates", None)
    _require(
        max_candidates is None or max_candidates >= 0,
        f"max_candidates must be >= 0, got {max_candidates}",
    )

    return QueryRequest(
        query=tuple(query),
        spec=spec,
        tenant=tenant,
        request_id=obj.get("id"),
        timeout_s=timeout_s,
        max_pages=max_pages,
        max_candidates=max_candidates,
        profile=_bool_field(obj, "profile"),
    )


def parse_request_line(line: str) -> QueryRequest:
    """Parse one raw protocol line (JSON decode + validation)."""
    try:
        obj = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    return parse_request(obj)


# ----------------------------------------------------------------------
# Encoding (server -> client)
# ----------------------------------------------------------------------


def _encode_matches(result: SearchResult) -> List[List[float]]:
    return [
        [match.sid, match.start, match.length, match.distance]
        for match in result.matches
    ]


def encode_response(response: Any) -> Dict[str, Any]:
    """Encode a :class:`~repro.serve.service.ServiceResponse` as the
    final JSON-able response object."""
    result: SearchResult = response.result
    partial = isinstance(result, PartialResult)
    payload: Dict[str, Any] = {
        "ok": True,
        "final": True,
        "id": response.request_id,
        "kind": response.kind,
        "tenant": response.tenant,
        "status": "partial" if partial else "exact",
        "matches": _encode_matches(result),
        "degraded": result.degraded,
        "stats": asdict(result.stats),
        "queue_wait_s": response.queue_wait_s,
        "execution_s": response.execution_s,
        "degradation_tier": response.degradation_tier,
    }
    if partial:
        assert isinstance(result, PartialResult)
        payload["reason"] = result.reason
        payload["certificate"] = (
            None if math.isinf(result.certificate) else result.certificate
        )
    if result.fault_report is not None:
        payload["faults"] = result.fault_report.total
    if result.profile is not None and response.want_profile:
        payload["profile"] = result.profile.as_dict()
    return payload


def encode_match_line(
    request_id: Optional[Any], match: Any
) -> Dict[str, Any]:
    """One interleaved stream-match line (``"final"`` absent/false)."""
    return {
        "ok": True,
        "final": False,
        "id": request_id,
        "match": [match.sid, match.start, match.length, match.distance],
    }


def encode_error(
    error: BaseException, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """Encode any failure as a typed error response object."""
    payload: Dict[str, Any] = {
        "ok": False,
        "final": True,
        "id": request_id,
        "error": type(error).__name__,
        "message": str(error),
    }
    reason = getattr(error, "reason", None)
    if reason is not None:
        payload["reason"] = reason
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
    return payload


# ----------------------------------------------------------------------
# Decoding (client side)
# ----------------------------------------------------------------------


def decode_response(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Interpret one decoded response object on the client side.

    Returns the object unchanged when ``ok`` is true (mapping a
    ``null`` certificate back to ``inf``); raises the typed exception
    an error response encodes (:class:`ServiceOverloadedError` keeps
    its ``reason`` and ``retry_after_s``), or plain
    :class:`~repro.exceptions.ReproError` for server-side failures
    without a dedicated client-side type.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("response must be a JSON object")
    if obj.get("ok"):
        if obj.get("certificate", "absent") is None:
            obj = dict(obj)
            obj["certificate"] = math.inf
        return obj
    name = obj.get("error", "ReproError")
    message = obj.get("message", "service error")
    if name == "ServiceOverloadedError":
        raise ServiceOverloadedError(
            obj.get("reason", "unknown"),
            retry_after_s=obj.get("retry_after_s"),
            message=message,
        )
    if name == "ProtocolError":
        raise ProtocolError(message)
    raise ReproError(message)
