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

from repro.engines.base import (
    KINDS,
    METHODS,
    ON_FAULT,
    PartialResult,
    SearchResult,
)
from repro.exceptions import (
    AdmissionRejectedError,
    ProtocolError,
    ReproError,
    ServiceOverloadedError,
)


@dataclass(frozen=True)
class QueryRequest:
    """One validated service request (wire or in-process)."""

    kind: str
    query: Tuple[float, ...]
    tenant: str = "default"
    request_id: Optional[Any] = None
    k: int = 10
    epsilon: float = 0.0
    method: str = "ru-cost"
    rho: Optional[int] = None
    deferred: bool = False
    timeout_s: Optional[float] = None
    max_pages: Optional[int] = None
    max_candidates: Optional[int] = None
    on_fault: str = "degrade"
    profile: bool = False


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


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
    result = float(value)
    _require(math.isfinite(result), f"{name!r} must be finite")
    return result


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


def parse_request(obj: Any) -> QueryRequest:
    """Validate one decoded JSON object into a :class:`QueryRequest`.

    Raises :class:`~repro.exceptions.ProtocolError` on any shape,
    type, or range violation; the error message names the offending
    field.
    """
    _require(isinstance(obj, dict), "request must be a JSON object")
    kind = obj.get("kind", "knn")
    _require(
        kind in KINDS, f"kind must be one of {KINDS}, got {kind!r}"
    )
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
        item = float(value)
        _require(math.isfinite(item), f"query[{index}] must be finite")
        query.append(item)

    tenant = obj.get("tenant", "default")
    _require(
        isinstance(tenant, str) and tenant != "",
        "tenant must be a non-empty string",
    )

    k = _int_field(obj, "k", 10)
    assert k is not None
    _require(k >= 1, f"k must be >= 1, got {k}")

    epsilon = 0.0
    if kind == "range":
        parsed_epsilon = _float_field(obj, "epsilon", allow_none=False)
        assert parsed_epsilon is not None
        epsilon = parsed_epsilon
        _require(epsilon >= 0, f"epsilon must be >= 0, got {epsilon}")

    method = obj.get("method", "ru-cost")
    _require(
        method in METHODS,
        f"method must be one of {METHODS}, got {method!r}",
    )

    rho = _int_field(obj, "rho", None)
    _require(rho is None or rho >= 0, f"rho must be >= 0, got {rho}")

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

    on_fault = obj.get("on_fault", "degrade")
    _require(
        on_fault in ON_FAULT,
        f"on_fault must be one of {ON_FAULT}, got {on_fault!r}",
    )

    deferred = obj.get("deferred", False)
    _require(isinstance(deferred, bool), "deferred must be a boolean")
    profile = obj.get("profile", False)
    _require(isinstance(profile, bool), "profile must be a boolean")

    return QueryRequest(
        kind=kind,
        query=tuple(query),
        tenant=tenant,
        request_id=obj.get("id"),
        k=k,
        epsilon=epsilon,
        method=method,
        rho=rho,
        deferred=deferred,
        timeout_s=timeout_s,
        max_pages=max_pages,
        max_candidates=max_candidates,
        on_fault=on_fault,
        profile=profile,
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

#: Error names mapped back to typed exceptions on the client.
_ERROR_TYPES = {
    "ProtocolError": ProtocolError,
    "ServiceOverloadedError": ServiceOverloadedError,
    "AdmissionRejectedError": AdmissionRejectedError,
}


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
    exc_type = _ERROR_TYPES.get(name, ReproError)
    raise exc_type(message)
