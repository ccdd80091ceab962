"""Concurrent query service for the repro library (``repro serve``).

Turns the single-query library into a concurrent front door while
keeping the paper's exactness contract intact under load:

* :mod:`repro.serve.queue` — the bounded FIFO admission queue, the
  service's one gate.
* :mod:`repro.serve.protocol` — the JSON-lines wire protocol.
* :mod:`repro.serve.service` — :class:`QueryService`, the embeddable
  threaded executor mapping each request onto ``QueryBudget`` /
  ``Deadline`` / ``CancellationToken``.
* :mod:`repro.serve.session` — the localhost socket server and a small
  line-protocol client.

The headline property is graceful degradation: overload produces typed
:class:`~repro.exceptions.ServiceOverloadedError` back-pressure with a
retry-after hint, timeouts produce
:class:`~repro.engines.base.PartialResult` responses with sound
exactness certificates, and storage faults come back as degraded or
typed-error responses — never a crash, never a silent drop.  See ``docs/service.md``.
"""

from repro.serve.protocol import (
    QueryRequest,
    decode_response,
    encode_error,
    encode_response,
    parse_request,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.service import (
    PendingQuery,
    QueryService,
    ServiceConfig,
    ServiceResponse,
    ServiceStats,
)
from repro.serve.session import ServeClient, SocketServer

__all__ = [
    "AdmissionQueue",
    "PendingQuery",
    "QueryRequest",
    "QueryService",
    "ServeClient",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceStats",
    "SocketServer",
    "decode_response",
    "encode_error",
    "encode_response",
    "parse_request",
]
