"""Localhost socket front end for the query service.

JSON-lines over TCP: each client connection writes one request object
per line and reads response lines back (stream requests interleave
match lines before the final summary).  The server is deliberately
boring — one daemon thread per connection, driven entirely by
:class:`~repro.serve.service.QueryService` — because all the policy
(queueing, degradation) lives in the service layer, where it is
testable in-process.

Robustness notes:

* Malformed lines produce a typed error *response* on the same
  connection; they never raise out of the handler.
* Sends carry a timeout: a slow client that stops reading is
  disconnected rather than allowed to wedge a handler thread
  mid-response.
* Accept and read loops are checkpointed against the service's
  :class:`~repro.serve.service.ShutdownControl` (lint rule RS013), so
  a shutdown is observed within one poll interval.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.concurrency import shared_across_queries
from repro.core.results import Match
from repro.exceptions import (
    ExecutionInterrupted,
    ProtocolError,
    UsageError,
)
from repro.serve import protocol
from repro.serve.service import PendingQuery, QueryService

_POLL_S = 0.1


@shared_across_queries
class SocketServer:
    """Threaded JSON-lines server wrapping one :class:`QueryService`.

    ``port=0`` (the default) binds an ephemeral port; read it back
    from :attr:`address` after :meth:`start`.  The server owns no
    query state — connections can be torn down at any time without
    affecting in-flight accounting in the service.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        send_timeout_s: float = 5.0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._send_timeout_s = send_timeout_s
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)``; raises before :meth:`start`."""
        if self._sock is None:
            raise UsageError("server not started")
        return self._sock.getsockname()[:2]

    def start(self) -> "SocketServer":
        """Bind, listen, and spawn the accept loop (idempotent)."""
        if self._sock is not None:
            return self
        self._service.start()
        sock = socket.create_server((self._host, self._port))
        sock.settimeout(_POLL_S)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def __enter__(self) -> "SocketServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting and release the listening socket.

        Does **not** shut down the wrapped service (the caller may be
        sharing it); established connections finish their in-flight
        request and then observe the closed socket.
        """
        sock = self._sock
        self._sock = None
        if sock is not None:
            sock.close()
        thread = self._accept_thread
        self._accept_thread = None
        if thread is not None:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Server loops
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                self._service.shutdown_control.checkpoint()
            except ExecutionInterrupted:
                break
            sock = self._sock
            if sock is None:
                break
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        conn.settimeout(self._send_timeout_s)
        try:
            reader = conn.makefile("rb")
            while True:
                try:
                    self._service.shutdown_control.checkpoint()
                except ExecutionInterrupted:
                    break
                try:
                    line = reader.readline()
                except (socket.timeout, OSError):
                    continue
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                if not self._serve_line(conn, text):
                    break
        finally:
            conn.close()

    def _serve_line(self, conn: socket.socket, text: str) -> bool:
        """Handle one request line; False = drop the connection."""
        request_id: Any = None
        try:
            try:
                obj = json.loads(text)
            except ValueError as error:
                raise ProtocolError(
                    f"request is not valid JSON: {error}"
                ) from None
            if isinstance(obj, dict):
                request_id = obj.get("id")
            request = protocol.parse_request(obj)
            pending = self._service.submit(request)
            if request.spec.kind == "stream":
                self._attach_stream_writer(conn, pending)
            response = pending.result()
            return self._send(conn, protocol.encode_response(response))
        except BaseException as error:  # typed error line, never a crash
            return self._send(conn, protocol.encode_error(error, request_id))

    def _attach_stream_writer(
        self, conn: socket.socket, pending: PendingQuery
    ) -> None:
        request_id = pending.request.request_id

        def emit(match: Match) -> None:
            # A failed interleaved send (slow client) is swallowed;
            # the final response send will fail too and the connection
            # will be dropped there.
            self._send(conn, protocol.encode_match_line(request_id, match))

        pending.on_match = emit

    def _send(self, conn: socket.socket, payload: Dict[str, Any]) -> bool:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            conn.sendall(data)
            return True
        except (socket.timeout, OSError):
            return False


class ServeClient:
    """Minimal blocking client for the JSON-lines protocol.

    For tests, the CLI self-test, and as executable protocol
    documentation.  Not thread-safe: use one client per thread.
    """

    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        self._conn = socket.create_connection((host, port), timeout=timeout_s)
        self._reader = self._conn.makefile("rb")

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._conn.close()

    def _read_object(self) -> Dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        decoded = json.loads(line.decode("utf-8"))
        if not isinstance(decoded, dict):
            raise ProtocolError("response must be a JSON object")
        return decoded

    def request_raw(self, obj: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Send one request; return every response line (undecoded)."""
        self._conn.sendall((json.dumps(obj) + "\n").encode("utf-8"))
        lines: List[Dict[str, Any]] = []
        final = False
        while not final:
            response = self._read_object()
            lines.append(response)
            final = bool(response.get("final", True))
        return lines

    def request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return the decoded final response.

        Raises the typed exception an error response encodes.  For
        stream requests the final summary is returned with the
        interleaved matches available under ``"streamed"``.
        """
        lines = self.request_raw(obj)
        final = protocol.decode_response(lines[-1])
        if len(lines) > 1:
            final = dict(final)
            final["streamed"] = [
                entry["match"] for entry in lines[:-1] if "match" in entry
            ]
        return final
