"""ADR front-end service: queries over a socket.

Figure 2 of the paper shows a standalone "ADR Front-end Process" that
clients connect to ("the socket interface is used for sequential
clients").  :class:`ADRServer` is that process: a thin wire adapter
serving length-prefixed JSON frames of the
:mod:`repro.frontend.protocol` schema on a TCP port, with all query
scheduling delegated to a
:class:`~repro.frontend.queryservice.QueryService` -- concurrent
connections are admitted, batched and executed with cross-query scan
sharing (see ``docs/service.md``).  :class:`ADRClient` is the matching
client; one client may be shared between threads (requests on one
connection are serialized under a lock).

Message envelope (one frame per message; see ``protocol.write_frame``):

- request: ``{"op": "query", "query": {...}}``, ``{"op": "stats"}``,
  ``{"op": "health"}``, ``{"op": "drain"}`` or ``{"op": "ping"}``
- response: ``{"ok": true, "result": {...}}`` (query responses carry a
  ``"service"`` object with queue/batch/sharing diagnostics) or
  ``{"ok": false, "code": "bad_request"|"overloaded"|"internal"|
  "shard_unavailable"|"deadline_exceeded", "error": "...",
  "details": {...}}``

Frames are the only dialect.  A framing error -- a truncated header, a
torn payload, bytes that are not a frame at all (their first four read
as a declared length over ``MAX_FRAME_BYTES``) -- answers one framed
``bad_request`` and closes the connection: byte offsets on the stream
are unrecoverable.
"""

from __future__ import annotations

import socket
import socketserver
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.frontend.adr import ADR
from repro.frontend.protocol import (
    DeadlineExceededError,
    NotAnObjectError,
    ProtocolError,
    error_to_dict,
    query_from_dict,
    query_to_dict,
    read_frame,
    result_from_dict,
    result_to_dict,
    write_frame,
)
from repro.frontend.query import RangeQuery
from repro.frontend.queryservice import (
    QueryService,
    ServiceClosedError,
    ServiceOverloadedError,
    ServicePolicy,
)
from repro.runtime.engine import QueryResult

__all__ = ["ADRServer", "ADRClient", "RemoteQueryError"]

#: Exception classes whose wire error code is ``bad_request`` -- the
#: query itself is at fault (malformed payload, unknown dataset/
#: aggregation, region selecting nothing); retrying unchanged cannot
#: succeed.
_BAD_REQUEST_ERRORS = (ProtocolError, KeyError, ValueError)


class RemoteQueryError(RuntimeError):
    """A server-side failure relayed over the wire.

    Subclasses :class:`RuntimeError` for back-compat with pre-code
    clients; new callers dispatch on :attr:`code` (one of
    ``protocol.ERROR_CODES``) and read machine-readable fields --
    e.g. the overload responses' ``retry_after_s`` -- from
    :attr:`details`.
    """

    def __init__(
        self,
        message: str,
        code: str = "internal",
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.details: Dict[str, Any] = dict(details or {})


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                message = read_frame(self.rfile)
            except NotAnObjectError as e:
                # A whole frame was read: answer it and keep serving.
                write_frame(self.wfile, error_to_dict("bad_request", e))
                continue
            except ProtocolError as e:
                # Framing desync: the stream's byte offsets are
                # unrecoverable, so answer once and close loudly.
                write_frame(self.wfile, error_to_dict("bad_request", e))
                return
            if message is None:
                return
            write_frame(self.wfile, self._dispatch_safe(message))

    def _dispatch_safe(self, message: dict) -> dict:
        try:
            return self.server.adr_dispatch(message)
        except Exception as e:  # dispatch must never kill the connection
            return error_to_dict("internal", e)


class ADRServer(socketserver.ThreadingTCPServer):
    """Serves one ADR instance on ``(host, port)``.

    Each connection runs on its own handler thread; all of them submit
    into one shared :class:`QueryService`, which owns admission
    control, batching and scan sharing.  Pass ``policy`` to tune it, or
    ``service`` to share an externally managed one (the server then
    does not close it on exit).

    Liveness and lifecycle ops: ``{"op": "health"}`` reports
    serving/draining status plus queue depth, and ``{"op": "drain"}``
    flips the server into draining mode -- already-admitted queries
    finish, new ``query`` ops answer ``shard_unavailable``, and
    ``ping``/``stats``/``health`` keep working so probes can watch the
    drain complete.

    Use as a context manager (binds immediately, serves on a daemon
    thread)::

        with ADRServer(adr, port=0) as server:
            client = ADRClient(*server.address)
            result = client.query(range_query)
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        adr: ADR,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[ServicePolicy] = None,
        service: Optional[QueryService] = None,
    ) -> None:
        if service is not None and policy is not None:
            raise ValueError("pass either policy or service, not both")
        # Bind before the owned service starts its worker threads: a
        # failed bind must leave nothing running.
        super().__init__((host, port), _Handler)
        self.adr = adr
        self._owns_service = service is None
        self.service = service if service is not None else QueryService(adr, policy)
        self._thread: Optional[threading.Thread] = None
        self._draining = threading.Event()

    # -- request dispatch ------------------------------------------------

    def adr_dispatch(self, message: dict) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "result": "pong"}
        if op == "stats":
            return {"ok": True, "result": self.service.stats()}
        if op == "health":
            return {"ok": True, "result": self.health()}
        if op == "drain":
            self.drain()
            return {"ok": True, "result": self.health()}
        if op == "query":
            if self._draining.is_set():
                return error_to_dict(
                    "shard_unavailable",
                    "server is draining and admits no new queries",
                )
            return self._dispatch_query(message)
        return error_to_dict("bad_request", f"unknown op {op!r}")

    def _dispatch_query(self, message: dict) -> dict:
        try:
            query = query_from_dict(message.get("query", {}))
        except _BAD_REQUEST_ERRORS as e:
            return error_to_dict("bad_request", e)
        try:
            ticket = self.service.submit(self._submitted(query, message))
        except ServiceOverloadedError as e:
            return error_to_dict("overloaded", e)
        except ServiceClosedError as e:
            return error_to_dict("internal", e)
        try:
            result = ticket.result()
        except _BAD_REQUEST_ERRORS as e:
            return error_to_dict("bad_request", e)
        except Exception as e:
            return error_to_dict("internal", e)
        response: Dict[str, Any] = {"ok": True, "result": result_to_dict(result)}
        if ticket.service_info:
            response["service"] = dict(ticket.service_info)
        return response

    def _submitted(self, query: RangeQuery, message: dict) -> RangeQuery:
        """Hook: the query submitted to the service for *message*."""
        return query

    # -- liveness / drain -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness snapshot: serving status and load, cheap to poll."""
        stats = self.service.stats()
        return {
            "status": "draining" if self._draining.is_set() else "serving",
            "queue_depth": int(stats["queue_depth"]),
            "in_flight": int(stats["in_flight"]),
        }

    def drain(self) -> None:
        """Stop admitting queries; in-flight work runs to completion."""
        self._draining.set()

    # -- lifecycle ------------------------------------------------------------

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, OSError):
            # The peer (or a chaos proxy) vanished mid-exchange; routine
            # in a fault-tolerant deployment and the client already sees
            # its own error -- nothing useful to print here.
            return
        super().handle_error(request, client_address)

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def __enter__(self) -> "ADRServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._owns_service:
            self.service.close()


class ADRClient:
    """A protocol client: one socket, blocking request/response.

    Thread-safe: the request/response exchange is serialized under a
    lock, so one client instance may be shared by several threads
    (each call still blocks for its own response; open one client per
    thread for wire-level parallelism).

    Every request method takes an optional ``deadline`` (seconds for
    the whole exchange); when it expires the call raises
    :class:`~repro.frontend.protocol.DeadlineExceededError` and the
    client is marked broken -- a half-finished exchange leaves the
    stream desynchronized, so later calls raise ``ConnectionError``
    and the caller must open a fresh client.  Without a deadline the
    connect-time ``timeout`` bounds each socket operation, so no call
    ever hangs forever.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        # One request/response frame at a time: without this, two
        # threads interleave writes and steal each other's reply frames.
        self._lock = threading.Lock()
        self._broken = False

    def _call(self, message: dict, deadline: Optional[float] = None) -> dict:
        budget = deadline if deadline is not None else self._timeout
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )

        def remaining() -> float:
            if deadline_at is None:
                return self._timeout
            left = deadline_at - time.monotonic()
            if left <= 0:
                raise DeadlineExceededError(
                    f"deadline of {deadline}s expired before the response arrived"
                )
            return left

        with self._lock:
            if self._broken:
                raise ConnectionError(
                    "client connection is broken after an earlier protocol or "
                    "deadline failure; open a new ADRClient"
                )
            try:
                self._sock.settimeout(remaining())
                write_frame(self._file, message)
                self._sock.settimeout(remaining())
                response = read_frame(self._file)
            except DeadlineExceededError:
                self._broken = True
                raise
            except ProtocolError:
                # Short/torn recv or garbage bytes: the response stream
                # is desynchronized beyond repair.
                self._broken = True
                raise
            except socket.timeout as e:
                self._broken = True
                raise DeadlineExceededError(
                    f"request timed out after {budget}s waiting on the socket"
                ) from e
            except OSError:
                self._broken = True
                raise
            if response is None:
                self._broken = True
                raise ConnectionError("server closed the connection")
        return response

    @staticmethod
    def _checked(response: dict, rejected_what: str) -> dict:
        if not response.get("ok"):
            code = response.get("code", "internal")
            raise RemoteQueryError(
                f"server rejected {rejected_what} [{code}]: {response.get('error')}",
                code=code,
                details=response.get("details"),
            )
        return response

    def ping(self, deadline: Optional[float] = None) -> bool:
        return self._call({"op": "ping"}, deadline).get("result") == "pong"

    def stats(self, deadline: Optional[float] = None) -> Dict[str, Any]:
        """Service counters (queue depth, in-flight, batches, sharing,
        cache hit rates) -- the ``{"op": "stats"}`` endpoint."""
        return self._checked(self._call({"op": "stats"}, deadline), "stats")[
            "result"
        ]

    def health(self, deadline: Optional[float] = None) -> Dict[str, Any]:
        """Liveness probe -- ``{"status": "serving"|"draining", ...}``."""
        return self._checked(self._call({"op": "health"}, deadline), "health")[
            "result"
        ]

    def drain(self, deadline: Optional[float] = None) -> Dict[str, Any]:
        """Ask the server to stop admitting queries; returns its health."""
        return self._checked(self._call({"op": "drain"}, deadline), "drain")[
            "result"
        ]

    def query(
        self, query: RangeQuery, deadline: Optional[float] = None
    ) -> QueryResult:
        """Submit a range query; raises :class:`RemoteQueryError` on
        server-side failure (the error code and text travel back)."""
        result, _ = self.query_with_info(query, deadline)
        return result

    def query_with_info(
        self, query: RangeQuery, deadline: Optional[float] = None
    ) -> Tuple[QueryResult, Optional[Dict[str, Any]]]:
        """Like :meth:`query`, also returning the response's
        ``"service"`` diagnostics (queue wait, batch size/position,
        shared reads) -- ``None`` from servers that don't send them."""
        response = self._call(
            {"op": "query", "query": query_to_dict(query)}, deadline
        )
        self._checked(response, "query")
        return result_from_dict(response["result"]), response.get("service")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ADRClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
