"""The HTTP adapter: one standard-library server over the service core.

:class:`ServiceServer` is a :class:`http.server.ThreadingHTTPServer` whose
handler maps each of the eight routes of :data:`ROUTES` (``docs/API.md``)
onto one :class:`~repro.serve.service.SimulationService` method.  Request
bodies are JSON, validated by the service core alone.  Every failure is a
typed JSON error body with its mapped status: the service's own codes,
plus ``bad-request``, ``not-found`` and ``method-not-allowed`` for faults
of the HTTP request itself, and ``internal`` (500) for any other exception.
The stream route sends one ``data: <json>`` Server-Sent Event per stream
event over ``Transfer-Encoding: chunked``; one that fails after its headers
ends with an ``error`` event carrying the ``internal`` body.

The transport bounds are module constants: :data:`REQUEST_TIMEOUT` on
every socket read and write, so a client that stalls or stops reading is
dropped (a dropped stream cancels its scenario and frees its slot), and
:data:`MAX_BODY_BYTES` on ``POST`` bodies, which need a ``Content-Length``.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, List, Optional, Tuple
from urllib.parse import unquote, urlsplit

from .errors import ServeError, error_payload
from .service import SimulationService, SimulationStream

__all__ = [
    "MAX_BODY_BYTES",
    "REQUEST_TIMEOUT",
    "ROUTES",
    "ServiceHandler",
    "ServiceServer",
]

#: Seconds any socket read or write of a connection may block.
REQUEST_TIMEOUT = 30.0

#: Largest accepted request body: 4 MiB, over 100x the largest catalog
#: source (``large_integration`` renders to ~32 KB).
MAX_BODY_BYTES = 4 * 1024 * 1024

_FP = "/models/([^/]+)"

#: ``(path pattern, {method: service call})``: a call takes the service, the
#: path groups and, for ``POST``, the JSON body; it returns a JSON response
#: body or a :class:`SimulationStream`.
ROUTES = [
    (re.compile(path), methods)
    for path, methods in [
        ("/healthz", {"GET": lambda service: {"ok": True}}),
        ("/stats", {"GET": SimulationService.stats}),
        ("/models", {"GET": SimulationService.list_models, "POST": SimulationService.submit}),
        (_FP, {"GET": SimulationService.model_info, "DELETE": SimulationService.evict}),
        (_FP + "/simulate", {"POST": SimulationService.simulate}),
        (_FP + "/simulate/stream", {"POST": SimulationService.stream_simulate}),
    ]
]


#: A client that went away or stalled: the connection is dropped, not answered.
_DISCONNECTS = (BrokenPipeError, ConnectionResetError, socket.timeout)


def _internal(error: Exception) -> ServeError:
    """The typed ``internal`` (500) error for a fault the service left untyped."""
    return ServeError("internal", f"internal error: {type(error).__name__}: {error}")


class ServiceHandler(BaseHTTPRequestHandler):
    """One connection: routes each request to the service core."""

    protocol_version = "HTTP/1.1"
    #: Socket timeout of every read and write (see :data:`REQUEST_TIMEOUT`).
    timeout = REQUEST_TIMEOUT
    disable_nagle_algorithm = True
    server: "ServiceServer"

    def _handle(self) -> None:
        """Route one request, call the service, send its response."""
        try:
            call, args = self._route()
            if self.command == "POST":
                args.append(self._read_json())
            result = call(self.server.service, *args)
        except ServeError as error:
            self._send_json(error.status, error_payload(error))
            return
        except _DISCONNECTS:
            raise
        except Exception as error:  # untyped: answer, never drop the client
            self.log_error("internal error:\n%s", traceback.format_exc())
            self._send_json(500, error_payload(_internal(error)))
            return
        if isinstance(result, SimulationStream):
            self._send_stream(result)
        else:
            self._send_json(200, result)

    do_GET = do_POST = do_DELETE = do_PUT = do_PATCH = _handle

    def _route(self) -> Tuple[Callable[..., Any], List[Any]]:
        """The service call and path arguments of this request."""
        path = urlsplit(self.path).path
        for pattern, methods in ROUTES:
            match = pattern.fullmatch(path)
            if match is None:
                continue
            if self.command not in methods:
                raise ServeError(
                    "method-not-allowed",
                    f"{self.command} is not allowed on {path}",
                    allowed=sorted(methods),
                )
            return methods[self.command], [unquote(group) for group in match.groups()]
        raise ServeError("not-found", f"no route for {path}")

    def _read_json(self) -> Any:
        """The decoded JSON body, bounded by :data:`MAX_BODY_BYTES`."""
        try:
            size = int(self.headers.get("Content-Length", ""))
        except ValueError:
            size = -1
        if size < 0:
            raise ServeError("bad-request", "POST needs a valid Content-Length header")
        if size > MAX_BODY_BYTES:
            raise ServeError(
                "bad-request",
                f"request body of {size} bytes is over the {MAX_BODY_BYTES}-byte cap",
            )
        try:
            return json.loads(self.rfile.read(size).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise ServeError("bad-request", f"request body is not UTF-8 JSON: {exc}")

    def _send_json(self, status: int, payload: Any) -> None:
        """Send one JSON response (after an error, closing the connection)."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_stream(self, stream: SimulationStream) -> None:
        """Send *stream*'s events as chunked Server-Sent Events."""
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            try:
                for event in stream:
                    self._send_event(event)
            except _DISCONNECTS:
                raise
            except Exception as error:  # headers are out: end with an event
                self.log_error("internal error:\n%s", traceback.format_exc())
                # Free the slot before the client sees the end, as a stream
                # that runs to ``done`` does.
                stream.close()
                self._send_event({"event": "error", **error_payload(_internal(error))})
            self.wfile.write(b"0\r\n\r\n")
        except _DISCONNECTS:
            self.close_connection = True
        finally:
            # Cancels the scenario still running, if any, and frees the slot.
            stream.close()

    def _send_event(self, event: Any) -> None:
        """Send one Server-Sent Event as one chunk."""
        data = f"data: {json.dumps(event)}\n\n".encode("utf-8")
        self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Render :mod:`http.server`'s own protocol errors as typed JSON."""
        # A malformed request line leaves the version at HTTP/0.9, which
        # would suppress the status line and headers of the reply.
        self.request_version = self.protocol_version
        error = ServeError(
            "method-not-allowed" if code == 501 else "bad-request",
            message or explain or "malformed HTTP request",
        )
        self._send_json(error.status, error_payload(error))


class ServiceServer(ThreadingHTTPServer):
    """A threaded HTTP server over one :class:`SimulationService`."""

    def __init__(self, address: Tuple[str, int], service: SimulationService) -> None:
        self.service = service
        super().__init__(address, ServiceHandler)

    def server_bind(self) -> None:
        """Bind without the reverse-DNS lookup ``HTTPServer`` performs."""
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]
