"""A live ``repro.serve.server`` on ``127.0.0.1`` for the HTTP tests."""

from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager


@contextmanager
def serving(service):
    """Serve *service* on a free ``127.0.0.1`` port for the block's duration."""
    from repro.serve.server import ServiceServer

    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive(), "server thread did not stop"


def connect(server, timeout=60):
    """A fresh client connection to *server*."""
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=timeout)


def request(server, method, path, body=None, headers=None):
    """Send one request; ``(status, headers, raw body bytes)``.

    A *body* that is not ``bytes`` is sent as JSON.
    """
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    connection = connect(server)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def call(server, method, path, body=None):
    """Send one JSON request; ``(status, decoded JSON response)``."""
    status, _, raw = request(server, method, path, body)
    return status, json.loads(raw)
