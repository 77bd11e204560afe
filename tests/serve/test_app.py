"""End-to-end HTTP conformance of the adapter (``repro.serve.server``).

Every case runs over a real ``127.0.0.1`` socket against one module-scoped
server on a free port.  The service-core semantics are covered without a
socket in ``test_service.py``; here we assert the HTTP layer's added
contract: routing, the JSON error taxonomy's status codes on the wire,
the transport faults (``bad-request``, ``not-found``,
``method-not-allowed``), SSE stream framing, and that clients which
disconnect or stall cannot hold a simulation slot or a server thread.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.aadl.printer import render_model
from repro.casestudies.catalog import load_case_study
from repro.serve.server import MAX_BODY_BYTES, ServiceHandler
from repro.serve.service import ServiceConfig, SimulationService, SimulationStream
from tests.serve.live import call, connect, request, serving

CASE = "producer_consumer"


@pytest.fixture(scope="module")
def server():
    service = SimulationService(ServiceConfig(cache_capacity=4, max_concurrent=2))
    with serving(service) as live:
        yield live


@pytest.fixture(scope="module")
def submit_body():
    case = load_case_study(CASE)
    return {
        "source": render_model(case.load_model()),
        "root": case.root_implementation,
        "package": case.default_package,
    }


@pytest.fixture(scope="module")
def fingerprint(server, submit_body):
    status, body = call(server, "POST", "/models", submit_body)
    assert status == 200, body
    return body["fingerprint"]


def sse_events(raw):
    """Parse an SSE body back into the JSON event objects."""
    events = []
    for line in raw.decode("utf-8").splitlines():
        if line.startswith("data: "):
            events.append(json.loads(line[len("data: "):]))
    return events


def assert_error(status, body, code, expected_status):
    assert status == expected_status, body
    assert body["error"]["code"] == code
    assert body["error"]["status"] == expected_status
    assert body["error"]["message"]


def send_raw(server, head, body=b""):
    """Open a raw socket and send *head* (request line + headers) and *body*."""
    sock = socket.create_connection(server.server_address[:2], timeout=30)
    sock.sendall(head.encode("ascii") + b"\r\n\r\n" + body)
    return sock


class TestLifecycle:
    def test_healthz(self, server):
        assert call(server, "GET", "/healthz") == (200, {"ok": True})

    def test_submit_then_resubmit_hits_cache(self, server, submit_body, fingerprint):
        status, body = call(server, "POST", "/models", submit_body)
        assert status == 200
        assert body["fingerprint"] == fingerprint
        assert body["cached"] is True

    def test_model_info_and_listing(self, server, fingerprint):
        status, info = call(server, "GET", f"/models/{fingerprint}")
        assert status == 200
        assert info["fingerprint"] == fingerprint
        status, listing = call(server, "GET", "/models")
        assert status == 200
        assert fingerprint in listing["models"]

    def test_stats_counters(self, server, fingerprint):
        status, stats = call(server, "GET", "/stats")
        assert status == 200
        assert stats["cache"]["compiles"] >= 1
        assert stats["cache"]["hits"] >= 1

    def test_simulate(self, server, fingerprint):
        status, body = call(
            server,
            "POST",
            f"/models/{fingerprint}/simulate",
            {"scenarios": [{"default": True}], "hyperperiods": 1},
        )
        assert status == 200, body
        assert body["ok"] is True
        assert body["results"][0]["trace"]["length"] > 0

    def test_stream_sse_framing(self, server, fingerprint):
        status, headers, raw = request(
            server,
            "POST",
            f"/models/{fingerprint}/simulate/stream",
            {
                "scenarios": [{"default": True}],
                "hyperperiods": 1,
                "sinks": ["stats", "vcd"],
            },
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/event-stream")
        assert headers["Transfer-Encoding"] == "chunked"
        events = sse_events(raw)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "open"
        assert kinds[-1] == "done"
        assert "result" in kinds
        assert any(kind == "vcd" for kind in kinds)
        assert events[-1]["ok"] is True

    def test_evict_then_404(self, server, submit_body, fingerprint):
        # Other options, other fingerprint: the shared model stays resident.
        _, body = call(server, "POST", "/models", dict(submit_body, lenient=True))
        assert body["fingerprint"] != fingerprint
        fingerprint = body["fingerprint"]
        assert call(server, "DELETE", f"/models/{fingerprint}")[0] == 200
        assert_error(
            *call(server, "GET", f"/models/{fingerprint}"), "model-not-found", 404
        )


class TestHttpErrors:
    def test_unknown_fingerprint_404(self, server):
        status, body = call(
            server, "POST", "/models/deadbeef/simulate", {"scenarios": [{"default": True}]}
        )
        assert_error(status, body, "model-not-found", 404)

    def test_invalid_model_422(self, server):
        status, body = call(server, "POST", "/models", {"source": "not aadl at all"})
        assert_error(status, body, "invalid-model", 422)

    def test_typoed_body_key_422(self, server, submit_body, fingerprint):
        assert call(server, "POST", "/models", dict(submit_body, roots="x"))[0] == 422
        status, body = call(
            server,
            "POST",
            f"/models/{fingerprint}/simulate",
            {"scenarios": [{"default": True}], "worker": 2},
        )
        assert_error(status, body, "invalid-program", 422)

    def test_unknown_backend_422(self, server, fingerprint):
        status, body = call(
            server,
            "POST",
            f"/models/{fingerprint}/simulate",
            {"scenarios": [{"default": True}], "hyperperiods": 1, "backend": "quantum"},
        )
        assert_error(status, body, "unknown-backend", 422)


ROUTES = ("simulate", "simulate/stream")


class TestUntypedFaults:
    """No request drops the connection: a bad default-form scenario is a
    typed 422, and any exception the service leaves untyped is a 500
    ``internal`` body, or a terminal ``error`` event once a stream's
    headers are out.  The server keeps serving afterwards."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("length", [-5, "4", True])
    def test_bad_default_scenario_length_is_invalid_program(
        self, server, fingerprint, route, length
    ):
        status, body = call(
            server,
            "POST",
            f"/models/{fingerprint}/{route}",
            {"scenarios": [{"default": True, "length": length}]},
        )
        assert_error(status, body, "invalid-program", 422)
        assert body["error"]["message"].startswith("scenario 0: ")

    @pytest.mark.parametrize("route", ROUTES)
    def test_untyped_exception_is_internal_500(
        self, server, fingerprint, route, monkeypatch
    ):
        def explode(self, entry, request):
            raise RuntimeError("decoder exploded")

        monkeypatch.setattr(SimulationService, "_decode_scenarios", explode)
        status, body = call(
            server,
            "POST",
            f"/models/{fingerprint}/{route}",
            {"scenarios": [{"default": True}], "hyperperiods": 1},
        )
        assert_error(status, body, "internal", 500)
        assert "RuntimeError: decoder exploded" in body["error"]["message"]
        monkeypatch.undo()
        assert call(server, "GET", "/healthz") == (200, {"ok": True})

    def test_stream_failing_after_its_headers_ends_with_an_error_event(
        self, server, fingerprint, monkeypatch
    ):
        def broken(self):
            yield {"event": "open"}
            raise RuntimeError("stream exploded")

        monkeypatch.setattr(SimulationStream, "__iter__", broken)
        status, headers, raw = request(
            server,
            "POST",
            f"/models/{fingerprint}/simulate/stream",
            {"scenarios": [{"default": True}], "hyperperiods": 1},
        )
        monkeypatch.undo()
        assert status == 200
        events = sse_events(raw)
        assert [event["event"] for event in events] == ["open", "error"]
        assert events[-1]["error"]["code"] == "internal"
        assert "RuntimeError: stream exploded" in events[-1]["error"]["message"]
        assert call(server, "GET", "/stats")[1]["active_simulations"] == 0


class TestTransportErrors:
    @pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe{}"], ids=["json", "utf8"])
    def test_body_that_is_not_utf8_json_is_bad_request(self, server, body):
        status, _, raw = request(server, "POST", "/models", body)
        assert_error(status, json.loads(raw), "bad-request", 400)

    @pytest.mark.parametrize("length", [None, "abc", "-1", str(MAX_BODY_BYTES + 1)])
    def test_missing_invalid_or_oversized_content_length_is_bad_request(
        self, server, length
    ):
        connection = connect(server)
        try:
            connection.putrequest("POST", "/models")
            if length is not None:
                connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert_error(response.status, json.loads(response.read()), "bad-request", 400)
        finally:
            connection.close()

    def test_unknown_path_is_not_found(self, server):
        assert_error(*call(server, "GET", "/nowhere"), "not-found", 404)

    def test_wrong_method_is_method_not_allowed(self, server):
        status, body = call(server, "DELETE", "/models")
        assert_error(status, body, "method-not-allowed", 405)
        assert body["error"]["allowed"] == ["GET", "POST"]

    def test_unsupported_method_is_typed_json(self, server):
        assert_error(*call(server, "OPTIONS", "/models"), "method-not-allowed", 405)

    @pytest.mark.parametrize(
        "head",
        [
            "GET /healthz HTTP/9.9",
            "GET /healthz HTTP/1.x",
            "GET /healthz HTTP/1.1\r\n"
            + "\r\n".join(f"X-Header-{index}: value" for index in range(101)),
        ],
        ids=["version", "unparsable-version", "too-many-headers"],
    )
    def test_malformed_request_is_typed_json(self, server, head):
        sock = send_raw(server, head)
        try:
            head, _, body = sock.makefile("rb").read().partition(b"\r\n\r\n")
        finally:
            sock.close()
        assert head.split()[1] == b"400"
        assert json.loads(body)["error"]["code"] == "bad-request"


class TestMisbehavingClients:
    def test_disconnect_mid_stream_frees_the_slot(self, server, fingerprint):
        body = json.dumps(
            {"scenarios": [{"default": True}] * 200, "hyperperiods": 2, "sinks": ["vcd"]}
        ).encode("utf-8")
        sock = send_raw(
            server,
            f"POST /models/{fingerprint}/simulate/stream HTTP/1.1\r\n"
            f"Host: test\r\nContent-Type: application/json\r\nContent-Length: {len(body)}",
            body,
        )
        received = b""
        while b"data: " not in received:
            chunk = sock.recv(4096)
            assert chunk, received
            received += chunk
        sock.close()

        deadline = time.monotonic() + 30
        while call(server, "GET", "/stats")[1]["active_simulations"]:
            assert time.monotonic() < deadline, "disconnected stream kept its slot"
            time.sleep(0.05)
        status, response = call(
            server,
            "POST",
            f"/models/{fingerprint}/simulate",
            {"scenarios": [{"default": True}], "hyperperiods": 1},
        )
        assert status == 200 and response["ok"] is True

    def test_stalled_client_is_dropped_within_the_timeout(self, server, monkeypatch):
        monkeypatch.setattr(ServiceHandler, "timeout", 0.5)
        sock = send_raw(server, "POST /models HTTP/1.1\r\nHost: test\r\nContent-Length: 100")
        try:
            started = time.monotonic()
            assert sock.recv(4096) == b""
            assert time.monotonic() - started < 10
        finally:
            sock.close()
