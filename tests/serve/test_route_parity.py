"""Route parity: one simulate body means the same on both simulate routes.

``POST /models/{fp}/simulate`` answers a batch in one JSON body and
``POST /models/{fp}/simulate/stream`` answers the same
:class:`~repro.serve.programs.SimulateRequest` as a stream of events.
Both run the same sink factory, fault plan and supervision loop, so every
scenario's ``stats`` / ``deltas`` / ``trace`` / ``error`` / ``fault``
payload must be identical across the two — including sink selection
(``deltas_watch``), retries that recover bit-identically, the circuit
breaker, and a user operation's exception with its traceback.
"""

from __future__ import annotations

import time

import pytest

from repro.casestudies.catalog import load_case_study
from repro.serve.errors import ServeError
from repro.serve.service import CachedModel, ServiceConfig, SimulationService
from repro.sig import builder as b
from repro.sig.expressions import register_stepwise_operation
from repro.sig.process import ProcessModel
from repro.sig.values import INTEGER

CASE = "producer_consumer"
USER_OP = "user-op"


def _refuse(value):
    raise ValueError(f"parity operator refused {value}")


register_stepwise_operation("parity_refuse", _refuse)


@pytest.fixture(scope="module")
def service():
    from repro.aadl.printer import render_model

    case = load_case_study(CASE)
    svc = SimulationService(ServiceConfig(allow_fault_injection=True))
    svc.fingerprint = svc.submit(
        {
            "source": render_model(case.load_model()),
            "root": case.root_implementation,
            "package": case.default_package,
        }
    )["fingerprint"]

    # A hand-built model whose user operation raises, resident beside the
    # case study (no AADL translation produces user operations).
    model = ProcessModel("parity_user_op")
    model.input("x", INTEGER)
    model.output("y", INTEGER)
    model.define("y", b.func("parity_refuse", b.ref("x")))
    svc.cache.get_or_create(
        USER_OP,
        lambda: CachedModel(
            fingerprint=USER_OP, canonical="", root="", package=None,
            policy="rate_monotonic", include_scheduler=False, lenient=True,
            system_model=model, analysis={}, hyperperiod_length=lambda n: None,
            compile_seconds=0.0, created_at=time.time(),
        ),
    )
    return svc


def simulate_payloads(response):
    """Per-scenario payloads of a simulate response, in scenario order."""
    return [
        {key: value for key, value in item.items() if key != "index"}
        for item in response["results"]
    ]


def stream_payloads(events):
    """Per-scenario payloads of a stream, shaped like simulate results."""
    payloads = []
    for event in events:
        body = {key: value for key, value in event.items() if key != "event"}
        if event["event"] in ("error", "fault"):
            payloads.append({event["event"]: body})
        elif event["event"] == "result":
            del body["scenario"]
            payloads.append(body)
    return payloads


def both_routes(service, body, fingerprint=None):
    fingerprint = fingerprint or service.fingerprint
    response = service.simulate(fingerprint, body)
    events = list(service.stream_simulate(fingerprint, body))
    assert (events[0]["event"], events[-1]["event"]) == ("open", "done")
    assert events[-1]["ok"] is response["ok"]
    return simulate_payloads(response), stream_payloads(events)


def default_body(count=1, **overrides):
    return {"scenarios": [{"default": True}] * count, "hyperperiods": 1, **overrides}


class TestRouteParity:
    @pytest.mark.parametrize("watch", [None, [], ["conn_dispProd"]])
    def test_deltas_watch(self, service, watch):
        served, streamed = both_routes(
            service,
            default_body(sinks=["stats", "deltas"], deltas_watch=watch, include_trace=False),
        )
        assert served == streamed
        watched = served[0]["deltas"]["watched"]
        if watch is None:
            assert len(watched) > 1
        else:
            assert watched == watch

    def test_deltas_watch_needs_the_deltas_sink(self, service):
        body = default_body(sinks=["stats"], deltas_watch=["conn_dispProd"])
        for route in (service.simulate, service.stream_simulate):
            with pytest.raises(ServeError) as excinfo:
                route(service.fingerprint, body)
            assert (excinfo.value.code, excinfo.value.status) == ("invalid-program", 422)
            assert "deltas_watch" in excinfo.value.message

    def test_include_trace(self, service):
        served, streamed = both_routes(service, default_body(2, sinks=["stats"]))
        assert served == streamed
        assert served[0]["trace"]["length"] > 0

    def test_persistent_exception_fault(self, service):
        served, streamed = both_routes(
            service,
            default_body(
                2, fault_plan=[{"kind": "exception", "scenario": 0, "attempts": None}]
            ),
        )
        assert served == streamed
        assert served[0]["fault"]["kind"] == "error"
        assert served[0]["fault"]["attempts"] == 3
        assert "trace" in served[1]

    def test_transient_crash_recovers_bit_identically(self, service):
        served, streamed = both_routes(
            service,
            default_body(
                2, retries=2, sinks=["stats"],
                fault_plan=[{"kind": "crash", "scenario": 1, "attempts": [0, 1]}],
            ),
        )
        clean, _ = both_routes(service, default_body(2, sinks=["stats"]))
        assert served == streamed == clean

    def test_circuit_breaker(self, service):
        served, streamed = both_routes(
            service,
            default_body(
                3, retries=3, max_failures=1,
                fault_plan=[
                    {"kind": "crash", "scenario": index, "attempts": None}
                    for index in range(3)
                ],
            ),
        )
        assert served == streamed
        assert [item["fault"]["kind"] for item in served] == ["crash", "error", "error"]
        assert "abandoned" in served[2]["fault"]["message"]

    def test_user_operation_exception(self, service):
        body = {
            "scenarios": [
                {"length": 4, "inputs": {"x": {"kind": "constant", "value": [3]}}}
            ],
            "strict": False,
            "retries": 1,
        }
        served, streamed = both_routes(service, body, fingerprint=USER_OP)
        assert served == streamed
        fault = served[0]["fault"]
        assert (fault["kind"], fault["attempts"]) == ("error", 2)
        assert fault["message"] == "ValueError: parity operator refused 3"
        assert "Traceback (most recent call last)" in fault["traceback"]
