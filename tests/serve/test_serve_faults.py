"""Fault-surface tests: PR 7's chaos harness through the serving layer.

Deterministic :class:`~repro.sig.engine.faults.FaultPlan` injections (the
test-only ``fault_plan`` request field, gated behind
``ServiceConfig.allow_fault_injection``) must surface as the documented
typed JSON taxonomy — ``crash`` / ``timeout`` / ``budget`` / ``error``
faults inside 200 responses, scenario-indexed, with survivors
bit-identical to a fault-free run — and the streaming path must terminate
cleanly around faulted scenarios.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.casestudies.catalog import load_case_study
from repro.serve.errors import ServeError
from repro.serve.programs import SimulateRequest
from repro.serve.service import ServiceConfig, SimulationService, SimulationStream
from repro.sig import builder as b
from repro.sig.engine import create_backend
from repro.sig.engine.batch import prepare_batch
from repro.sig.expressions import register_stepwise_operation
from repro.sig.process import ProcessModel
from repro.sig.scenario import Scenario
from repro.sig.values import INTEGER

CASE = "producer_consumer"


@pytest.fixture(scope="module")
def service():
    case = load_case_study(CASE)
    from repro.aadl.printer import render_model

    svc = SimulationService(ServiceConfig(allow_fault_injection=True))
    response = svc.submit(
        {
            "source": render_model(case.load_model()),
            "root": case.root_implementation,
            "package": case.default_package,
        }
    )
    svc.fingerprint = response["fingerprint"]
    return svc


def _raise_memory(value):
    raise MemoryError("user operator ran out of memory")


def _raise_value(value):
    raise ValueError(f"user operator refused {value}")


register_stepwise_operation("serve_raise_memory", _raise_memory)
register_stepwise_operation("serve_raise_value", _raise_value)


def stream_user_op(op):
    """Stream one scenario of a model whose user operator *op* raises."""
    model = ProcessModel(f"stream_{op}")
    model.input("x", INTEGER)
    model.output("y", INTEGER)
    model.define("y", b.func(op, b.ref("x")))
    scenario = Scenario(8)
    scenario.set_periodic("x", 1, value=3)
    request = SimulateRequest.from_payload({"scenarios": [{}], "timeout": 30})
    job, supervisor = prepare_batch(
        model,
        [scenario],
        collect_errors=True,
        sink_factory=request.selection,
        timeout=request.timeout,
        retries=request.retries,
        backoff=request.backoff,
        runner=create_backend(model, backend="compiled", strict=False),
    )
    stream = SimulationStream(
        entry=SimpleNamespace(fingerprint="user-op"),
        request=request,
        job=job,
        supervisor=supervisor,
        release=lambda: None,
    )
    stream.start()
    return list(stream)


def simulate(service, **overrides):
    body = {"scenarios": [{"default": True}] * 3, "hyperperiods": 1}
    body.update(overrides)
    return service.simulate(service.fingerprint, body)


class TestInjectionGate:
    def test_fault_plan_rejected_without_opt_in(self):
        case = load_case_study(CASE)
        from repro.aadl.printer import render_model

        svc = SimulationService(ServiceConfig())  # injection NOT allowed
        fingerprint = svc.submit(
            {
                "source": render_model(case.load_model()),
                "root": case.root_implementation,
                "package": case.default_package,
            }
        )["fingerprint"]
        with pytest.raises(ServeError) as excinfo:
            svc.simulate(
                fingerprint,
                {
                    "scenarios": [{"default": True}],
                    "hyperperiods": 1,
                    "fault_plan": [{"kind": "crash", "scenario": 0}],
                },
            )
        assert excinfo.value.code == "invalid-program"
        assert excinfo.value.status == 422

    def test_malformed_fault_plan_rejected(self, service):
        for plan in (
            {"kind": "crash"},
            [{"kind": "meteor", "scenario": 0}],
            [{"kind": "crash", "scenario": 0, "retries": 9}],
            [{"kind": "crash", "scenario": 0, "attempts": ["first"]}],
            [{"kind": "crash", "scenario": "0"}],
            [{"kind": "crash", "scenario": 0, "attempts": [-1]}],
            [{"kind": "slowdown", "scenario": 0, "delay": -1}],
            [{"kind": "slowdown", "scenario": 0, "delay": "x"}],
        ):
            for route in (service.simulate, service.stream_simulate):
                with pytest.raises(ServeError) as excinfo:
                    route(
                        service.fingerprint,
                        {"scenarios": [{"default": True}], "hyperperiods": 1,
                         "fault_plan": plan},
                    )
                assert excinfo.value.code == "invalid-program"

    def test_spec_without_attempts_fires_on_the_first_attempt(self, service):
        response = simulate(
            service, fault_plan=[{"kind": "crash", "scenario": 0}], retries=0
        )
        assert response["results"][0]["fault"]["kind"] == "crash"
        assert "trace" in response["results"][1]


class TestFaultTaxonomy:
    def test_persistent_crash_surfaces_as_typed_fault(self, service):
        response = simulate(
            service,
            fault_plan=[{"kind": "crash", "scenario": 1, "attempts": None}],
            retries=1,
        )
        assert response["ok"] is False
        fault = response["results"][1]["fault"]
        assert fault["kind"] == "crash"
        assert fault["scenario"] == 1
        assert fault["attempts"] >= 1
        assert "trace" not in response["results"][1]

    def test_persistent_hang_surfaces_as_timeout(self, service):
        response = simulate(
            service,
            fault_plan=[
                {"kind": "hang", "scenario": 0, "attempts": None, "delay": 0.01}
            ],
            timeout=0.3,
            retries=0,
        )
        fault = response["results"][0]["fault"]
        assert fault["kind"] == "timeout"

    def test_persistent_exception_surfaces_as_error_with_traceback(self, service):
        response = simulate(
            service,
            fault_plan=[{"kind": "exception", "scenario": 2, "attempts": None}],
            retries=0,
        )
        fault = response["results"][2]["fault"]
        assert fault["kind"] == "error"
        assert fault["traceback"]

    def test_budget_violation_surfaces_as_budget(self, service):
        response = simulate(service, scenario_budget=3)
        for result in response["results"]:
            assert result["fault"]["kind"] == "budget"

    def test_survivors_bit_identical_to_fault_free_run(self, service):
        clean = simulate(service)
        faulted = simulate(
            service,
            fault_plan=[{"kind": "crash", "scenario": 1, "attempts": None}],
            retries=1,
        )
        for index in (0, 2):
            assert (
                faulted["results"][index]["trace"] == clean["results"][index]["trace"]
            )

    def test_transient_crash_recovers_via_retries(self, service):
        clean = simulate(service)
        response = simulate(
            service,
            fault_plan=[{"kind": "crash", "scenario": 0, "attempts": [0]}],
            retries=2,
        )
        assert response["ok"] is True
        assert response["results"][0]["trace"] == clean["results"][0]["trace"]

    def test_circuit_breaker_faults_fast(self, service):
        response = simulate(
            service,
            fault_plan=[
                {"kind": "crash", "scenario": index, "attempts": None}
                for index in range(3)
            ],
            retries=3,
            max_failures=1,
        )
        assert response["ok"] is False
        kinds = {result["fault"]["kind"] for result in response["results"]}
        assert "crash" in kinds  # at least the breaker-tripping fault is typed


class TestStreamingFaults:
    def test_budget_fault_event_then_clean_termination(self, service):
        stream = service.stream_simulate(
            service.fingerprint,
            {
                "scenarios": [{"default": True}] * 2,
                "hyperperiods": 1,
                "scenario_budget": 3,
            },
        )
        events = list(stream)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "open"
        assert kinds[-1] == "done"
        faults = [event for event in events if event["event"] == "fault"]
        assert [fault["scenario"] for fault in faults] == [0, 1]
        assert all(fault["kind"] == "budget" for fault in faults)
        assert events[-1]["faults"] == 2
        assert events[-1]["ok"] is False
        # Every scenario's sinks were still closed despite the faults.
        assert stream.sinks_closed >= 2

    def test_timeout_fault_event(self, service):
        stream = service.stream_simulate(
            service.fingerprint,
            {
                "scenarios": [{"default": True, "length": 200000}],
                "timeout": 0.001,
            },
        )
        events = list(stream)
        faults = [event for event in events if event["event"] == "fault"]
        assert len(faults) == 1
        assert faults[0]["kind"] == "timeout"
        assert events[-1]["event"] == "done"

    def test_close_cuts_a_retry_backoff_short(self, service):
        stream = service.stream_simulate(
            service.fingerprint,
            {
                "scenarios": [{"default": True}],
                "hyperperiods": 1,
                "retries": 2,
                "backoff": 60.0,
                "fault_plan": [{"kind": "exception", "scenario": 0, "attempts": None}],
            },
        )
        assert next(iter(stream))["event"] == "open"
        started = time.monotonic()
        stream.close()
        assert time.monotonic() - started < 10.0
        assert service.stats()["active_simulations"] == 0

    def test_user_memory_error_is_a_budget_fault(self):
        events = stream_user_op("serve_raise_memory")
        [fault] = [event for event in events if event["event"] == "fault"]
        assert fault["kind"] == "budget"
        assert fault["message"] == "user operator ran out of memory"
        assert "traceback" not in fault
        assert events[-1] == {
            "event": "done", "scenarios": 1, "errors": 0, "faults": 1, "ok": False,
        }

    def test_user_exception_is_an_error_fault_with_traceback(self):
        events = stream_user_op("serve_raise_value")
        [fault] = [event for event in events if event["event"] == "fault"]
        assert fault["kind"] == "error"
        assert fault["attempts"] == 3  # the first attempt and two default retries
        assert fault["message"].startswith("ValueError: user operator refused")
        assert "Traceback (most recent call last)" in fault["traceback"]


class TestSupervisionValues:
    """Supervision values no batch can honour are 422s on both routes."""

    BAD = (
        {"timeout": 0},
        {"timeout": -1.0},
        {"workers": -5},
        {"retries": -3},
        {"backoff": -1.0},
        {"max_failures": -1},
        {"scenario_budget": -1},
        {"scenario_budget": {"max_instants": "x"}},
        {"scenario_budget": {"max_memory_mb": "big"}},
        {"scenario_budget": {"max_memory_mb": 0}},
    )

    @pytest.mark.parametrize("overrides", BAD)
    def test_simulate_rejects(self, service, overrides):
        with pytest.raises(ServeError) as excinfo:
            simulate(service, **overrides)
        assert (excinfo.value.code, excinfo.value.status) == ("invalid-program", 422)

    @pytest.mark.parametrize("overrides", BAD)
    def test_stream_rejects(self, service, overrides):
        body = {"scenarios": [{"default": True}], "hyperperiods": 1, **overrides}
        with pytest.raises(ServeError) as excinfo:
            service.stream_simulate(service.fingerprint, body)
        assert (excinfo.value.code, excinfo.value.status) == ("invalid-program", 422)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_stream_refuses_workers_other_than_one(self, service, workers):
        body = {"scenarios": [{"default": True}], "hyperperiods": 1, "workers": workers}
        with pytest.raises(ServeError) as excinfo:
            service.stream_simulate(service.fingerprint, body)
        assert (excinfo.value.code, excinfo.value.status) == ("invalid-program", 422)
        assert "POST /models/{fp}/simulate" in excinfo.value.message
        assert service.stats()["active_simulations"] == 0

    def test_vcd_chunks_name_their_attempt(self, service):
        body = {"scenarios": [{"default": True}] * 2, "hyperperiods": 1, "sinks": ["vcd"]}
        clean = list(service.stream_simulate(service.fingerprint, body))
        events = list(
            service.stream_simulate(
                service.fingerprint,
                {**body, "retries": 2,
                 "fault_plan": [{"kind": "crash", "scenario": 0, "attempts": [0, 1]}]},
            )
        )
        chunks = [event for event in events if event["event"] == "vcd"]
        assert {(e["scenario"], e["attempt"]) for e in chunks} == {(0, 2), (1, 0)}
        assert all(e["attempt"] == 0 for e in clean if e["event"] == "vcd")
        for scenario in (0, 1):
            assert "".join(
                e["chunk"] for e in chunks if e["scenario"] == scenario
            ) == "".join(
                e["chunk"] for e in clean
                if e["event"] == "vcd" and e["scenario"] == scenario
            )
        assert events[-1]["ok"] is True
