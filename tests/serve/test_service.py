"""Conformance tests of the framework-free service core.

Pin the serving semantics the HTTP layer inherits: compile-exactly-once
per structural fingerprint (whitespace/comment variants converge, options
split), LRU eviction with transparent recompile, hit/miss counters,
served-vs-direct bit-identical results (materialised traces, sink
payloads, value types, ``workers=N``), backpressure as typed ``busy``
rejections, and the streaming path's event protocol including client
disconnect mid-stream closing every sink.
"""

from __future__ import annotations

import pytest

from repro.casestudies.catalog import load_case_study
from repro.core import ToolchainOptions, run_toolchain
from repro.serve.cache import PlanCache
from repro.serve.errors import ERROR_STATUS, ServeError
from repro.serve.programs import decode_trace, scenario_to_payload
from repro.serve.service import ServiceConfig, SimulationService
from repro.sig.engine import simulate_batch
from repro.sig.scenario import Scenario

CASE = "producer_consumer"


@pytest.fixture(scope="module")
def case():
    return load_case_study(CASE)


@pytest.fixture(scope="module")
def source(case):
    from repro.aadl.printer import render_model

    return render_model(case.load_model())


@pytest.fixture(scope="module")
def submit_body(case, source):
    return {
        "source": source,
        "root": case.root_implementation,
        "package": case.default_package,
    }


@pytest.fixture(scope="module")
def service(submit_body):
    svc = SimulationService(ServiceConfig(max_concurrent=2))
    svc.submit(submit_body)
    return svc


@pytest.fixture(scope="module")
def fingerprint(service, submit_body):
    return service.submit(submit_body)["fingerprint"]


@pytest.fixture(scope="module")
def direct(case, source):
    options = ToolchainOptions(
        root_implementation=case.root_implementation,
        default_package=case.default_package,
        simulate_hyperperiods=2,
        cost_model=None,
    )
    return run_toolchain(source, options)


class TestSubmit:
    def test_compile_exactly_once(self, service, submit_body):
        before = service.cache.stats()["compiles"]
        first = service.submit(submit_body)
        second = service.submit(submit_body)
        assert first["fingerprint"] == second["fingerprint"]
        assert first["cached"] and second["cached"]
        assert service.cache.stats()["compiles"] == before

    def test_whitespace_and_comments_share_fingerprint(
        self, service, submit_body, fingerprint
    ):
        noisy = dict(submit_body)
        noisy["source"] = (
            "-- a leading comment\n"
            + submit_body["source"].replace("\n", "\n\n", 3)
            + "\n   \n"
        )
        before = service.cache.stats()["compiles"]
        response = service.submit(noisy)
        assert response["fingerprint"] == fingerprint
        assert response["cached"] is True
        assert service.cache.stats()["compiles"] == before

    def test_different_options_split_fingerprints(self, service, submit_body):
        other = dict(submit_body)
        other["policy"] = "edf"
        response = service.submit(other)
        assert response["fingerprint"] != service.submit(submit_body)["fingerprint"]
        service.evict(response["fingerprint"])

    def test_invalid_source_rejected(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.submit({"source": "system garbage {{{"})
        assert excinfo.value.code == "invalid-model"
        assert excinfo.value.status == 422

    def test_unknown_submit_key_rejected(self, service, submit_body):
        body = dict(submit_body)
        body["sauce"] = "x"
        with pytest.raises(ServeError) as excinfo:
            service.submit(body)
        assert "sauce" in excinfo.value.message

    def test_model_info_and_counters(self, service, submit_body, fingerprint):
        info = service.model_info(fingerprint)
        assert info["fingerprint"] == fingerprint
        assert info["root"] == submit_body["root"]
        assert info["hits"] >= 1
        assert info["analysis"]["clocks"]["signals"] > 0
        assert "compiled" in info["prepared_backends"]

    def test_model_not_found_is_404(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.model_info("not-a-fingerprint")
        assert excinfo.value.code == "model-not-found"
        assert excinfo.value.status == 404


class TestCacheLifecycle:
    def test_lru_eviction_and_transparent_recompile(self, submit_body):
        svc = SimulationService(ServiceConfig(cache_capacity=1))
        first = svc.submit(submit_body)["fingerprint"]
        other = dict(submit_body)
        other["policy"] = "edf"
        second = svc.submit(other)["fingerprint"]
        # Capacity 1: the second submission evicted the first.
        assert svc.cache.fingerprints() == [second]
        assert svc.cache.stats()["evictions"] == 1
        with pytest.raises(ServeError):
            svc.model_info(first)
        # Resubmitting transparently recompiles (one extra compile, not two).
        again = svc.submit(submit_body)
        assert again["fingerprint"] == first
        assert again["cached"] is False
        assert svc.cache.compiles[first] == 2

    def test_explicit_evict(self, submit_body):
        svc = SimulationService(ServiceConfig())
        fingerprint = svc.submit(submit_body)["fingerprint"]
        assert svc.evict(fingerprint)["evicted"] is True
        with pytest.raises(ServeError) as excinfo:
            svc.evict(fingerprint)
        assert excinfo.value.status == 404

    def test_failed_compile_leaves_no_entry(self):
        cache = PlanCache(4)

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            cache.get_or_create("fp", boom)
        assert len(cache) == 0
        assert cache.stats()["compiles"] == 0
        entry, created = cache.get_or_create("fp", lambda: object())
        assert created and entry is not None


class TestSimulateParity:
    def test_default_scenario_matches_toolchain(self, service, fingerprint, direct):
        response = service.simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 2}
        )
        assert response["ok"] is True
        served = decode_trace(response["results"][0]["trace"])
        assert served.length == direct.trace.length
        assert served.flows == direct.trace.flows
        assert served.warnings == direct.trace.warnings

    def test_symbolic_scenarios_match_simulate_batch(self, service, fingerprint, direct):
        scenarios = []
        for phase in range(3):
            scenario = Scenario(30)
            for decl in direct.system_model.inputs():
                if decl.name == "tick" or decl.name.endswith("_tick"):
                    scenario.set_always(decl.name)
            scenarios.append(scenario)
        local = simulate_batch(direct.system_model, scenarios, collect_errors=True)
        response = service.simulate(
            fingerprint,
            {"scenarios": [scenario_to_payload(s) for s in scenarios]},
        )
        assert response["ok"] and local.ok
        assert response["scenarios"] == len(scenarios)
        for index, trace in enumerate(local.traces):
            served = decode_trace(response["results"][index]["trace"])
            assert served.flows == trace.flows
            assert served.warnings == trace.warnings

    def test_workers_batch_matches_sequential(self, service, fingerprint):
        body = {"scenarios": [{"default": True}] * 4, "hyperperiods": 1}
        sequential = service.simulate(fingerprint, body)
        parallel = service.simulate(fingerprint, dict(body, workers=2))
        assert parallel["workers"] == 2
        assert [r.get("trace") for r in parallel["results"]] == [
            r.get("trace") for r in sequential["results"]
        ]

    def test_sink_results_match_in_process_sinks(self, service, fingerprint, direct):
        from repro.serve.programs import statistics_to_payload
        from repro.sig.sinks import StatisticsSink

        response = service.simulate(
            fingerprint,
            {
                "scenarios": [{"default": True}],
                "hyperperiods": 1,
                "sinks": ["stats"],
                "include_trace": False,
            },
        )
        result = service.simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        # Replay the served trace through a StatisticsSink: the served stats
        # payload must match stats computed from the served trace.
        from repro.sig.sinks import replay_trace

        sink = StatisticsSink()
        replay_trace(decode_trace(result["results"][0]["trace"]), [sink])
        assert response["results"][0]["stats"] == statistics_to_payload(sink.result())

    def test_value_types_survive(self, service, fingerprint):
        response = service.simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        flows = response["results"][0]["trace"]["flows"]
        kinds = set()
        for values in flows.values():
            for value in values:
                if value is not None:
                    kinds.add(type(value[0]))
        assert bool in kinds  # ticks and control signals stay booleans

    def test_unbounded_scenario_needs_horizon(self, service, fingerprint):
        with pytest.raises(ServeError) as excinfo:
            service.simulate(
                fingerprint,
                {"scenarios": [{"length": None, "inputs": {}}]},
            )
        assert excinfo.value.code == "invalid-program"

    @pytest.mark.parametrize("backend", ["gpu", "lowered"])
    def test_unknown_backend_is_422(self, service, fingerprint, backend):
        with pytest.raises(ServeError) as excinfo:
            service.simulate(
                fingerprint,
                {"scenarios": [{"default": True}], "hyperperiods": 1, "backend": backend},
            )
        assert excinfo.value.code == "unknown-backend"
        assert excinfo.value.status == 422

    def test_vcd_sink_is_stream_only(self, service, fingerprint):
        with pytest.raises(ServeError) as excinfo:
            service.simulate(
                fingerprint,
                {"scenarios": [{"default": True}], "hyperperiods": 1, "sinks": ["vcd"]},
            )
        assert "stream" in excinfo.value.message


class TestBackpressure:
    def test_busy_rejection_and_recovery(self, submit_body):
        svc = SimulationService(ServiceConfig(max_concurrent=1))
        fingerprint = svc.submit(submit_body)["fingerprint"]
        # A stream holds its execution slot until closed.
        stream = svc.stream_simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        with pytest.raises(ServeError) as excinfo:
            svc.simulate(
                fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
            )
        assert excinfo.value.code == "busy"
        assert excinfo.value.status == 503
        assert svc.requests["rejected"] == 1
        stream.close()
        response = svc.simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        assert response["ok"] is True


class TestStreaming:
    def test_event_protocol(self, service, fingerprint):
        stream = service.stream_simulate(
            fingerprint,
            {
                "scenarios": [{"default": True}] * 2,
                "hyperperiods": 1,
                "sinks": ["stats", "vcd"],
                "include_trace": False,
            },
        )
        events = list(stream)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "open"
        assert kinds[-1] == "done"
        assert kinds.count("result") == 2
        assert "vcd" in kinds
        vcd_text = "".join(e["chunk"] for e in events if e["event"] == "vcd")
        assert vcd_text.startswith("$date")
        assert events[-1]["ok"] is True

    def test_stream_trace_matches_batch(self, service, fingerprint):
        stream = service.stream_simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        events = {e["event"]: e for e in stream}
        batch = service.simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        assert events["result"]["trace"] == batch["results"][0]["trace"]

    def test_disconnect_mid_stream_closes_sinks(self, service, fingerprint):
        stream = service.stream_simulate(
            fingerprint,
            {
                "scenarios": [{"default": True}] * 5,
                "hyperperiods": 2,
                "sinks": ["stats"],
            },
        )
        iterator = iter(stream)
        assert next(iterator)["event"] == "open"
        stream.close()
        # The running scenario was cancelled cooperatively and every one of
        # its sinks (stats + materialize + cancel) was on_close()d.
        assert stream.scenarios_started >= 1
        assert stream.sinks_closed >= 3 * 1
        assert stream.sinks_closed % 3 == 0
        # The slot is free again: stats reflect no active simulation.
        assert service.stats()["active_simulations"] == 0

    def test_stream_consumed_twice_is_409(self, service, fingerprint):
        stream = service.stream_simulate(
            fingerprint, {"scenarios": [{"default": True}], "hyperperiods": 1}
        )
        list(stream)
        with pytest.raises(ServeError) as excinfo:
            list(stream)
        assert excinfo.value.code == "stream-closed"
        assert excinfo.value.status == 409


class TestErrorTaxonomy:
    def test_status_table_is_complete(self):
        assert ERROR_STATUS == {
            "invalid-model": 422,
            "unschedulable": 422,
            "invalid-program": 422,
            "model-not-found": 404,
            "unknown-backend": 422,
            "busy": 503,
            "stream-closed": 409,
        }

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ServeError("teapot", "short and stout")
