"""Served-vs-direct parity over the full case-study catalog.

The serving layer must be a transport, not a semantics layer: for every
catalog entry and every registered backend, simulating a symbolic
scenario program through :class:`repro.serve.service.SimulationService`
(with the request and response pushed through real JSON, exactly as they
travel over HTTP) must produce traces bit-identical — values *and* value
types — to compiling the model directly with ``run_toolchain`` and
running the same scenarios on the backend in-process.

The variant at the bottom sends one entry through the HTTP adapter over a
real ``127.0.0.1`` socket.
"""

import json

import pytest

from repro.aadl.printer import render_model
from repro.casestudies import catalog_names, load_case_study, scenario_sweep
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.scheduling.static_scheduler import SchedulingError
from repro.serve.errors import ServeError
from repro.serve.programs import decode_trace, scenario_to_payload
from repro.serve.service import ServiceConfig, SimulationService
from repro.sig.engine import create_backend
from tests.serve.live import call, serving

#: Backends under parity test.
BACKEND_NAMES = ["reference", "compiled", "vectorized"]

#: Reference-interpreter affordability cap, mirroring test_backend_parity.
LENGTH_CAP = 48


@pytest.fixture(scope="module")
def service():
    return SimulationService(ServiceConfig(cache_capacity=len(catalog_names()) + 2))


@pytest.fixture(scope="module")
def prepared(service):
    """Submit + directly compile each entry once, cached per module.

    Entries whose task set is not RM-schedulable are served and compiled
    without the scheduler (the service reports them as ``unschedulable``);
    parity must hold either way, on identical translation options.
    """
    cache = {}

    def get(name):
        if name in cache:
            return cache[name]
        entry = load_case_study(name)
        source = render_model(entry.load_model())
        body = {
            "source": source,
            "root": entry.root_implementation,
            "package": entry.default_package,
        }
        options = ToolchainOptions(
            root_implementation=entry.root_implementation,
            default_package=entry.default_package,
            simulate_hyperperiods=0,
            cost_model=None,
        )
        try:
            submitted = service.submit(dict(body))
        except ServeError as error:
            assert error.code == "unschedulable"
            body["include_scheduler"] = False
            submitted = service.submit(dict(body))
            options.translation = TranslationConfig(include_scheduler=False)
        try:
            direct = run_toolchain(entry.load_model(), options)
        except SchedulingError:  # pragma: no cover - caught as ServeError above
            pytest.fail(f"{name}: direct toolchain disagrees with service")
        system_model = direct.translation.system_model
        if direct.schedules:
            length = next(iter(direct.schedules.values())).simulation_length(1)
            length = min(length, LENGTH_CAP)
        else:
            length = 24
        scenarios = scenario_sweep(system_model, length=length, variants=2, seed=17)
        cache[name] = {
            "fingerprint": submitted["fingerprint"],
            "system_model": system_model,
            "scenarios": scenarios,
            "length": length,
        }
        return cache[name]

    return get


def served_request(scenarios, backend, **extra):
    """Build a simulate body and push it through real JSON."""
    body = {
        "scenarios": [scenario_to_payload(s) for s in scenarios],
        "backend": backend,
        "strict": False,
    }
    body.update(extra)
    return json.loads(json.dumps(body))


def assert_traces_identical(name, backend, served_payload, direct_trace):
    served = decode_trace(served_payload)
    assert served.length == direct_trace.length
    assert set(served.flows) == set(direct_trace.flows)
    for signal in direct_trace.flows:
        assert served.flows[signal] == direct_trace.flows[signal], (
            f"{name} on {backend}: flow of {signal!r} diverges between the "
            "served and the direct run"
        )
        assert [type(v) for v in served.flows[signal].values] == [
            type(v) for v in direct_trace.flows[signal].values
        ], f"{name} on {backend}: value types of {signal!r} not preserved"
    assert served.warnings == direct_trace.warnings


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("name", catalog_names())
def test_served_traces_bit_identical(name, backend, service, prepared):
    info = prepared(name)
    response = json.loads(
        json.dumps(
            service.simulate(
                info["fingerprint"],
                served_request(info["scenarios"], backend),
            )
        )
    )
    assert response["ok"] is True, response
    assert response["backend"] == backend
    direct = create_backend(info["system_model"], backend, strict=False)
    assert len(response["results"]) == len(info["scenarios"])
    for index, scenario in enumerate(info["scenarios"]):
        direct_trace = direct.run(scenario)
        assert_traces_identical(
            name, backend, response["results"][index]["trace"], direct_trace
        )


def test_served_workers_match_sequential(service, prepared):
    """Worker-pool execution through the service matches workers=1 exactly."""
    info = prepared("producer_consumer")
    bodies = [
        served_request(info["scenarios"] * 2, "compiled", workers=workers)
        for workers in (1, 2)
    ]
    sequential, pooled = (
        service.simulate(info["fingerprint"], body) for body in bodies
    )
    assert pooled["workers"] == 2
    assert json.dumps(pooled["results"], sort_keys=True) == json.dumps(
        sequential["results"], sort_keys=True
    )


def test_served_parity_over_http(service, prepared):
    """One entry end-to-end through the real HTTP adapter on 127.0.0.1."""
    entry = load_case_study("producer_consumer")
    info = prepared("producer_consumer")
    with serving(service) as server:
        status, submitted = call(
            server,
            "POST",
            "/models",
            {
                "source": render_model(entry.load_model()),
                "root": entry.root_implementation,
                "package": entry.default_package,
            },
        )
        assert status == 200, submitted
        assert submitted["fingerprint"] == info["fingerprint"]
        status, response = call(
            server,
            "POST",
            f"/models/{submitted['fingerprint']}/simulate",
            served_request(info["scenarios"], "compiled"),
        )
    assert status == 200, response
    direct = create_backend(info["system_model"], "compiled", strict=False)
    for index, scenario in enumerate(info["scenarios"]):
        assert_traces_identical(
            "producer_consumer",
            "compiled",
            response["results"][index]["trace"],
            direct.run(scenario),
        )
