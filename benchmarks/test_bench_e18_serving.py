"""E18 — the serving warm path: compile once, simulate many times.

The whole point of ``repro.serve``'s fingerprint-keyed plan cache is that
a model is flattened, analysed and compiled **once**; every later request
for the same model (byte-identical or merely structurally identical
source) skips straight to a resident execution plan.  This benchmark
measures that on the largest catalog entry (``large_integration``):

* **cold** — a fresh service handling its first request: submit (parse,
  canonicalise, analyse, compile, build the default backend) plus one
  short simulation;
* **warm** — the same service handling the same request again: raw-source
  cache hit plus the same simulation on the resident plan.

Gate: **warm must be at least 10x faster than cold** — the plan cache has
to actually amortise the toolchain, not just memoise a parse.  Bit-parity
of the warm response against a direct in-process run is asserted before
timing anything, so the speedup is never bought with wrong answers.

Recorded as ``serving_warm_path_e18`` in ``BENCH_e10.json``
(``before_seconds`` = cold, ``after_seconds`` = warm).
"""

import json

from bench_timing import best_of_interleaved

from repro.aadl.printer import render_model
from repro.casestudies import load_case_study
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.serve.errors import ServeError
from repro.serve.programs import decode_trace
from repro.serve.service import ServiceConfig, SimulationService
from repro.sig.engine import DEFAULT_BACKEND

CASE = "large_integration"
LENGTH = 16  # short horizon: the cold/warm gap must come from compilation
RECORDED = 12  # a client-style record subset keeps response rendering small
MIN_SPEEDUP = 10.0

SIMULATE_BODY = {
    "scenarios": [{"default": True, "length": LENGTH}],
    "backend": DEFAULT_BACKEND,
}


def _submit_body():
    """The submit body, with ``include_scheduler`` resolved up front.

    ``large_integration`` is not RM-schedulable; a real client learns that
    from the first 422 and resubmits without the scheduler, so the steady
    state being measured here is the resolved body.
    """
    entry = load_case_study(CASE)
    body = {
        "source": render_model(entry.load_model()),
        "root": entry.root_implementation,
        "package": entry.default_package,
    }
    probe = SimulationService(ServiceConfig())
    try:
        probe.submit(dict(body))
    except ServeError as error:
        assert error.code == "unschedulable"
        body["include_scheduler"] = False
    return body


def test_bench_e18_serving_warm_path(bench_e10):
    body = _submit_body()

    # --- parity first: the warm path must answer bit-identically --------
    service = SimulationService(ServiceConfig())
    submitted = service.submit(dict(body))
    response = service.simulate(submitted["fingerprint"], dict(SIMULATE_BODY))
    assert response["ok"] is True
    served = decode_trace(
        json.loads(json.dumps(response["results"][0]["trace"]))
    )
    entry = load_case_study(CASE)
    options = ToolchainOptions(
        root_implementation=entry.root_implementation,
        default_package=entry.default_package,
        simulate_hyperperiods=0,
        cost_model=None,
    )
    if body.get("include_scheduler") is False:
        options.translation = TranslationConfig(include_scheduler=False)
    direct_result = run_toolchain(entry.load_model(), options)
    from repro.sig.engine import create_backend
    from repro.sig.engine.batch import default_scenario

    direct_model = direct_result.translation.system_model
    direct_trace = create_backend(direct_model, DEFAULT_BACKEND).run(
        default_scenario(direct_model, LENGTH)
    )
    assert served.length == direct_trace.length
    assert served.flows == direct_trace.flows

    # The timed request records a client-style signal subset: the gate is
    # about amortising compilation, not about rendering 2000+ flows.
    timed_body = dict(SIMULATE_BODY, record=sorted(served.flows)[:RECORDED])

    # --- cold: fresh service, first request ----------------------------
    def cold():
        fresh = SimulationService(ServiceConfig())
        fingerprint = fresh.submit(dict(body))["fingerprint"]
        return fresh.simulate(fingerprint, dict(timed_body))

    # --- warm: resident plan, byte-identical resubmit ------------------
    def warm():
        fingerprint = service.submit(dict(body))["fingerprint"]
        return service.simulate(fingerprint, dict(timed_body))

    # Timed in alternation, so a shift in machine load lands on both sides
    # of the ratio rather than on one.
    (cold_response, cold_seconds), (warm_response, warm_seconds) = (
        best_of_interleaved(cold, warm)
    )
    assert cold_response["results"] == warm_response["results"]
    recorded_flows = warm_response["results"][0]["trace"]["flows"]
    assert sorted(recorded_flows) == sorted(served.flows)[:RECORDED]
    for name, values in recorded_flows.items():
        assert values == response["results"][0]["trace"]["flows"][name]

    speedup = cold_seconds / warm_seconds
    bench_e10.record(
        "serving_warm_path_e18",
        before_seconds=cold_seconds,
        after_seconds=warm_seconds,
        backend=DEFAULT_BACKEND,
        workers=1,
        case_study=CASE,
        length=LENGTH,
        cache_hits=service.cache.stats()["hits"],
        compiles=service.cache.stats()["compiles"],
    )
    assert service.cache.compiles[submitted["fingerprint"]] == 1
    assert speedup >= MIN_SPEEDUP, (
        f"warm serving path only {speedup:.1f}x faster than cold "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s); the plan "
        f"cache is not amortising compilation"
    )
