"""E19 — persistent warm starts: the artifact store across processes.

E18 showed that a *resident* service amortises the toolchain; this gate
covers the case E18 cannot: the process restarts.  ``repro.store``
persists the analysed toolchain payload (the ``toolchain`` artifact,
plus a raw-source ``index`` entry) under a structural fingerprint, so a
**second process**
skips parsing, translation and every analysis and pays only hash +
unpickle + plan compilation:

* **cold** — ``run_toolchain`` with the store disabled: parse,
  instantiate, translate, full analysis suite, then backend build;
* **warm** — ``run_toolchain`` over a pre-warmed cache directory with a
  *fresh* :class:`~repro.store.ArtifactStore` instance (a new process,
  in effect), then backend build from the restored flat model.

Gate: **the warm start must be at least 3x faster than cold**.  Trace
bit-parity between the warm-restored model and the cold run is asserted
before any timing, so the speedup is never bought with wrong answers.

A second, softer measurement covers the serving angle: a fresh
``SimulationService`` booting over the warm store directory must handle
its first submit measurably faster than a true cold service — this is
E18's ``before_seconds`` dropping when the store is on.

Recorded as ``persistent_warm_start_e19`` in ``BENCH_e10.json``
(``before_seconds`` = cold, ``after_seconds`` = warm).
"""

from bench_timing import best_of_interleaved

from repro.aadl.printer import render_model
from repro.casestudies import load_case_study
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.serve.service import ServiceConfig, SimulationService
from repro.sig.engine import DEFAULT_BACKEND, create_backend
from repro.sig.engine.batch import default_scenario
from repro.store import ArtifactStore

CASE = "large_integration"
LENGTH = 16  # short horizon: the cold/warm gap must come from the analyses
MIN_SPEEDUP = 3.0
MIN_SERVE_SPEEDUP = 1.5


def _options(store):
    entry = load_case_study(CASE)
    return ToolchainOptions(
        root_implementation=entry.root_implementation,
        default_package=entry.default_package,
        # large_integration is not RM-schedulable; analyse it the way a
        # client would resubmit it (same resolution E18 measures).
        translation=TranslationConfig(include_scheduler=False),
        simulate_hyperperiods=0,
        cost_model=None,
        store=store,
    )


def test_bench_e19_persistent_warm_start(bench_e10, tmp_path):
    source = render_model(load_case_study(CASE).load_model())
    warm_dir = str(tmp_path / "warm")

    # --- parity first: a warm restore must answer bit-identically -------
    cold_result = run_toolchain(source, _options(None))
    seeded = run_toolchain(source, _options(ArtifactStore(warm_dir)))
    assert seeded.store_hit is False  # this run wrote the artifacts
    restored = run_toolchain(source, _options(ArtifactStore(warm_dir)))
    assert restored.store_hit is True
    assert restored.clock_report.summary() == cold_result.clock_report.summary()
    assert restored.summary() == cold_result.summary()

    cold_model = cold_result.flat_model
    warm_model = restored.flat_model
    cold_trace = create_backend(cold_model, DEFAULT_BACKEND).run(
        default_scenario(cold_model, LENGTH)
    )
    warm_trace = create_backend(warm_model, DEFAULT_BACKEND).run(
        default_scenario(warm_model, LENGTH)
    )
    assert warm_trace.length == cold_trace.length
    assert warm_trace.flows == cold_trace.flows

    # --- cold: no store, the full pipeline every time -------------------
    def cold():
        result = run_toolchain(source, _options(None))
        assert result.store_hit is False
        return create_backend(result.flat_model, DEFAULT_BACKEND)

    # --- warm: a fresh process over the warm cache directory -------------
    def warm():
        result = run_toolchain(source, _options(ArtifactStore(warm_dir)))
        assert result.store_hit is True
        return create_backend(result.flat_model, DEFAULT_BACKEND)

    # Each pair is timed in alternation, so a shift in machine load lands on
    # both sides of its ratio rather than on one.
    (_, cold_seconds), (_, warm_seconds) = best_of_interleaved(cold, warm)
    speedup = cold_seconds / warm_seconds

    # --- the serving angle: E18's cold start with the store on -----------
    body = {
        "source": source,
        "root": load_case_study(CASE).root_implementation,
        "package": load_case_study(CASE).default_package,
        "include_scheduler": False,
    }

    def serve_cold():
        return SimulationService(ServiceConfig()).submit(dict(body))

    def serve_warm():
        service = SimulationService(
            ServiceConfig(store=ArtifactStore(warm_dir))
        )
        return service.submit(dict(body))

    (cold_submit, serve_cold_seconds), (warm_submit, serve_warm_seconds) = (
        best_of_interleaved(serve_cold, serve_warm)
    )
    assert warm_submit["fingerprint"] == cold_submit["fingerprint"]
    assert warm_submit["model"]["analysis"] == cold_submit["model"]["analysis"]
    serve_speedup = serve_cold_seconds / serve_warm_seconds

    bench_e10.record(
        "persistent_warm_start_e19",
        before_seconds=cold_seconds,
        after_seconds=warm_seconds,
        backend=DEFAULT_BACKEND,
        workers=1,
        case_study=CASE,
        length=LENGTH,
        serve_cold_seconds=round(serve_cold_seconds, 4),
        serve_warm_seconds=round(serve_warm_seconds, 4),
        serve_speedup=round(serve_speedup, 2),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"persistent warm start only {speedup:.1f}x faster than cold "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s); the artifact "
        f"store is not amortising the analyses across processes"
    )
    assert serve_speedup >= MIN_SERVE_SPEEDUP, (
        f"a service booting over a warm store is only {serve_speedup:.1f}x "
        f"faster than a true cold start (cold {serve_cold_seconds:.3f}s, "
        f"warm {serve_warm_seconds:.3f}s)"
    )
