"""Framework-independent core of the simulation service.

:class:`SimulationService` is the whole server minus HTTP: it owns the
fingerprint-keyed :class:`~repro.serve.cache.PlanCache`, the submit path
(parse → canonicalise → fingerprint → analyse + compile exactly once), the
simulate path (symbolic scenario programs through
:func:`~repro.sig.engine.batch.simulate_batch` on resident prepared
backends), the streaming path (chunked sink events with cooperative
cancellation), and the server-level concurrency semaphore that turns
overload into typed ``busy`` backpressure.  The standard-library HTTP
server in :mod:`repro.serve.server` is a thin adapter over this class,
and the conformance, fuzz, fault and E18 benchmark suites exercise this
core directly, without a socket.

Request and response bodies everywhere are plain JSON-compatible dicts in
the wire format of :mod:`repro.serve.programs`; failures raise
:class:`~repro.serve.errors.ServeError` with a stable code and HTTP
status.  All entry points are thread-safe: the cache single-flights
compilation, per-entry locks serialise backend preparation, and a
semaphore bounds concurrently executing simulations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..aadl.model import default_root
from ..aadl.parser import parse_string
from ..core.toolchain import ToolchainOptions, TranslationConfig, run_toolchain
from ..scheduling.static_scheduler import SchedulingError, SchedulingPolicy
from ..sig.engine.backends import DEFAULT_BACKEND, create_backend
from ..sig.engine.batch import BatchResult, default_scenario, simulate_batch
from ..sig.engine.faults import FaultPlan, FaultSpec
from ..sig.engine.supervisor import ScenarioBudget, guarded
from ..sig.scenario import Scenario
from ..sig.simulator import SimulationError
from ..sig.sinks import DeltaSink, MaterializeSink, StatisticsSink, TraceSink
from ..sig.vcd import StreamingVcdSink
from .cache import PlanCache, canonical_source, model_fingerprint, source_key
from .errors import (
    ServeError,
    fault_from_exception,
    fault_payload,
    invalid_program,
    simulation_error_payload,
)
from .programs import (
    SimulateRequest,
    delta_log_to_payload,
    scenario_from_payload,
    statistics_to_payload,
    trace_to_payload,
)

__all__ = [
    "CachedModel",
    "ServiceConfig",
    "SimulationService",
    "SimulationStream",
]

#: Keys a ``POST /models`` body may carry.
_SUBMIT_FIELDS = frozenset(
    {"source", "root", "package", "policy", "include_scheduler", "lenient"}
)

#: VCD characters accumulated before a chunk event flushes.
_VCD_CHUNK_SIZE = 16384


@dataclass
class ServiceConfig:
    """Tunables of one :class:`SimulationService` instance.

    ``cache_capacity`` bounds the plan-cache LRU; ``max_concurrent`` bounds
    simultaneously *executing* simulations (excess requests are rejected
    with ``busy``/503 instead of queueing unboundedly — clients retry);
    ``default_backend`` is used when a simulate body names none.
    ``allow_fault_injection`` gates the ``fault_plan`` request field, a
    test/chaos-only hook that must never be reachable on a production
    server.  ``store`` plugs the persistent artifact cache
    (:mod:`repro.store`) under the in-memory plan cache: ``True`` uses the
    per-user default store, an :class:`~repro.store.ArtifactStore` uses
    that instance, ``None`` (default) keeps the service self-contained —
    cold submits then always pay the full toolchain.  With a store, a
    fresh server warm-starts models any earlier process analysed; compiled
    entries are published back on every cold submit.
    """

    cache_capacity: int = 32
    max_concurrent: int = 4
    default_backend: str = DEFAULT_BACKEND
    allow_fault_injection: bool = False
    store: Any = None


@dataclass
class CachedModel:
    """One resident plan-cache entry: the analysed, compiled model.

    Holds everything a simulate request needs without re-touching the
    toolchain: the flattened :attr:`system_model`, the analysis payloads
    rendered once at submit time, the schedule horizon helper, and a pool
    of prepared backends (:attr:`runners`) keyed by ``(backend, strict)``
    so repeated requests on any backend reuse one compiled instance.
    """

    fingerprint: str
    canonical: str
    root: str
    package: Optional[str]
    policy: str
    include_scheduler: bool
    lenient: bool
    system_model: Any
    analysis: Dict[str, Any]
    hyperperiod_length: Callable[[int], Optional[int]]
    compile_seconds: float
    created_at: float
    hits: int = 0
    runners: Dict[Tuple[str, bool], Any] = field(default_factory=dict)
    _runner_lock: threading.Lock = field(default_factory=threading.Lock)

    def runner_for(self, backend: str, strict: bool) -> Any:
        """The resident prepared backend for ``(backend, strict)``.

        Prepared at most once per key (later requests reuse it — this is
        the warm path the E18 gate measures); an unknown backend name
        surfaces as the ``unknown-backend`` service error.
        """
        key = (backend, strict)
        with self._runner_lock:
            runner = self.runners.get(key)
            if runner is None:
                try:
                    runner = create_backend(
                        self.system_model, backend=backend, strict=strict
                    )
                except ValueError as exc:
                    raise ServeError("unknown-backend", str(exc), backend=backend)
                self.runners[key] = runner
            return runner

    def info(self) -> Dict[str, Any]:
        """The ``GET /models/{fp}`` payload: identity, analyses, counters."""
        return {
            "fingerprint": self.fingerprint,
            "root": self.root,
            "package": self.package,
            "policy": self.policy,
            "include_scheduler": self.include_scheduler,
            "lenient": self.lenient,
            "signals": self.system_model.signal_count(),
            "analysis": self.analysis,
            "compile_seconds": self.compile_seconds,
            "hits": self.hits,
            "prepared_backends": sorted(
                backend for backend, _ in self.runners
            ),
        }


class SimulationService:
    """The serving core: submit models once, simulate them many times.

    See the module docstring for the architecture; the public surface maps
    one-to-one onto the HTTP endpoints of :mod:`repro.serve.server`:

    ========================================= ==========================
    method                                    endpoint
    ========================================= ==========================
    :meth:`submit`                            ``POST /models``
    :meth:`list_models`                       ``GET /models``
    :meth:`model_info`                        ``GET /models/{fp}``
    :meth:`evict`                             ``DELETE /models/{fp}``
    :meth:`simulate`                          ``POST /models/{fp}/simulate``
    :meth:`stream_simulate`                   ``POST /models/{fp}/simulate/stream``
    :meth:`stats`                             ``GET /stats``
    ========================================= ==========================
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = PlanCache(self.config.cache_capacity)
        from ..store import resolve_store

        #: Persistent disk tier behind the in-memory plan cache (or None).
        self.store = resolve_store(self.config.store)
        self._slots = threading.Semaphore(self.config.max_concurrent)
        self._active = 0
        self._active_lock = threading.Lock()
        self.requests = {"submit": 0, "simulate": 0, "stream": 0, "rejected": 0}

    # ------------------------------------------------------------------
    # submit path
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Dict[str, Any]:
        """Register a model: analyse + compile once, cache by fingerprint.

        The body is ``{"source": aadl_text, "root"?, "package"?,
        "policy"?, "include_scheduler"?, "lenient"?}``.  Byte-identical
        resubmissions short-circuit through the textual index without
        re-parsing; structurally equal ones converge on the same
        fingerprint after canonicalisation.  Returns the fingerprint, a
        ``cached`` flag, and the model info payload.
        """
        self.requests["submit"] += 1
        options = self._submit_options(payload)
        source = options["source"]
        options_key = (
            options["root"] or "",
            options["package"] or "",
            options["policy"],
            options["include_scheduler"],
            options["lenient"],
        )

        raw_key = source_key(source, options_key)
        fingerprint = self.cache.resolve_source(raw_key)
        if fingerprint is not None:
            entry = self.cache.get(fingerprint)
            if entry is not None:
                return self._submit_response(entry, cached=True)

        try:
            canonical = canonical_source(source)
        except Exception as exc:
            raise ServeError("invalid-model", f"AADL source failed to parse: {exc}")
        # The root may be inferred from the parsed model; fold the *resolved*
        # root into the fingerprint so "explicit root R" and "inferred root R"
        # share one cache entry.
        root = options["root"] or self._infer_root(canonical)
        options_key = (
            root,
            options["package"] or "",
            options["policy"],
            options["include_scheduler"],
            options["lenient"],
        )
        fingerprint = model_fingerprint(canonical, options_key)

        entry, created = self.cache.get_or_create(
            fingerprint,
            lambda: self._compile(fingerprint, canonical, root, options),
            source_keys=(raw_key,),
        )
        return self._submit_response(entry, cached=not created)

    def _submit_options(self, payload: Any) -> Dict[str, Any]:
        """Validate a submit body into its option dict."""
        if not isinstance(payload, Mapping):
            raise ServeError(
                "invalid-model",
                f"submit request must be an object, got {type(payload).__name__}",
            )
        unknown = sorted(set(payload) - _SUBMIT_FIELDS)
        if unknown:
            raise ServeError(
                "invalid-model",
                f"submit request has unknown key(s) {unknown}; allowed: "
                f"{sorted(_SUBMIT_FIELDS)}",
            )
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ServeError("invalid-model", "'source' must be non-empty AADL text")
        root = payload.get("root")
        package = payload.get("package")
        for name, value in (("root", root), ("package", package)):
            if value is not None and not isinstance(value, str):
                raise ServeError("invalid-model", f"{name!r} must be a string")
        policy = payload.get("policy", "rate_monotonic")
        if not isinstance(policy, str):
            raise ServeError("invalid-model", "'policy' must be a string")
        try:
            policy = SchedulingPolicy.from_name(policy).name.lower()
        except ValueError as exc:
            raise ServeError("invalid-model", str(exc))
        include_scheduler = payload.get("include_scheduler", True)
        lenient = payload.get("lenient", False)
        for name, value in (
            ("include_scheduler", include_scheduler),
            ("lenient", lenient),
        ):
            if not isinstance(value, bool):
                raise ServeError("invalid-model", f"{name!r} must be a boolean")
        return {
            "source": source,
            "root": root,
            "package": package,
            "policy": policy,
            "include_scheduler": include_scheduler,
            "lenient": lenient,
        }

    def _infer_root(self, canonical: str) -> str:
        """Pick the root implementation of an already-canonical source."""
        root = default_root(parse_string(canonical))
        if root is None:
            raise ServeError(
                "invalid-model",
                "no system or process implementation found; pass 'root' explicitly",
            )
        return root

    def _compile(
        self, fingerprint: str, canonical: str, root: str, options: Dict[str, Any]
    ) -> CachedModel:
        """The cache factory: one full toolchain run + default-backend prep."""
        started = time.perf_counter()
        toolchain_options = ToolchainOptions(
            root_implementation=root,
            default_package=options["package"],
            translation=TranslationConfig(
                include_scheduler=options["include_scheduler"],
                scheduling_policy=SchedulingPolicy.from_name(options["policy"]),
            ),
            simulate_hyperperiods=0,
            cost_model=None,
            strict_validation=not options["lenient"],
            # The persistent store makes this factory the *second* cache
            # level: in-memory miss → disk restore → full toolchain.
            store=self.store,
        )
        try:
            result = run_toolchain(canonical, toolchain_options)
        except SchedulingError as exc:
            raise ServeError(
                "unschedulable",
                f"scheduler synthesis failed: {exc}; resubmit with "
                "'include_scheduler': false to analyse without a schedule",
            )
        except ServeError:
            raise
        except Exception as exc:
            raise ServeError("invalid-model", f"model rejected: {exc}")

        schedules = dict(result.schedules)

        def hyperperiod_length(hyperperiods: int) -> Optional[int]:
            if not schedules:
                return None
            return next(iter(schedules.values())).simulation_length(hyperperiods)

        entry = CachedModel(
            fingerprint=fingerprint,
            canonical=canonical,
            root=root,
            package=options["package"],
            policy=options["policy"],
            include_scheduler=options["include_scheduler"],
            lenient=options["lenient"],
            # The flattened model compiles to the identical plan without
            # re-flattening per prepared backend (and is what a store
            # restore hands back).
            system_model=result.flat_model
            if result.flat_model is not None
            else result.system_model,
            analysis=self._analysis_payload(result),
            hyperperiod_length=hyperperiod_length,
            compile_seconds=0.0,
            created_at=time.time(),
        )
        # Prepare the default backend inside the factory so the *cold* path
        # pays plan compilation exactly once and the counters see it.
        entry.runner_for(self.config.default_backend, strict=True)
        entry.compile_seconds = time.perf_counter() - started
        return entry

    @staticmethod
    def _analysis_payload(result: Any) -> Dict[str, Any]:
        """Render the submit-time analyses (clocks, determinism, deadlocks)."""
        clock = result.clock_report
        payload: Dict[str, Any] = {}
        if clock is not None:
            payload["clocks"] = {
                "process": clock.process_name,
                "signals": clock.signal_count,
                "classes": clock.clock_count,
                "endochronous": clock.endochronous,
                "master_clock": clock.master_clock,
                "roots": list(clock.roots),
                "unresolved_constraints": list(clock.unresolved_constraints),
            }
        if result.determinism is not None:
            payload["determinism"] = {
                "deterministic": result.determinism.deterministic,
                "issues": [str(issue) for issue in result.determinism.issues],
            }
        if result.deadlocks is not None:
            payload["deadlocks"] = {
                "deadlock_free": result.deadlocks.deadlock_free,
                "cycles": [list(cycle) for cycle in result.deadlocks.cycles],
            }
        payload["validation"] = {
            "errors": [str(error) for error in result.diagnostics.errors],
        }
        return payload

    def _submit_response(self, entry: CachedModel, cached: bool) -> Dict[str, Any]:
        """The ``POST /models`` response body."""
        return {
            "fingerprint": entry.fingerprint,
            "cached": cached,
            "model": entry.info(),
        }

    # ------------------------------------------------------------------
    # model registry
    # ------------------------------------------------------------------
    def list_models(self) -> Dict[str, Any]:
        """The ``GET /models`` payload: resident fingerprints + counters."""
        return {"models": self.cache.fingerprints(), "cache": self.cache.stats()}

    def model_info(self, fingerprint: str) -> Dict[str, Any]:
        """The ``GET /models/{fp}`` payload (404 when not resident)."""
        entry = self.cache.peek(fingerprint)
        if entry is None:
            raise self._not_found(fingerprint)
        info = entry.info()
        info["cache"] = self.cache.stats()
        return info

    def evict(self, fingerprint: str) -> Dict[str, Any]:
        """Drop one cached model (``DELETE /models/{fp}``)."""
        if not self.cache.evict(fingerprint):
            raise self._not_found(fingerprint)
        return {"fingerprint": fingerprint, "evicted": True}

    @staticmethod
    def _not_found(fingerprint: str) -> ServeError:
        return ServeError(
            "model-not-found",
            f"no cached model under fingerprint {fingerprint!r}; it was "
            "evicted or never submitted — POST the source again",
            fingerprint=fingerprint,
        )

    # ------------------------------------------------------------------
    # simulate path
    # ------------------------------------------------------------------
    def simulate(self, fingerprint: str, payload: Any) -> Dict[str, Any]:
        """Run a batch of symbolic scenarios against a cached model.

        The body is the :class:`~repro.serve.programs.SimulateRequest`
        schema; execution goes through
        :func:`~repro.sig.engine.batch.simulate_batch` on the entry's
        resident backend with the request's supervision knobs, so worker
        crashes/timeouts/budget violations surface as typed fault entries
        in a 200 response rather than failing the request.
        """
        self.requests["simulate"] += 1
        request = SimulateRequest.from_payload(payload)
        if "vcd" in request.sinks:
            raise invalid_program(
                "the 'vcd' sink is stream-only; use POST "
                "/models/{fp}/simulate/stream"
            )
        entry = self._entry(fingerprint)
        scenarios = self._decode_scenarios(entry, request)
        length = self._resolve_length(entry, request, scenarios)
        runner = entry.runner_for(
            request.backend or self.config.default_backend, request.strict
        )
        fault_plan = self._decode_fault_plan(request.fault_plan)
        sink_factory = _sink_factory(request) if request.sinks else None

        with self._slot():
            try:
                result = simulate_batch(
                    entry.system_model,
                    scenarios,
                    record=request.record,
                    collect_errors=True,
                    workers=request.workers,
                    sink_factory=sink_factory,
                    length=length,
                    timeout=request.timeout,
                    retries=request.retries,
                    backoff=request.backoff,
                    max_failures=request.max_failures,
                    scenario_budget=self._decode_budget(request.scenario_budget),
                    fault_plan=fault_plan,
                    runner=runner,
                )
            except ValueError as exc:
                # Unbounded scenarios without a horizon, bad record lists...
                raise invalid_program(str(exc))
        return self._batch_response(entry, request, result)

    def _entry(self, fingerprint: str) -> CachedModel:
        """The cached model of a simulate request (404 when missing)."""
        entry = self.cache.get(fingerprint)
        if entry is None:
            raise self._not_found(fingerprint)
        return entry

    def _slot(self):
        """Admit one executing simulation, or reject with ``busy``/503."""
        service = self

        class _Slot:
            def __enter__(self) -> None:
                if not service._slots.acquire(blocking=False):
                    service.requests["rejected"] += 1
                    raise ServeError(
                        "busy",
                        f"server is executing {service.config.max_concurrent} "
                        "simulations already; retry later",
                        max_concurrent=service.config.max_concurrent,
                    )
                with service._active_lock:
                    service._active += 1

            def __exit__(self, *exc_info: Any) -> None:
                with service._active_lock:
                    service._active -= 1
                service._slots.release()

        return _Slot()

    def _decode_scenarios(
        self, entry: CachedModel, request: SimulateRequest
    ) -> List[Scenario]:
        """Decode the request's scenario payloads (symbolic or default-form)."""
        scenarios: List[Scenario] = []
        for index, payload in enumerate(request.scenarios):
            if isinstance(payload, Mapping) and payload.get("default"):
                unknown = sorted(set(payload) - {"default", "stimuli", "length"})
                if unknown:
                    raise invalid_program(
                        f"scenario {index}: default-scenario form has unknown "
                        f"key(s) {unknown}; allowed: ['default', 'length', 'stimuli']"
                    )
                stimuli = payload.get("stimuli") or {}
                if not isinstance(stimuli, Mapping) or not all(
                    isinstance(name, str)
                    and isinstance(period, int)
                    and not isinstance(period, bool)
                    and period > 0
                    for name, period in stimuli.items()
                ):
                    raise invalid_program(
                        f"scenario {index}: 'stimuli' must map signal names to "
                        "positive integer periods"
                    )
                length = payload.get("length")
                if length is not None and (
                    isinstance(length, bool) or not isinstance(length, int)
                ):
                    raise invalid_program(
                        f"scenario {index}: 'length' must be an integer or null"
                    )
                scenarios.append(
                    default_scenario(entry.system_model, length, dict(stimuli))
                )
                continue
            try:
                scenarios.append(scenario_from_payload(payload))
            except ServeError as exc:
                raise invalid_program(f"scenario {index}: {exc.message}")
        return scenarios

    def _resolve_length(
        self,
        entry: CachedModel,
        request: SimulateRequest,
        scenarios: List[Scenario],
    ) -> Optional[int]:
        """The simulate-time horizon: explicit length > hyperperiods > none."""
        if request.length is not None:
            return request.length
        if request.hyperperiods is not None:
            length = entry.hyperperiod_length(request.hyperperiods)
            if length is None:
                raise invalid_program(
                    "'hyperperiods' needs a scheduled model (submitted with a "
                    "synthesised scheduler); this model has no schedule — pass "
                    "'length' instead"
                )
            return length
        for index, scenario in enumerate(scenarios):
            if scenario.length is None:
                raise invalid_program(
                    f"scenario {index} is unbounded and the request sets "
                    "neither 'length' nor 'hyperperiods'; some horizon must "
                    "be chosen"
                )
        return None

    def _decode_budget(self, budget: Any) -> Optional[ScenarioBudget]:
        """Coerce the request's scenario budget (int or mapping form)."""
        try:
            return ScenarioBudget.coerce(budget)
        except TypeError as exc:
            raise invalid_program(str(exc))

    def _decode_fault_plan(self, payload: Any) -> Optional[FaultPlan]:
        """Decode the test-only ``fault_plan`` field into a FaultPlan."""
        if payload is None:
            return None
        if not self.config.allow_fault_injection:
            raise invalid_program(
                "'fault_plan' is a test-only field; this server does not "
                "allow fault injection"
            )
        if not isinstance(payload, list):
            raise invalid_program("'fault_plan' must be an array of fault specs")
        specs: List[FaultSpec] = []
        for index, spec in enumerate(payload):
            if not isinstance(spec, Mapping):
                raise invalid_program(f"fault spec {index} must be an object")
            unknown = sorted(set(spec) - {"kind", "scenario", "attempts", "delay"})
            if unknown:
                raise invalid_program(
                    f"fault spec {index} has unknown key(s) {unknown}"
                )
            attempts = spec.get("attempts", (0,))
            if attempts is not None:
                if not isinstance(attempts, list) or not all(
                    isinstance(a, int) and not isinstance(a, bool) for a in attempts
                ):
                    raise invalid_program(
                        f"fault spec {index}: 'attempts' must be null (every "
                        "attempt) or an array of integers"
                    )
                attempts = tuple(attempts)
            try:
                specs.append(
                    FaultSpec(
                        kind=spec.get("kind", ""),
                        scenario=spec.get("scenario", 0),
                        attempts=attempts,
                        delay=spec.get("delay", 0.05),
                    )
                )
            except ValueError as exc:
                raise invalid_program(f"fault spec {index}: {exc}")
        return FaultPlan(tuple(specs))

    def _batch_response(
        self, entry: CachedModel, request: SimulateRequest, result: BatchResult
    ) -> Dict[str, Any]:
        """Render one :class:`BatchResult` as the simulate response body."""
        errors = {index: error for index, error in result.errors}
        faults = {fault.scenario: fault for fault in result.faults}
        results: List[Dict[str, Any]] = []
        for index in range(len(result.traces)):
            item: Dict[str, Any] = {"index": index}
            if index in errors:
                item["error"] = simulation_error_payload(index, errors[index])
            elif index in faults:
                item["fault"] = fault_payload(faults[index])
            elif result.streamed:
                item.update(
                    _render_sinks(request, result.sink_results[index])
                )
            elif request.include_trace and result.traces[index] is not None:
                item["trace"] = trace_to_payload(result.traces[index])
            results.append(item)
        return {
            "fingerprint": entry.fingerprint,
            "backend": result.backend,
            "workers": result.workers,
            "scenarios": len(result.traces),
            "ok": result.ok,
            "compile_seconds": result.compile_seconds,
            "run_seconds": result.run_seconds,
            "results": results,
        }

    # ------------------------------------------------------------------
    # streaming path
    # ------------------------------------------------------------------
    def stream_simulate(self, fingerprint: str, payload: Any) -> "SimulationStream":
        """Run scenarios with results streamed as typed events.

        Validates the request up front (errors raise before any event is
        produced, mapping to their HTTP status); then returns a
        :class:`SimulationStream` whose iterator yields event dicts while
        a worker thread simulates scenario by scenario.  Closing the
        stream early (client disconnect) cancels the running scenario
        cooperatively — its sinks are still ``on_close()``d.
        """
        self.requests["stream"] += 1
        request = SimulateRequest.from_payload(payload)
        if request.fault_plan is not None:
            self._decode_fault_plan(request.fault_plan)  # validates / gates
        entry = self._entry(fingerprint)
        scenarios = self._decode_scenarios(entry, request)
        length = self._resolve_length(entry, request, scenarios)
        runner = entry.runner_for(
            request.backend or self.config.default_backend, request.strict
        )
        budget = self._decode_budget(request.scenario_budget)
        slot = self._slot()
        slot.__enter__()
        try:
            stream = SimulationStream(
                entry=entry,
                runner=runner,
                request=request,
                scenarios=scenarios,
                length=length,
                budget=budget,
                release=lambda: slot.__exit__(None, None, None),
            )
        except BaseException:
            slot.__exit__(None, None, None)
            raise
        stream.start()
        return stream

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload: cache + concurrency + request counters."""
        with self._active_lock:
            active = self._active
        return {
            "cache": self.cache.stats(),
            "store": self.store.stats() if self.store is not None else None,
            "active_simulations": active,
            "max_concurrent": self.config.max_concurrent,
            "requests": dict(self.requests),
        }


class _StreamCancelled(Exception):
    """Raised inside a streamed run when the client went away."""


class _CancelSink(TraceSink):
    """A sink that aborts the run cooperatively once the stream is closed.

    The backends guarantee ``on_close()`` on every sink when a run aborts,
    so raising here both stops the simulation promptly and exercises the
    cleanup path the disconnect tests assert.
    """

    def __init__(self, cancelled: threading.Event) -> None:
        self._cancelled = cancelled
        self.closed = False

    def on_header(self, header: Any) -> None:
        """Nothing to set up."""

    def on_instant(self, instant: int, values: Any) -> None:
        """Abort the run as soon as cancellation is requested."""
        if self._cancelled.is_set():
            raise _StreamCancelled()

    def on_close(self) -> None:
        """Record the close (the disconnect tests count these)."""
        self.closed = True

    def result(self) -> None:
        """Cancel sinks produce nothing."""
        return None


class _TrackedSink(TraceSink):
    """Delegating wrapper counting ``on_close()`` calls on a stream counter.

    The disconnect tests assert every sink of an aborted streamed scenario
    was closed; the backends guarantee the calls, this wrapper makes them
    observable without touching the wrapped sink's behaviour.
    """

    def __init__(self, sink: TraceSink, on_closed: Callable[[], None]) -> None:
        self._sink = sink
        self._on_closed = on_closed

    def on_header(self, header: Any) -> None:
        """Delegate to the wrapped sink."""
        self._sink.on_header(header)

    def on_instant(self, instant: int, values: Any) -> None:
        """Delegate to the wrapped sink."""
        self._sink.on_instant(instant, values)

    def on_close(self) -> None:
        """Delegate, then count the close."""
        self._sink.on_close()
        self._on_closed()

    def result(self) -> Any:
        """Delegate to the wrapped sink."""
        return self._sink.result()


class _ChunkWriter:
    """A ``write()`` target that flushes accumulated text in bounded chunks."""

    def __init__(self, emit: Callable[[str], None]) -> None:
        self._emit = emit
        self._parts: List[str] = []
        self._size = 0

    def write(self, text: str) -> int:
        """Buffer *text*, emitting a chunk each time the threshold is hit."""
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _VCD_CHUNK_SIZE:
            self.flush()
        return len(text)

    def flush(self) -> None:
        """Emit whatever is buffered as one chunk event."""
        if self._parts:
            self._emit("".join(self._parts))
            self._parts = []
            self._size = 0


class SimulationStream:
    """One in-flight streamed simulation: an iterator of event dicts.

    Events, in order: one ``open`` (request echo), then per scenario any
    number of ``vcd`` chunks followed by its terminal event (``result`` on
    success — carrying the requested stats/deltas/trace payloads —
    ``error`` for deterministic model errors, ``fault`` for
    timeout/budget/crash), and finally one ``done`` carrying batch
    counters.  A scenario's work runs on a worker thread; the consumer
    iterates at its own pace over a bounded queue.  :meth:`close` cancels
    cooperatively: the running scenario aborts at its next instant, every
    sink is ``on_close()``d by the backend, and the worker exits without
    producing further events.
    """

    def __init__(
        self,
        entry: CachedModel,
        runner: Any,
        request: SimulateRequest,
        scenarios: List[Scenario],
        length: Optional[int],
        budget: Optional[ScenarioBudget],
        release: Callable[[], None],
    ) -> None:
        import queue

        self._entry = entry
        self._runner = runner
        self._request = request
        self._scenarios = scenarios
        self._length = length
        self._budget = budget
        self._release = release
        self._queue: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue(maxsize=64)
        self._cancelled = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._consumed = False
        self._released = False
        #: Observability for the disconnect tests: sinks closed per scenario.
        self.sinks_closed = 0
        self.scenarios_started = 0

    def start(self) -> None:
        """Launch the worker thread (called once by the service)."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-stream", daemon=True
        )
        self._thread.start()

    # -- consumer side -------------------------------------------------
    def __iter__(self) -> Iterator[Dict[str, Any]]:
        """Yield events until ``done`` (or until the stream is closed)."""
        if self._consumed:
            raise ServeError(
                "stream-closed", "this simulation stream was already consumed"
            )
        self._consumed = True
        try:
            while True:
                event = self._queue.get()
                if event is None:
                    break
                yield event
        finally:
            self.close()

    def close(self) -> None:
        """Cancel the stream: stop the worker, release the server slot."""
        self._cancelled.set()
        # Keep draining while the worker winds down so a producer blocked
        # on a full queue (including its final sentinel put) always exits.
        deadline = time.monotonic() + 30.0
        while (
            self._thread is not None
            and self._thread.is_alive()
            and time.monotonic() < deadline
        ):
            while True:
                try:
                    self._queue.get_nowait()
                except Exception:
                    break
            self._thread.join(timeout=0.05)
        if not self._released:
            self._released = True
            self._release()

    # -- producer side -------------------------------------------------
    def _put(self, event: Dict[str, Any]) -> None:
        """Enqueue one event unless the consumer has gone away."""
        import queue

        while not self._cancelled.is_set():
            try:
                self._queue.put(event, timeout=0.1)
                return
            except queue.Full:
                continue
        raise _StreamCancelled()

    def _run(self) -> None:
        """Worker loop: simulate scenario by scenario, emitting events."""
        try:
            self._put(
                {
                    "event": "open",
                    "fingerprint": self._entry.fingerprint,
                    "backend": self._runner.name,
                    "scenarios": len(self._scenarios),
                }
            )
            errors = 0
            faults = 0
            for index, scenario in enumerate(self._scenarios):
                self.scenarios_started += 1
                outcome = self._run_scenario(index, scenario)
                if outcome == "error":
                    errors += 1
                elif outcome == "fault":
                    faults += 1
                if outcome == "cancelled":
                    return
            self._put(
                {
                    "event": "done",
                    "scenarios": len(self._scenarios),
                    "errors": errors,
                    "faults": faults,
                    "ok": not errors and not faults,
                }
            )
        except _StreamCancelled:
            pass
        finally:
            self._queue.put(None)

    def _run_scenario(self, index: int, scenario: Scenario) -> str:
        """Run one scenario into fresh sinks; emit its terminal event."""
        request = self._request
        sinks: List[TraceSink] = []
        stats_sink = deltas_sink = materialize_sink = None
        writer = None
        if "stats" in request.sinks:
            stats_sink = StatisticsSink()
            sinks.append(stats_sink)
        if "deltas" in request.sinks:
            deltas_sink = DeltaSink(request.deltas_watch)
            sinks.append(deltas_sink)
        if "vcd" in request.sinks:
            writer = _ChunkWriter(
                lambda chunk: self._put(
                    {"event": "vcd", "scenario": index, "chunk": chunk}
                )
            )
            sinks.append(StreamingVcdSink(writer))
        if request.include_trace:
            materialize_sink = MaterializeSink()
            sinks.append(materialize_sink)
        sinks.append(_CancelSink(self._cancelled))

        def closed() -> None:
            self.sinks_closed += 1

        tracked = [_TrackedSink(sink, closed) for sink in sinks]
        try:
            with guarded(timeout=request.timeout, budget=self._budget):
                self._runner.run(
                    scenario,
                    record=request.record,
                    sinks=tracked,
                    length=self._length,
                )
        except _StreamCancelled:
            return "cancelled"
        except SimulationError as exc:
            self._put(
                {
                    "event": "error",
                    "scenario": index,
                    **simulation_error_payload(index, exc),
                }
            )
            return "error"
        except Exception as exc:
            fault = fault_from_exception(index, exc)
            self._put(
                {"event": "fault", "scenario": index, **fault_payload(fault)}
            )
            return "fault"
        if writer is not None:
            writer.flush()
        payload: Dict[str, Any] = {"event": "result", "scenario": index}
        if stats_sink is not None:
            payload["stats"] = statistics_to_payload(stats_sink.result())
        if deltas_sink is not None:
            payload["deltas"] = delta_log_to_payload(deltas_sink.result())
        if materialize_sink is not None:
            payload["trace"] = trace_to_payload(materialize_sink.result())
        self._put(payload)
        return "ok"


def _sink_factory(request: SimulateRequest):
    """Build the per-scenario sink factory of a non-streaming sink request.

    Returns a picklable factory (closing over only plain data) producing,
    per scenario, the requested sinks in a fixed order — plus a
    materialising sink when the request also wants traces — so
    :func:`_render_sinks` can address them positionally.
    """
    return _SinkFactory(
        stats="stats" in request.sinks,
        deltas="deltas" in request.sinks,
        deltas_watch=tuple(request.deltas_watch or ()) or None,
        materialize=request.include_trace,
    )


class _SinkFactory:
    """Picklable sink factory used by ``workers=N`` sink batches."""

    def __init__(
        self,
        stats: bool,
        deltas: bool,
        deltas_watch: Optional[Tuple[str, ...]],
        materialize: bool,
    ) -> None:
        self.stats = stats
        self.deltas = deltas
        self.deltas_watch = deltas_watch
        self.materialize = materialize

    def __call__(self, index: int) -> List[TraceSink]:
        """Fresh sinks for scenario *index*, in the fixed rendering order."""
        sinks: List[TraceSink] = []
        if self.stats:
            sinks.append(StatisticsSink())
        if self.deltas:
            sinks.append(DeltaSink(self.deltas_watch))
        if self.materialize:
            sinks.append(MaterializeSink())
        return sinks


def _render_sinks(request: SimulateRequest, sink_results: Any) -> Dict[str, Any]:
    """Render one scenario's sink results by the factory's fixed order."""
    rendered: Dict[str, Any] = {}
    results = list(sink_results)
    position = 0
    if "stats" in request.sinks:
        rendered["stats"] = statistics_to_payload(results[position])
        position += 1
    if "deltas" in request.sinks:
        rendered["deltas"] = delta_log_to_payload(results[position])
        position += 1
    if request.include_trace:
        rendered["trace"] = trace_to_payload(results[position])
    return rendered
