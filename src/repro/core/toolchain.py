"""The complete and automatic tool chain (Section IV-E).

:func:`run_toolchain` chains every stage of the paper's flow on one AADL
model:

1. **capture** — parse the textual AADL (or accept an already-built
   declarative model) and instantiate the root system;
2. **validation** — declarative and instance legality checks;
3. **scheduling** — thread-level scheduler synthesis per processor (RM/EDF);
4. **transformation** — the ASME2SSME translation to SIGNAL process models;
5. **analysis** — clock calculus report, determinism identification, deadlock
   detection, schedulability and synchronizability analyses;
6. **simulation** — execution of the translated, scheduled model over a
   scenario and VCD trace generation;
7. **profiling** — cost-model-based performance estimation of the simulation.

Each stage's artefacts are collected in a :class:`ToolchainResult`, so the
examples and the benchmark harness can reproduce the case study of Section V
with a single call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..aadl.errors import AadlValidationError, DiagnosticCollector
from ..aadl.instance import ComponentInstance, Instantiator, instance_report
from ..aadl.model import AadlModel
from ..aadl.parser import parse_string
from ..aadl.printer import render_model
from ..aadl.validation import validate
from ..scheduling.analysis import SchedulabilityReport, SynchronizabilityReport, analyse_schedulability, analyse_synchronizability
from ..scheduling.static_scheduler import StaticSchedule
from ..scheduling.task import TaskSet, task_set_from_threads
from ..sig.analysis import (
    ClockReport,
    DeadlockReport,
    DeterminismReport,
    build_clock_report,
    check_determinism,
    detect_deadlocks,
)
from ..sig.calculus_modular import ModularClockCalculus, ModularStats
from ..sig.engine import DEFAULT_BACKEND, create_backend, default_scenario
from ..sig.process import ProcessModel
from ..sig.profiling import GENERIC_PROCESSOR, CostModel, DynamicProfile, Profiler
from ..sig.simulator import SimulationTrace
from ..sig.sinks import MaterializeSink, TraceSink
from ..sig.vcd import VcdWriter
from ..store import (
    KIND_INDEX,
    KIND_TOOLCHAIN,
    resolve_store,
    toolchain_fingerprint,
    toolchain_options_key,
    toolchain_raw_key,
)
from .translator import Asme2SsmeTranslator, TranslationConfig, TranslationResult


@dataclass
class ToolchainOptions:
    """Options of one tool-chain run."""

    root_implementation: str = ""
    default_package: Optional[str] = None
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    #: Number of hyper-periods to simulate (0 disables simulation).
    simulate_hyperperiods: int = 2
    #: Environment stimuli added to the simulation scenario: signal -> period (ticks).
    stimuli_periods: Dict[str, int] = field(default_factory=dict)
    #: Cost model used by the profiling stage (None disables profiling).
    cost_model: Optional[CostModel] = GENERIC_PROCESSOR
    #: Record only these signals during simulation (None = all).
    record_signals: Optional[Sequence[str]] = None
    #: Fail on validation errors instead of carrying on.
    strict_validation: bool = True
    #: Simulation backend: ``"compiled"`` (execution-plan engine),
    #: ``"reference"`` (fixed-point interpreter) or ``"vectorized"`` (numpy
    #: kernels over instant blocks).  All are trace-identical.
    backend: str = DEFAULT_BACKEND
    #: Streaming trace sinks (:mod:`repro.sig.sinks`) driven during the
    #: simulation stage, instant by instant — e.g. a
    #: :class:`~repro.sig.vcd.StreamingVcdSink` writing the waveform to disk
    #: while the run progresses.  ``None`` simulates exactly as before.
    sinks: Optional[Sequence[TraceSink]] = None
    #: Keep the full :class:`~repro.sig.simulator.SimulationTrace`
    #: (:attr:`ToolchainResult.trace`).  Disable for long-horizon runs that
    #: only need streaming sinks: memory stays O(signals), and the
    #: trace-dependent stages (profiling, post-hoc VCD) are skipped.
    materialize_trace: bool = True
    #: Persistent artifact store (:mod:`repro.store`) consulted before the
    #: analyse/translate stages and published to afterwards: ``None``/
    #: ``False`` disables persistence (the library default — runs are
    #: self-contained unless asked otherwise), ``True`` uses the per-user
    #: default store (``REPRO_CACHE_DIR`` / ``~/.cache/repro``; the CLI
    #: passes this unless ``--no-cache``), or an explicit
    #: :class:`~repro.store.ArtifactStore`.  A warm hit restores the parsed
    #: model, translation and analysis reports from disk and re-runs only
    #: the simulation stage; traces are bit-identical either way.
    store: "object | bool | None" = None


@dataclass
class ToolchainResult:
    """All the artefacts produced by one tool-chain run."""

    model: AadlModel
    root: ComponentInstance
    diagnostics: DiagnosticCollector
    translation: TranslationResult
    options: Optional[ToolchainOptions] = None
    task_sets: Dict[str, TaskSet] = field(default_factory=dict)
    schedules: Dict[str, StaticSchedule] = field(default_factory=dict)
    clock_report: Optional[ClockReport] = None
    determinism: Optional[DeterminismReport] = None
    deadlocks: Optional[DeadlockReport] = None
    schedulability: Dict[str, SchedulabilityReport] = field(default_factory=dict)
    synchronizability: Dict[str, SynchronizabilityReport] = field(default_factory=dict)
    trace: Optional[SimulationTrace] = None
    profile: Optional[DynamicProfile] = None
    scenario_length: int = 0
    backend_name: str = ""
    #: Products of :attr:`ToolchainOptions.sinks`, in sink order
    #: (``sink.result()`` after the simulation stage closed them).
    sink_results: List[object] = field(default_factory=list)
    #: The flattened system model the analyses ran over (and the simulation
    #: stage compiles its backend from — identical plans to flattening
    #: inside the backend, minus the repeated flatten).
    flat_model: Optional[ProcessModel] = None
    #: ``True`` when this result was restored from the persistent store
    #: instead of being analysed in-process (simulation still ran live).
    store_hit: bool = False
    #: Structural fingerprint of this run in the persistent store (empty
    #: when the run was not keyed — no store, or unkeyable options).
    store_fingerprint: str = ""
    #: Shape of the modular clock-calculus run (extraction memo counters;
    #: ``None`` on store hits, where no calculus ran at all).
    calculus_stats: Optional[ModularStats] = None

    @property
    def system_model(self) -> ProcessModel:
        return self.translation.system_model

    def write_vcd(self, path: str, signals: Optional[Sequence[str]] = None) -> str:
        """Write the simulation trace as a VCD file (co-simulation demo)."""
        if self.trace is None:
            raise RuntimeError("the tool chain was run without simulation")
        return VcdWriter(timescale="1 ms").write(self.trace, path, signals=signals)

    def summary(self) -> str:
        lines = [f"Tool chain summary for {self.root.qualified_name}"]
        report = instance_report(self.root)
        lines.append(
            f"  instance model      : {report.components} components, {report.threads} threads, "
            f"{report.connections} connections"
        )
        lines.append(f"  validation          : {len(self.diagnostics.errors)} error(s), "
                     f"{len(self.diagnostics.warnings)} warning(s)")
        for processor, schedule in self.schedules.items():
            lines.append(
                f"  schedule [{processor}]: {schedule.policy.value}, hyper-period {schedule.hyperperiod_ms} ms, "
                f"{len(schedule.jobs)} jobs, utilisation {schedule.processor_utilisation():.2f}"
            )
        if self.clock_report is not None:
            lines.append(
                f"  clock calculus      : {self.clock_report.clock_count} classes over "
                f"{self.clock_report.signal_count} signals, "
                f"{'endochronous' if self.clock_report.endochronous else 'not endochronous'}"
            )
        if self.determinism is not None:
            lines.append(f"  determinism         : {'ok' if self.determinism.deterministic else 'issues found'}")
        if self.deadlocks is not None:
            lines.append(f"  deadlock detection  : {'ok' if self.deadlocks.deadlock_free else 'cycles found'}")
        if self.trace is not None:
            backend = f" [{self.backend_name} backend]" if self.backend_name else ""
            lines.append(f"  simulation          : {self.trace.length} instants, "
                         f"{len(self.trace.flows)} recorded signals{backend}")
        elif self.scenario_length:
            backend = f" [{self.backend_name} backend]" if self.backend_name else ""
            lines.append(f"  simulation          : {self.scenario_length} instants, "
                         f"streamed to {len(self.sink_results)} sink(s){backend}")
        if self.profile is not None:
            lines.append(
                f"  profiling           : total {self.profile.total:.1f} units on {self.profile.cost_model}"
            )
        return "\n".join(lines)


def run_toolchain(
    source: "str | AadlModel",
    options: Optional[ToolchainOptions] = None,
) -> ToolchainResult:
    """Run the complete tool chain on AADL *source* (text or declarative model).

    With :attr:`ToolchainOptions.store` set, the parse→…→analyse stages are
    keyed by structural fingerprint in the persistent store: a warm hit
    restores every analysis artefact from disk (``result.store_hit``) and
    only the simulation stage runs live; a miss runs cold and publishes the
    artefacts back for the next process.  Results are identical either way
    — any corrupt or stale artifact silently falls back to the cold path.
    """
    options = options or ToolchainOptions()
    if not options.root_implementation:
        raise ValueError("ToolchainOptions.root_implementation must name the root system implementation")

    store = resolve_store(options.store)
    options_key = toolchain_options_key(options) if store is not None else None
    if options_key is None:
        store = None  # unkeyable run (custom thread behaviours): stay cold
    fingerprint = ""
    raw_key = None

    if store is not None and isinstance(source, str):
        # Textual fast path: byte-identical source skips even the parse.
        raw_key = toolchain_raw_key(source, options_key)
        indexed = store.load(KIND_INDEX, raw_key)
        if isinstance(indexed, str):
            result = _restore_from_store(store, indexed, options)
            if result is not None:
                _run_simulation(result, options)
                return result

    # 1. capture
    model = parse_string(source) if isinstance(source, str) else source

    if store is not None:
        # Structural path: canonicalise (parse→render fixed point, cheap
        # next to analysis) and look the fingerprint up on disk.
        fingerprint = toolchain_fingerprint(render_model(model), options_key)
        result = _restore_from_store(store, fingerprint, options)
        if result is not None:
            if raw_key is not None:
                store.save(KIND_INDEX, raw_key, fingerprint)
            _run_simulation(result, options)
            return result

    instantiator = Instantiator(model, default_package=options.default_package)
    root = instantiator.instantiate(options.root_implementation)

    # 2. validation
    diagnostics = validate(model, root)
    if options.strict_validation and diagnostics.has_errors:
        raise AadlValidationError(diagnostics)

    # 3 + 4. scheduling and transformation (the translator drives the synthesis).
    translation = Asme2SsmeTranslator(options.translation).translate(root)

    result = ToolchainResult(
        model=model,
        root=root,
        diagnostics=diagnostics,
        translation=translation,
        options=options,
        schedules=dict(translation.schedules),
        store_fingerprint=fingerprint,
    )

    # Per-processor task sets and schedulability/synchronizability analyses.
    from ..aadl.instance import processor_bindings

    bindings = processor_bindings(root)
    groups: Dict[str, List[ComponentInstance]] = {}
    for process in root.processes():
        processor = bindings.get(process.qualified_name)
        key = processor.qualified_name if processor is not None else "logical_processor"
        groups.setdefault(key, []).extend(process.threads())
    for processor_name, threads in groups.items():
        task_set = task_set_from_threads(threads, processor_name=processor_name)
        if not len(task_set):
            continue
        result.task_sets[processor_name] = task_set
        result.schedulability[processor_name] = analyse_schedulability(task_set)
        result.synchronizability[processor_name] = analyse_synchronizability(task_set)

    # 5. formal analyses on the flattened system model.  The clock calculus
    # runs modularly over the untouched process tree (identical results to
    # the flat solver, enforced by the parity tests, at a fraction of the
    # cost on large models).
    flat = translation.system_model.flatten()
    result.flat_model = flat
    calculus = ModularClockCalculus(translation.system_model)
    result.clock_report = build_clock_report(flat, result=calculus.run())
    result.calculus_stats = calculus.stats
    result.determinism = check_determinism(flat)
    result.deadlocks = detect_deadlocks(flat)

    if store is not None:
        store.save(KIND_TOOLCHAIN, fingerprint, _store_payload(result))
        if raw_key is not None:
            store.save(KIND_INDEX, raw_key, fingerprint)

    # 6 + 7. simulation and profiling (always live — they depend on the
    # run-specific backend/horizon/stimulus options, not on the model alone).
    _run_simulation(result, options)
    return result


#: Payload fields of one persisted toolchain artifact, in restore order.
_PAYLOAD_FIELDS = (
    "model",
    "root",
    "diagnostics",
    "translation",
    "task_sets",
    "schedules",
    "clock_report",
    "determinism",
    "deadlocks",
    "schedulability",
    "synchronizability",
    "flat_model",
)


def _store_payload(result: ToolchainResult) -> Dict[str, object]:
    """The picklable analysis artefacts of one cold run (no options/trace)."""
    return {name: getattr(result, name) for name in _PAYLOAD_FIELDS}


def _restore_from_store(
    store: object, fingerprint: str, options: ToolchainOptions
) -> Optional[ToolchainResult]:
    """Rebuild a :class:`ToolchainResult` from a stored payload, or ``None``.

    Any malformed payload (wrong type, missing fields) counts as corrupt:
    the artifact is dropped and the caller falls back to the cold path —
    persistence must never turn into an error the cold path would not raise.
    """
    payload = store.load(KIND_TOOLCHAIN, fingerprint)
    if payload is None:
        return None
    try:
        fields = {name: payload[name] for name in _PAYLOAD_FIELDS}
        diagnostics = fields["diagnostics"]
        has_errors = diagnostics.has_errors
    except (TypeError, KeyError, AttributeError):
        store.delete(KIND_TOOLCHAIN, fingerprint)
        return None
    # Replay the cold path's strict-validation contract.  (Strict runs with
    # errors raise before anything is published, so this only fires when a
    # lenient run's artifact is somehow restored under a strict key.)
    if options.strict_validation and has_errors:
        raise AadlValidationError(diagnostics)
    return ToolchainResult(
        options=options,
        store_hit=True,
        store_fingerprint=fingerprint,
        **fields,
    )


def _run_simulation(result: ToolchainResult, options: ToolchainOptions) -> None:
    """Stages 6 + 7: simulate the scheduled model and profile the trace.

    Runs identically on cold and store-restored results: the backend
    compiles from the flattened model (plan-identical to flattening inside
    the backend), the scenario is an *unbounded* symbolic input program
    (O(inputs) memory) with the hyper-period horizon supplied at run time.
    """
    if options.simulate_hyperperiods <= 0 or not result.schedules:
        return
    translation = result.translation
    execution_model = (
        result.flat_model if result.flat_model is not None else translation.system_model
    )
    schedule = next(iter(result.schedules.values()))
    length = schedule.simulation_length(options.simulate_hyperperiods)
    scenario = default_scenario(execution_model, None, options.stimuli_periods)
    backend = create_backend(execution_model, backend=options.backend, strict=False)
    if options.sinks is None and options.materialize_trace:
        # The classic path: materialise the trace directly.
        result.trace = backend.run(
            scenario, record=options.record_signals, length=length
        )
    else:
        # Streaming path: drive the caller's sinks instant by instant,
        # materialising alongside (via a MaterializeSink) only on request.
        sinks: List[TraceSink] = list(options.sinks or ())
        materialize = MaterializeSink() if options.materialize_trace else None
        if materialize is not None:
            sinks.append(materialize)
        backend.run(
            scenario, record=options.record_signals, sinks=sinks, length=length
        )
        if materialize is not None:
            result.trace = materialize.trace
        result.sink_results = [sink.result() for sink in options.sinks or ()]
    result.scenario_length = length
    result.backend_name = backend.name

    # 7. profiling
    if options.cost_model is not None and result.trace is not None:
        result.profile = Profiler(
            translation.system_model, options.cost_model
        ).dynamic_profile(result.trace)
