"""Batched multi-scenario simulation.

Many-scenario workloads (design-space sweeps, scenario fuzzing, the
scalability experiment E10) run the same model over many input scenarios.
With the reference interpreter each run pays the full model bookkeeping
again; with the execution-plan engine the model is compiled once and every
scenario reuses the plan.  :func:`simulate_batch` is the front door of that
workflow, and :func:`default_scenario` reproduces the scenario the tool
chain builds for a scheduled system (base processor ticks always present,
optional periodic environment stimuli).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..process import ProcessModel
from ..scenario import Scenario
from ..simulator import SimulationError, SimulationTrace
from ..sinks import SinkFactory, presence_summary
from .backends import DEFAULT_BACKEND, create_backend
from .supervisor import default_worker_count, run_batch_supervised


def default_scenario(
    process: ProcessModel,
    length: Optional[int],
    stimuli_periods: Optional[Mapping[str, int]] = None,
) -> Scenario:
    """The tool chain's standard scenario for a scheduled system model.

    Every input named ``tick`` or ``*_tick`` (the base clock of a translated
    processor) is present at every instant; each entry of *stimuli_periods*
    adds a periodic environment stimulus.  The scenario is symbolic —
    O(inputs) memory whatever the horizon — and *length* may be ``None``
    for an unbounded scenario whose horizon is chosen at simulate time.
    """
    scenario = Scenario(length)
    for decl in process.inputs():
        if decl.name == "tick" or decl.name.endswith("_tick"):
            scenario.set_always(decl.name)
    for signal, period in (stimuli_periods or {}).items():
        scenario.set_periodic(signal, period)
    return scenario


@dataclass
class BatchResult:
    """Outcome of one :func:`simulate_batch` call.

    In the default (materialising) mode, :attr:`traces` holds one
    :class:`~repro.sig.simulator.SimulationTrace` per scenario.  In
    streaming mode (``sink_factory=``) no trace is materialised:
    :attr:`traces` holds ``None`` per scenario and :attr:`sink_results`
    holds, in scenario order, what each scenario's sink(s) produced.
    Failed scenarios (under ``collect_errors``) contribute ``None`` in
    either list plus an entry in :attr:`errors`.

    Every batch runs supervised: scenarios the supervisor could not
    recover — worker crashes, timeouts, budget violations, unexpected
    exceptions — appear in :attr:`faults` as structured
    :class:`~repro.sig.engine.supervisor.ScenarioFault` entries (in
    scenario order) and contribute ``None`` traces/sink results;
    :attr:`errors` stays reserved for deterministic
    :class:`~repro.sig.simulator.SimulationError` model errors.
    """

    backend: str
    traces: List[Optional[SimulationTrace]]
    errors: List[Tuple[int, SimulationError]] = field(default_factory=list)
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    workers: int = 1
    #: Per-scenario sink products of a streaming batch (empty otherwise).
    sink_results: List[Any] = field(default_factory=list)
    #: Unrecoverable scenarios of the batch, in scenario order (empty for
    #: fault-free batches).
    faults: List[Any] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def ok(self) -> bool:
        """``True`` when no scenario failed or faulted."""
        return not self.errors and not self.faults

    @property
    def streamed(self) -> bool:
        """``True`` when the batch ran in streaming (sink) mode."""
        return bool(self.sink_results)

    def successful_traces(self) -> List[SimulationTrace]:
        """The materialised traces of the scenarios that succeeded."""
        return [trace for trace in self.traces if trace is not None]

    def summary(self) -> str:
        """One paragraph of batch outcome, including per-scenario errors."""
        sharding = f", {self.workers} workers" if self.workers > 1 else ""
        if self.streamed:
            # Failures are exactly the collected errors — a sink whose
            # result() is None (e.g. one streaming to a caller's handle)
            # still succeeded.
            succeeded = len(self.traces) - len(self.errors) - len(self.faults)
            streamed = ", streamed"
        else:
            succeeded = len(self.successful_traces())
            streamed = ""
        faulted = f", {len(self.faults)} faulted" if self.faults else ""
        lines = [
            f"batch of {len(self.traces)} scenario(s) on backend {self.backend!r}: "
            f"{succeeded} succeeded, {len(self.errors)} failed{faulted} "
            f"(prepare {self.compile_seconds * 1000.0:.1f} ms, "
            f"run {self.run_seconds * 1000.0:.1f} ms{sharding}{streamed})"
        ]
        for index, error in self.errors:
            lines.append(f"  scenario {index}: {type(error).__name__}: {error}")
        for fault in self.faults:
            lines.append(f"  {fault.summary()}")
        return "\n".join(lines)


def check_length(length: Optional[int]) -> None:
    """Refuse a negative horizon override before any scenario is prepared.

    :meth:`~repro.sig.scenario.Scenario.run_length` raises the same error
    per scenario, but inside a batch that would surface as a retried
    infrastructure fault rather than as the caller's mistake.
    """
    if length is not None and length < 0:
        raise ValueError(f"simulation length must be non-negative, got {length}")


def simulate_batch(
    process: ProcessModel,
    scenarios: Sequence[Scenario],
    record: Optional[Iterable[str]] = None,
    strict: bool = True,
    backend: str = DEFAULT_BACKEND,
    collect_errors: bool = False,
    workers: int = 1,
    sink_factory: Optional[SinkFactory] = None,
    length: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    max_failures: Optional[int] = None,
    scenario_budget: Any = None,
    fault_plan: Any = None,
    runner: Any = None,
) -> BatchResult:
    """Run every scenario through one prepared backend instance.

    The model is prepared (flattened, and compiled when the backend is
    ``"compiled"``) exactly once.  With ``collect_errors=True`` a failing
    scenario contributes ``None`` to :attr:`BatchResult.traces` plus an entry
    in :attr:`BatchResult.errors` instead of aborting the whole batch.

    ``workers`` shards the scenarios over that many worker processes
    (``0`` = one per core, see :mod:`repro.sig.engine.supervisor`); traces
    and errors are bit-identical to the in-process ``workers=1`` run,
    including their ordering.

    ``sink_factory`` switches the batch to streaming mode: it is called
    with each scenario index and returns the fresh
    :class:`~repro.sig.sinks.TraceSink` (or sinks) that scenario streams
    into.  No trace is materialised in any process — memory stays
    O(signals) per worker however long the scenarios are — and
    :attr:`BatchResult.sink_results` collects each scenario's
    ``sink.result()`` in scenario order (``None`` for failed scenarios).
    Under ``workers > 1`` the factory must be picklable (e.g. a top-level
    function returning a fresh :class:`~repro.sig.sinks.StatisticsSink`);
    sinks are created, driven and harvested inside the workers, and only
    their results travel back.

    ``length`` overrides every scenario's horizon — one *unbounded*
    symbolic scenario (``Scenario(None)``) can therefore be reused across
    sweeps of different lengths, and ships to workers as a few bytes of
    rules instead of per-instant lists.  A negative ``length`` is a
    :class:`ValueError` before any scenario runs.

    Every batch runs through the supervised executor
    (:func:`~repro.sig.engine.supervisor.run_batch_supervised`): crashed or
    hung workers are detected and replaced, failed attempts retried, and
    unrecoverable scenarios surface in :attr:`BatchResult.faults` instead of
    taking the batch down.  A :class:`~repro.sig.simulator.SimulationError`
    is a model error, never retried (see ``collect_errors``); any other
    exception a scenario raises is retried and then reported as a
    ``ScenarioFault(kind="error")``.  The knobs tune supervision:
    ``timeout`` (wall-clock seconds per scenario attempt), ``retries``
    (attempts after the first failure, default 2), ``backoff`` (base of the
    exponential retry delay), ``max_failures`` (batch-wide circuit
    breaker), ``scenario_budget`` (a
    :class:`~repro.sig.engine.supervisor.ScenarioBudget`, or an ``int``
    shorthand for its ``max_instants``) and ``fault_plan`` (a
    :class:`~repro.sig.engine.faults.FaultPlan`, for tests/chaos runs).

    ``runner`` short-circuits backend preparation with an already prepared
    :class:`~repro.sig.engine.backends.SimulationBackend` — the serving
    layer's warm path, where the plan-cache entry holds the backend
    resident across requests and ``compile_seconds`` reports ~0.  When
    given, ``process``/``backend``/``strict`` are ignored (the runner
    already embodies them); it is also how a batch runs on a backend built
    with its own options, e.g. ``VectorizedBackend(model, block_size=64)``.
    """
    check_length(length)
    record = list(record) if record is not None else None
    start = time.perf_counter()
    if runner is None:
        runner = create_backend(process, backend=backend, strict=strict)
    compiled_at = time.perf_counter()

    count = len(scenarios)
    if workers <= 0:
        workers = default_worker_count()
    effective_workers = max(1, min(workers, count))
    traces, errors, sink_results, faults = run_batch_supervised(
        runner,
        scenarios,
        record=record,
        workers=effective_workers,
        collect_errors=collect_errors,
        sink_factory=sink_factory,
        length=length,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        max_failures=max_failures,
        scenario_budget=scenario_budget,
        fault_plan=fault_plan,
    )
    done = time.perf_counter()

    return BatchResult(
        backend=runner.name,
        traces=traces,
        errors=errors,
        compile_seconds=compiled_at - start,
        run_seconds=done - compiled_at,
        workers=effective_workers,
        sink_results=sink_results,
        faults=faults,
    )


def batch_flow_summary(result: BatchResult, signal: str) -> Dict[str, Any]:
    """Aggregate one signal across a batch: per-scenario presence counts.

    A small convenience for sweep reports (used by the examples); scenarios
    that failed contribute ``None``.  When *no* scenario produced the signal
    (the whole batch failed, or the signal was never recorded) ``min`` and
    ``max`` are ``None`` — distinguishable from a signal that genuinely
    stayed absent in every successful trace, whose ``min``/``max`` are ``0``.
    The dictionary shape is shared with
    :func:`repro.sig.sinks.batch_statistics_summary` (streamed batches) via
    :func:`repro.sig.sinks.presence_summary`.
    """
    counts: List[Optional[int]] = []
    for trace in result.traces:
        if trace is None or signal not in trace.flows:
            counts.append(None)
        else:
            counts.append(trace.count_present(signal))
    return presence_summary(signal, counts)


__all__ = [
    "BatchResult",
    "batch_flow_summary",
    "default_scenario",
    "simulate_batch",
]
