"""Supervised, fault-tolerant batch execution: the engine's one batch executor.

An :class:`~repro.sig.engine.plan.ExecutionPlan` is immutable once compiled
and every scenario of a batch starts from a fresh initial state, so a
many-scenario sweep is embarrassingly parallel.  A worker that segfaults,
is OOM-killed or spins forever in a user operation must not stall or
poison the whole batch, though: every dispatched chunk of scenarios runs
under **per-task supervision**, and the batch degrades gracefully instead
of dying with the worst worker.  :func:`~repro.sig.engine.batch.simulate_batch`,
the serving layer and fleet-scale sweeps all run their batches here; a
batch that sets no supervision knob simply runs with the defaults below.

Sharding
--------

* **fork inheritance where available** — on Linux the workers inherit the
  prepared backend (compiled plan included) from the parent's address
  space: nothing is recompiled;
* **plan pickling otherwise** — with ``spawn`` the backend is pickled to
  each worker once, at start-up; a plan pickles as its process model and
  recompiles itself on arrival, and a symbolic scenario crosses the
  process boundary as its rule program, a few bytes whatever the horizon;
* **chunked scheduling** — scenarios are dealt out in contiguous chunks of
  ``ceil(count / (4 * workers))`` (several per worker, so stragglers
  rebalance);
* **ordered reassembly** — results are filed by scenario index, so traces,
  sink results and collected errors keep the order of a sequential run;
* **streaming** — with a ``sink_factory`` each worker builds the
  scenario's sinks locally, streams the run into them and ships back only
  ``sink.result()``.

One attempt
-----------

A scenario *attempt* has exactly one definition, :func:`_attempt`: it
installs the cooperative :class:`ExecutionGuard`, fires the
:class:`~repro.sig.engine.faults.FaultPlan` entry of ``(scenario,
attempt)`` if there is one, runs the scenario, and maps the outcome to one
tag of the fault taxonomy — ``ok``, ``sim-error`` (a
:class:`~repro.sig.simulator.SimulationError`), ``crash`` (an injected
in-process crash), ``timeout``, ``budget`` (a :class:`ScenarioBudget`
bound or a ``MemoryError``) or ``error`` (any other exception, reported as
``"{Type}: {message}"`` with its traceback).  The pooled workers and the
in-process loop both call it; only a pooled worker can additionally die
(``crash``) or be killed for silence (``timeout``).  The serving layer's
streamed runs share more than the attempt: they iterate the in-process
loop itself, :func:`_supervise_in_process`, which yields each scenario as
its outcome is filed, so a stream retries, backs off, trips the circuit
breaker and fires its fault plan exactly as a batch does.

Supervision model
-----------------

* one long-lived worker process per slot, fed over a private task pipe and
  reporting one message per *scenario* over a result pipe (synchronous pipe
  writes, so a finished scenario's result survives the worker's death an
  instant later);
* the supervisor waits on result pipes **and process sentinels** at once
  (:func:`multiprocessing.connection.wait`), so a crashed worker is
  detected the moment the OS reaps it — the first unreported scenario of
  its chunk is the victim, the rest of the chunk is requeued untouched;
* a **wall-clock timeout** bounds the silence of each worker: the deadline
  resets on every per-scenario progress message, a worker that stays
  silent past it is killed and replaced, and the in-flight scenario is
  charged a ``timeout`` failure.  Enforcement is purely external on the
  pooled path — workers install a cooperative :class:`ExecutionGuard`
  only when a budget is set, so timeout-only supervision adds nothing to
  the backends' hot loops;
* failed attempts are **retried with exponential backoff**
  (``backoff * 2**attempt``), up to ``retries`` times; a scenario that
  keeps failing surfaces as a structured :class:`ScenarioFault` (kind,
  attempt count, worker id, traceback) instead of an exception.  The retry
  decision is made in one place, :meth:`_Supervision.fail`;
* a ``max_failures`` **circuit breaker** bounds the damage of systemic
  failure: once the batch has seen more than ``max_failures`` failed
  attempts, retrying stops and every undecided scenario faults fast;
* scenarios that raise a :class:`~repro.sig.simulator.SimulationError`
  are *model* errors, not infrastructure faults: they are never retried
  (they are deterministic); with ``collect_errors`` they contribute
  ``None`` plus an ``(index, error)`` entry in ascending index order, and
  without it the error of the *earliest* failing scenario is raised;
* surviving scenarios return **bit-identical, ordered** results — the
  supervisor only changes what happens to the failing ones.

On ``workers=1``, single-scenario batches, or platforms whose
multiprocessing primitives are unavailable, the supervisor degrades to
**in-process** execution with the same taxonomy: timeouts and budgets are
enforced cooperatively by the backends (the compiled plan checks its
:func:`current_guard` once per instant, the vectorized executor once per
block), injected crashes map to marker exceptions, and the retry ladder,
circuit breaker and fault reporting behave identically; a retry runs at
once, after its backoff sleep, before the next scenario starts.

The supervision values are checked once, by :func:`check_supervision`,
before any scenario runs.

Budgets
-------

A :class:`ScenarioBudget` optionally bounds each attempt beyond wall-clock
time: ``max_instants`` caps the horizon a scenario may simulate (exact,
checked at every instant/block boundary) and ``max_memory_mb`` is a
best-effort RSS-growth guard (checked against ``ru_maxrss`` growth since
the attempt started; a high-water mark, so a worker that already peaked
cannot re-trip it).  Budget violations surface as ``budget`` faults.

Fault injection (:mod:`repro.sig.engine.faults`) hooks in at exactly one
point — the start of :func:`_attempt` — which is what the chaos tests and
the E17 gate drive.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing
import os
import sys
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..scenario import Scenario
from ..simulator import SimulationError, SimulationTrace
from ..sinks import SinkFactory, as_sink_list
from .faults import FaultPlan, InjectedCrash, fire_fault

#: Retry count of a batch whose caller does not choose one.
DEFAULT_RETRIES = 2

#: Default base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF = 0.05

#: Instants between the guard's wall-clock/memory re-checks on the
#: per-instant path (the instant-budget check is exact and unstrided).
_GUARD_STRIDE = 64

#: Seconds the supervisor waits for a killed/sentinel-notified worker to be
#: reaped before giving up on ``join`` (the process is already dead or
#: SIGKILLed; this only bounds OS cleanup).
_REAP_SECONDS = 5.0


def default_worker_count() -> int:
    """Worker count used for ``workers=0``: one per *available* core.

    Respects the CPU affinity mask (``os.sched_getaffinity``) where the
    platform has one, so containerized/cgroup-restricted environments get
    the cores they may actually run on instead of the machine's raw
    ``cpu_count()`` — oversubscribing a 2-core CI container with 64
    workers is strictly slower.
    """
    try:
        affinity = os.sched_getaffinity(0)
    except (AttributeError, OSError):  # non-Linux, or exotic scheduler
        return os.cpu_count() or 1
    return len(affinity) or os.cpu_count() or 1


def _pool_context() -> multiprocessing.context.BaseContext:
    # Prefer fork only where it is the platform default anyway (Linux):
    # macOS advertises "fork" but made spawn the default because forking a
    # process with Objective-C/threading state is unsafe.  Elsewhere the
    # platform default (spawn) is used and the backend travels by pickling.
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _require(name: str, value: Any, integer: bool = False, positive: bool = False) -> None:
    """Refuse *value* unless it is a non-bool ``int`` (*integer*) or a finite
    number, at least 0 (above 0 when *positive*)."""
    number = (
        isinstance(value, int)
        if integer
        else isinstance(value, (int, float)) and math.isfinite(value)
    )
    if isinstance(value, bool) or not number or value < 0 or (positive and value == 0):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind} {'>' if positive else '>='} 0, got {value!r}")


def check_supervision(
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    max_failures: Optional[int] = None,
) -> None:
    """Refuse supervision values no batch can honour, before any scenario runs.

    ``workers``, ``retries`` and ``max_failures`` must be integers >= 0,
    ``timeout`` a finite number of seconds > 0 and ``backoff`` one >= 0;
    ``None`` selects the default of all but ``workers``.  Raises
    :class:`ValueError` naming the offending option.
    """
    _require("workers", workers, integer=True)
    for name, value in (("retries", retries), ("max_failures", max_failures)):
        if value is not None:
            _require(name, value, integer=True)
    if timeout is not None:
        _require("timeout", timeout, positive=True)
    if backoff is not None:
        _require("backoff", backoff)


class ScenarioTimeout(Exception):
    """A scenario attempt exceeded its wall-clock timeout (cooperative path)."""


class BudgetExceeded(Exception):
    """A scenario attempt exceeded its :class:`ScenarioBudget`."""


@dataclass(frozen=True)
class ScenarioBudget:
    """Optional per-attempt resource bounds beyond the wall-clock timeout.

    ``max_instants`` caps how many instants one scenario may simulate —
    exact, enforced at every instant (compiled/reference) or block
    (vectorized) boundary.  ``max_memory_mb`` caps the RSS *growth* of the
    executing process since the attempt started — best-effort (``ru_maxrss``
    is a high-water mark) but enough to turn a runaway scenario into a
    typed ``budget`` fault instead of an OOM kill.
    """

    max_instants: Optional[int] = None
    max_memory_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_instants is not None:
            _require("max_instants", self.max_instants, integer=True)
        if self.max_memory_mb is not None:
            _require("max_memory_mb", self.max_memory_mb, positive=True)

    @classmethod
    def coerce(cls, value: Any) -> Optional["ScenarioBudget"]:
        """Coerce the accepted ``scenario_budget=`` shorthands.

        ``None`` passes through, a :class:`ScenarioBudget` is returned
        as-is, an ``int`` means ``max_instants``, and a mapping supplies
        the constructor keywords — the shape request-scoped callers (the
        serving layer's JSON bodies, CLI flags) naturally hold.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise TypeError("scenario_budget cannot be a boolean")
        if isinstance(value, int):
            return cls(max_instants=value)
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"max_instants", "max_memory_mb"})
            if unknown:
                raise TypeError(
                    f"unknown scenario_budget key(s) {unknown}; expected "
                    "'max_instants' and/or 'max_memory_mb'"
                )
            return cls(**dict(value))
        raise TypeError(
            f"cannot interpret {type(value).__name__!r} as a scenario budget; "
            "pass a ScenarioBudget, an int (max instants), or a mapping"
        )


# macOS reports ru_maxrss in bytes, Linux in kilobytes.
_RU_MAXRSS_TO_KB = 1.0 / 1024.0 if sys.platform == "darwin" else 1.0


def _rss_kb() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_TO_KB


class ExecutionGuard:
    """Cooperative timeout/budget enforcement for one scenario attempt.

    Installed around a run by :func:`guarded`; the backends fetch it with
    :func:`current_guard` and call :meth:`check` once per instant (compiled
    plan, reference interpreter) or :meth:`check_block` once per block
    (vectorized executor).  The instant budget is exact; wall-clock and
    memory are re-checked every :data:`_GUARD_STRIDE` instants so the
    per-instant cost stays one comparison.
    """

    __slots__ = ("deadline", "max_instants", "_max_rss_kb", "_baseline_rss_kb", "_tick")

    def __init__(
        self,
        timeout: Optional[float] = None,
        budget: Optional[ScenarioBudget] = None,
    ) -> None:
        self.deadline = time.monotonic() + timeout if timeout is not None else None
        self.max_instants = budget.max_instants if budget is not None else None
        self._max_rss_kb: Optional[float] = None
        self._baseline_rss_kb = 0.0
        if budget is not None and budget.max_memory_mb is not None:
            self._baseline_rss_kb = _rss_kb()
            self._max_rss_kb = budget.max_memory_mb * 1024.0
        self._tick = 0

    def check(self, instant: int) -> None:
        """Per-instant check: exact instant budget, strided time/memory."""
        max_instants = self.max_instants
        if max_instants is not None and instant >= max_instants:
            raise BudgetExceeded(
                f"scenario budget exhausted: instant {instant} reached the "
                f"max_instants budget of {max_instants}"
            )
        self._tick += 1
        if self._tick >= _GUARD_STRIDE:
            self._tick = 0
            self.check_time(instant)
            self._check_memory()

    def check_block(self, start: int, size: int) -> None:
        """Per-block check (vectorized executor): blocks are coarse enough
        that time and memory are re-checked on every boundary."""
        max_instants = self.max_instants
        if max_instants is not None and start + size > max_instants:
            raise BudgetExceeded(
                f"scenario budget exhausted: block [{start}, {start + size}) "
                f"crosses the max_instants budget of {max_instants}"
            )
        self.check_time(start)
        self._check_memory()

    def check_time(self, instant: int = -1) -> None:
        """Raise :class:`ScenarioTimeout` when the wall-clock deadline passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            where = f" at instant {instant}" if instant >= 0 else ""
            raise ScenarioTimeout(
                f"scenario exceeded its wall-clock timeout{where}"
            )

    def _check_memory(self) -> None:
        if self._max_rss_kb is None:
            return
        grown = _rss_kb() - self._baseline_rss_kb
        if grown > self._max_rss_kb:
            raise BudgetExceeded(
                f"scenario memory budget exceeded: RSS grew {grown / 1024.0:.1f} MiB "
                f"(budget {self._max_rss_kb / 1024.0:.1f} MiB)"
            )


#: The guard installed for the scenario currently executing in this process
#: (one scenario runs at a time per process; workers install their own).
_ACTIVE_GUARD: Optional[ExecutionGuard] = None


def current_guard() -> Optional[ExecutionGuard]:
    """The :class:`ExecutionGuard` of the scenario executing in this
    process, or ``None`` outside supervised execution.  Backends call this
    once per run and then check the guard at instant/block boundaries."""
    return _ACTIVE_GUARD


@contextmanager
def guarded(
    timeout: Optional[float] = None,
    budget: Optional[ScenarioBudget] = None,
) -> Iterator[Optional[ExecutionGuard]]:
    """Install a cooperative :class:`ExecutionGuard` around one scenario run.

    With neither a timeout nor a budget no guard is installed at all, so
    unguarded runs keep paying nothing.  Guards nest (the previous one
    is restored on exit), though supervised execution never needs to.
    """
    global _ACTIVE_GUARD
    guard = (
        ExecutionGuard(timeout, budget)
        if timeout is not None or budget is not None
        else None
    )
    previous = _ACTIVE_GUARD
    _ACTIVE_GUARD = guard
    try:
        yield guard
    finally:
        _ACTIVE_GUARD = previous


@dataclass
class ScenarioFault:
    """One scenario the supervisor could not recover.

    ``kind`` is the failure taxonomy: ``"crash"`` (the worker process died
    — segfault, ``os._exit``, OOM kill), ``"timeout"`` (wall-clock, killed
    externally or cooperatively), ``"budget"`` (a :class:`ScenarioBudget`
    bound), ``"error"`` (an unexpected non-simulation exception, or a
    scenario abandoned by the open circuit breaker).  ``attempts`` counts
    how many times the scenario was tried; ``worker`` names the worker of
    the last failure (``None`` in-process); ``traceback`` carries the
    worker-side traceback of ``error`` faults.
    """

    scenario: int
    kind: str
    attempts: int
    worker: Optional[str] = None
    message: str = ""
    traceback: Optional[str] = None

    def summary(self) -> str:
        """One line: scenario, kind, attempts, worker and message."""
        where = f" on {self.worker}" if self.worker else ""
        detail = f": {self.message}" if self.message else ""
        return (
            f"scenario {self.scenario}: {self.kind} fault after "
            f"{self.attempts} attempt(s){where}{detail}"
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BatchJob:
    """What every attempt of one batch shares; pickled once to each spawned
    worker."""

    runner: Any
    scenarios: Sequence[Scenario]
    record: Optional[List[str]] = None
    sink_factory: Optional[SinkFactory] = None
    length: Optional[int] = None
    timeout: Optional[float] = None
    budget: Optional[ScenarioBudget] = None
    fault_plan: Optional[FaultPlan] = None


def _run_one(job: _BatchJob, index: int) -> Any:
    """One scenario's payload: its trace, or its sink result(s).

    With a *sink_factory* the payload is the single sink's ``result()``
    when the factory returns one sink, the list of results when it returns
    several.
    """
    runner, scenario = job.runner, job.scenarios[index]
    if job.sink_factory is None:
        return runner.run(scenario, record=job.record, length=job.length)
    made = job.sink_factory(index)
    sink_list = as_sink_list(made)
    runner.run(scenario, record=job.record, sinks=sink_list, length=job.length)
    results = [sink.result() for sink in sink_list]
    return results[0] if len(sink_list) == 1 and not isinstance(made, (list, tuple)) else results


def _attempt(
    job: _BatchJob, index: int, attempt: int = 0, pooled: bool = False
) -> Tuple[str, Any]:
    """Run one attempt of scenario *index*: the executor's one attempt path.

    Returns ``(tag, payload)``: ``("ok", result)``, ``("sim-error",
    error)``, or a fault tag (``crash``, ``timeout``, ``budget``,
    ``error``) with a ``(message, traceback)`` payload, the traceback set
    for ``error`` only.  A *pooled* worker's wall clock is enforced by the
    supervisor killing it, so there the guard is installed for budgets only
    (timeout-only supervision then costs the backends' hot loops nothing)
    and an injected crash or hang is real.
    """
    try:
        spec = job.fault_plan.lookup(index, attempt) if job.fault_plan else None
        timeout = None if pooled else job.timeout
        with guarded(timeout=timeout, budget=job.budget) as guard:
            if spec is not None:
                fire_fault(spec, in_process=not pooled, guard=guard)
            return "ok", _run_one(job, index)
    except SimulationError as error:
        return "sim-error", error
    except InjectedCrash as error:
        return "crash", (str(error), None)
    except ScenarioTimeout as error:
        return "timeout", (str(error), None)
    except (BudgetExceeded, MemoryError) as error:
        return "budget", (str(error), None)
    except Exception as error:
        return "error", (
            f"{type(error).__name__}: {error}",
            traceback_module.format_exc(),
        )


def _worker_main(task_conn: Any, result_conn: Any, job: _BatchJob) -> None:
    """Supervised worker loop: receive ``[(index, attempt), ...]`` chunks,
    send one ``(index, attempt, tag, payload)`` message per scenario.  Pipe
    writes are synchronous, so every sent result survives whatever the
    worker does next (including crashing)."""
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        for index, attempt in task:
            try:
                message = (index, attempt) + _attempt(job, index, attempt, pooled=True)
            except KeyboardInterrupt:
                return
            try:
                result_conn.send(message)
            except (BrokenPipeError, OSError):
                return  # the supervisor is gone; nothing left to report to


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Supervisor-side view of one worker slot."""

    name: str
    process: Any
    task_conn: Any
    result_conn: Any
    #: Unreported scenarios of the current chunk: ``index -> attempt``.
    pending: Dict[int, int] = field(default_factory=dict)
    #: Chunk order (workers run in order, so the first unreported pending
    #: index is the one in flight when the worker dies or stalls).
    order: List[int] = field(default_factory=list)
    deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return bool(self.pending)

    def victim(self) -> Tuple[int, int]:
        """The in-flight ``(index, attempt)`` — first unreported in order."""
        for index in self.order:
            attempt = self.pending.get(index)
            if attempt is not None:
                del self.pending[index]
                return index, attempt
        raise LookupError("no pending scenario")  # pragma: no cover

    def remainder(self) -> List[Tuple[int, int]]:
        """The not-yet-started ``(index, attempt)`` pairs after the victim."""
        return [
            (index, self.pending[index])
            for index in self.order
            if index in self.pending
        ]


def _spawn_worker(ctx, name: str, job: _BatchJob) -> _Worker:
    """Start one supervised worker with private task/result pipes."""
    task_recv, task_send = ctx.Pipe(duplex=False)
    result_recv, result_send = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_main,
        args=(task_recv, result_send, job),
        name=f"repro-supervised-{name}",
        daemon=True,
    )
    process.start()
    # The parent's copies of the child ends would keep the pipes alive past
    # the worker's death; close them so EOF semantics stay crisp.
    task_recv.close()
    result_send.close()
    return _Worker(name=name, process=process, task_conn=task_send, result_conn=result_recv)


def _stop_worker(worker: _Worker, kill: bool = False) -> None:
    """Shut one worker down without wedging on it."""
    if kill:
        try:
            worker.process.kill()
        except (OSError, ValueError, AttributeError):
            pass
    else:
        try:
            worker.task_conn.send(None)
        except (BrokenPipeError, OSError, ValueError):
            pass
    try:
        worker.process.join(_REAP_SECONDS)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(_REAP_SECONDS)
    except (OSError, ValueError, AssertionError):
        pass
    for conn in (worker.task_conn, worker.result_conn):
        try:
            conn.close()
        except (OSError, ValueError):
            pass


#: Ordered ``(traces, errors, sink_results, faults)`` of one batch.
_Outcome = Tuple[
    List[Optional[SimulationTrace]],
    List[Tuple[int, SimulationError]],
    List[Any],
    List[ScenarioFault],
]


@dataclass
class _Supervision:
    """Bookkeeping of one supervised batch: its checked settings (``None``
    retries/backoff select the defaults), outcomes, the retry queue, the
    failure counter and the circuit breaker."""

    count: int
    collect_errors: bool
    streaming: bool
    retries: Optional[int]
    backoff: Optional[float]
    max_failures: Optional[int]
    failures: int = 0
    circuit_open: bool = False
    #: ``index -> (tag, payload)``; tag in {"ok", "sim-error", "fault"}.
    outcomes: Dict[int, Tuple[str, Any]] = field(default_factory=dict)
    #: Retry/task heap: ``(ready_time, sequence, task)``.
    ready: List[Tuple[float, int, List[Tuple[int, int]]]] = field(default_factory=list)
    _sequence: Iterator[int] = field(default_factory=itertools.count)

    def __post_init__(self) -> None:
        self.retries = DEFAULT_RETRIES if self.retries is None else self.retries
        self.backoff = DEFAULT_BACKOFF if self.backoff is None else self.backoff

    # -- task scheduling ------------------------------------------------
    def enqueue(self, task: List[Tuple[int, int]], ready_at: float = 0.0) -> None:
        """Schedule *task* (a ``[(index, attempt), ...]`` chunk) for
        dispatch no earlier than *ready_at* (monotonic seconds)."""
        if task:
            heapq.heappush(self.ready, (ready_at, next(self._sequence), task))

    def next_task(self, now: float) -> Optional[List[Tuple[int, int]]]:
        """Pop the next dispatchable task, or ``None`` when none is ready."""
        if self.ready and self.ready[0][0] <= now:
            return heapq.heappop(self.ready)[2]
        return None

    def next_ready_at(self) -> Optional[float]:
        """Monotonic time of the earliest scheduled task, or ``None``."""
        return self.ready[0][0] if self.ready else None

    @property
    def settled(self) -> bool:
        """``True`` once every scenario has an outcome."""
        return len(self.outcomes) >= self.count

    # -- outcome recording ----------------------------------------------
    def record(
        self, index: int, attempt: int, tag: str, payload: Any,
        worker: Optional[str] = None,
    ) -> None:
        """File one :func:`_attempt` outcome: a result, a model error, or a
        failed attempt charged through :meth:`fail`."""
        if tag in ("ok", "sim-error"):
            self.outcomes[index] = (tag, payload)
        else:
            self.fail(index, attempt, tag, worker, *payload)

    def fail(
        self,
        index: int,
        attempt: int,
        kind: str,
        worker: Optional[str],
        message: str,
        traceback: Optional[str] = None,
    ) -> None:
        """Charge one failed attempt: the one retry decision.  A retried
        scenario is queued again after its backoff; otherwise it faults."""
        self.failures += 1
        if self.max_failures is not None and self.failures > self.max_failures:
            self.circuit_open = True
        if not self.circuit_open and attempt < self.retries:
            delay = self.backoff * (2 ** attempt)
            self.enqueue([(index, attempt + 1)], ready_at=time.monotonic() + delay)
        else:
            self.outcomes[index] = (
                "fault",
                ScenarioFault(
                    scenario=index,
                    kind=kind,
                    attempts=attempt + 1,
                    worker=worker,
                    message=message,
                    traceback=traceback,
                ),
            )

    def abandon_undecided(self) -> None:
        """Circuit breaker: fault every scenario without an outcome."""
        for index in range(self.count):
            if index not in self.outcomes:
                self.outcomes[index] = (
                    "fault",
                    ScenarioFault(
                        scenario=index,
                        kind="error",
                        attempts=0,
                        message=(
                            f"abandoned: circuit breaker open after "
                            f"{self.failures} failed attempt(s) "
                            f"(max_failures={self.max_failures})"
                        ),
                    ),
                )

    # -- result assembly -------------------------------------------------
    def assemble(self) -> _Outcome:
        """Ordered ``(traces, errors, sink_results, faults)`` of the batch."""
        traces: List[Optional[SimulationTrace]] = []
        errors: List[Tuple[int, SimulationError]] = []
        sink_results: List[Any] = []
        faults: List[ScenarioFault] = []
        for index in range(self.count):
            tag, payload = self.outcomes.get(index, ("fault", None))
            if payload is None and tag == "fault":  # pragma: no cover - safety net
                payload = ScenarioFault(index, "error", 0, message="no outcome recorded")
            ok = tag == "ok"
            if tag == "sim-error":
                errors.append((index, payload))
            elif tag == "fault":
                faults.append(payload)
            if self.streaming:
                traces.append(None)
                sink_results.append(payload if ok else None)
            else:
                traces.append(payload if ok else None)
        if not self.collect_errors and errors:
            raise errors[0][1]
        return traces, errors, sink_results, faults


def _supervise(job: _BatchJob, supervisor: _Supervision, workers: int) -> _Outcome:
    """Run every scenario of *job* under *supervisor* on *workers*
    supervised processes (at most one per scenario), or in this process for
    one worker or on a platform without a process pool."""
    count = supervisor.count
    team: List[_Worker] = []
    try:
        if workers > 1:
            ctx = _pool_context()
            try:
                for slot in range(workers):
                    team.append(_spawn_worker(ctx, f"w{slot}", job))
            except (OSError, ImportError):
                # Pool-less platform (no semaphores/pipes): degrade in-process
                # with identical semantics.
                for worker in team:
                    _stop_worker(worker, kill=True)
                team = []
        if not team:
            for _ in _supervise_in_process(supervisor, job):
                pass
            return supervisor.assemble()
        chunk = math.ceil(count / (workers * 4))
        for start in range(0, count, chunk):
            supervisor.enqueue(
                [(index, 0) for index in range(start, min(start + chunk, count))]
            )
        _supervise_pool(supervisor, team, ctx, job)
    finally:
        for worker in team:
            _stop_worker(worker, kill=worker.busy)
    return supervisor.assemble()


def _supervise_pool(
    supervisor: _Supervision, team: List[_Worker], ctx, job: _BatchJob
) -> None:
    """The supervision event loop over a team of worker processes."""
    timeout = job.timeout

    def handle_message(worker: _Worker, message: Tuple[Any, ...]) -> None:
        index, attempt, tag, payload = message
        if worker.pending.pop(index, None) is None:
            return  # stale duplicate after a requeue; ignore
        if worker.deadline is not None and timeout is not None:
            worker.deadline = time.monotonic() + timeout  # progress resets it
        supervisor.record(index, attempt, tag, payload, worker.name)
        if not worker.pending:
            worker.order = []
            worker.deadline = None

    def drain(worker: _Worker) -> None:
        try:
            while worker.result_conn.poll():
                handle_message(worker, worker.result_conn.recv())
        except (EOFError, OSError):
            pass  # the worker died; the sentinel path attributes the loss

    def replace(slot: int, kill: bool) -> None:
        _stop_worker(team[slot], kill=kill)
        team[slot] = _spawn_worker(ctx, team[slot].name, job)

    while not supervisor.settled:
        if supervisor.circuit_open:
            supervisor.abandon_undecided()
            break
        now = time.monotonic()

        # Dispatch ready tasks to idle (live) workers.
        for slot, worker in enumerate(team):
            if worker.busy:
                continue
            task = supervisor.next_task(now)
            if task is None:
                break
            if not worker.process.is_alive():
                replace(slot, kill=False)
                worker = team[slot]
            worker.pending = dict(task)
            worker.order = [index for index, _ in task]
            worker.deadline = now + timeout if timeout is not None else None
            try:
                worker.task_conn.send(task)
            except (BrokenPipeError, OSError):
                # Died between the liveness check and the send: requeue and
                # let the next pass respawn it.
                supervisor.enqueue(list(task))
                worker.pending = {}
                worker.order = []
                worker.deadline = None
                replace(slot, kill=True)

        # Wait for progress: results, worker deaths, deadlines, backoff.
        wait_for = [worker.result_conn for worker in team]
        wait_for += [worker.process.sentinel for worker in team if worker.busy]
        wait_timeout = 0.2
        for worker in team:
            if worker.deadline is not None:
                wait_timeout = min(wait_timeout, worker.deadline - now)
        # A scheduled task only shortens the wait when a worker is idle to
        # take it (after the dispatch pass, any such task lies in the
        # future — a backoff retry).  With every worker busy, waking early
        # for the backlog would just busy-poll against the workers.
        if any(not worker.busy for worker in team):
            ready_at = supervisor.next_ready_at()
            if ready_at is not None:
                wait_timeout = min(wait_timeout, max(ready_at - now, 0.0))
        mp_connection.wait(wait_for, timeout=max(0.0, wait_timeout))

        # Results first: anything a worker reported before dying counts.
        for worker in team:
            drain(worker)

        now = time.monotonic()
        for slot, worker in enumerate(team):
            if not worker.busy:
                continue
            if not worker.process.is_alive():
                drain(worker)
                if worker.busy:
                    index, attempt = worker.victim()
                    exitcode = worker.process.exitcode
                    supervisor.fail(
                        index, attempt, "crash", worker.name,
                        f"worker {worker.name} died with exit code {exitcode} "
                        f"while running scenario {index}",
                    )
                    supervisor.enqueue(worker.remainder())
                replace(slot, kill=False)
            elif worker.deadline is not None and now > worker.deadline:
                index, attempt = worker.victim()
                supervisor.fail(
                    index, attempt, "timeout", worker.name,
                    f"worker {worker.name} made no progress within the "
                    f"{timeout:.3g}s timeout; killed",
                )
                supervisor.enqueue(worker.remainder())
                replace(slot, kill=True)


def _supervise_in_process(
    supervisor: _Supervision, job: _BatchJob, sleep: Callable[[float], None] = time.sleep
) -> Iterator[int]:
    """Degraded (single-process) supervision: cooperative budgets/timeouts
    through the backends' guard checks, the same retry ladder, circuit
    breaker and fault taxonomy as the pooled path.  Each scenario's retries
    run before the next scenario starts.

    Yields each scenario index in order as soon as its outcome is filed in
    ``supervisor.outcomes`` (scenarios the open circuit breaker abandons
    included), so the serving layer's stream can report scenario by
    scenario; :func:`_supervise` simply drains it.  *sleep* waits out each
    retry's backoff (the stream passes one a client disconnect cuts short)."""
    for index in range(supervisor.count):
        if not supervisor.circuit_open:
            supervisor.enqueue([(index, 0)])
        elif index not in supervisor.outcomes:
            supervisor.abandon_undecided()
        while supervisor.ready:
            sleep(max(0.0, supervisor.next_ready_at() - time.monotonic()))
            [(index, attempt)] = supervisor.next_task(math.inf)
            tag, payload = _attempt(job, index, attempt)
            if tag == "sim-error" and not supervisor.collect_errors:
                # Match the sequential loop exactly: fail fast, never
                # touching the scenarios after the failing one.
                raise payload
            supervisor.record(index, attempt, tag, payload)
        yield index


__all__ = [
    "BudgetExceeded",
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "ExecutionGuard",
    "ScenarioBudget",
    "ScenarioFault",
    "ScenarioTimeout",
    "check_supervision",
    "current_guard",
    "default_worker_count",
    "guarded",
]
