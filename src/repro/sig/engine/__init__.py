"""Execution-plan simulation engine.

This subpackage sits between scheduling and simulation: it lowers a
flattened :class:`~repro.sig.process.ProcessModel` plus its static
dependency order (:mod:`repro.sig.scheduler_graph`) into a pre-resolved
:class:`ExecutionPlan`, and exposes pluggable :class:`SimulationBackend`
implementations:

* ``reference`` — the original fixed-point interpreter, kept as the oracle;
* ``compiled`` — the plan executor (compile once, run many scenarios);
* ``vectorized`` — numpy kernels over instant blocks for the stateless
  strata of the plan plus scan kernels for delay recurrences and one
  per-instant residual sweep (:mod:`repro.sig.engine.vectorized`).

Use :func:`simulate` for a single scenario, :func:`simulate_batch` to run a
whole batch through one prepared backend (``workers=N`` shards it over
processes; every batch runs under the supervised executor of
:mod:`repro.sig.engine.supervisor`), and :func:`create_backend` when you
want to keep a prepared model around.  All backends are trace- and error-identical by construction
(enforced by the catalog parity tests), so switching them is purely a
performance decision.

Every run delivers its trace through :class:`~repro.sig.sinks.TraceSink`
objects; without ``sinks=`` it drives one
:class:`~repro.sig.sinks.MaterializeSink` and returns its trace.
Long-horizon runs stream instead of materialising: pass ``sinks=[...]``
(single runs) or ``sink_factory=...`` (batches) with the sinks from
:mod:`repro.sig.sinks` / :mod:`repro.sig.vcd`, and memory stays O(signals)
however many instants the scenario has.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..process import ProcessModel
from ..scenario import Scenario
from ..simulator import SimulationTrace
from ..sinks import SinkFactory, SinkOrSinks
from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledBackend,
    ReferenceBackend,
    SimulationBackend,
    backend_names,
    create_backend,
)
from .batch import BatchResult, batch_flow_summary, default_scenario, simulate_batch
from .faults import FaultInjected, FaultPlan, FaultSpec, InjectedCrash
from .plan import ExecutionPlan, PlanStatistics, TargetPlan, compile_plan
from .supervisor import (
    BudgetExceeded,
    ScenarioBudget,
    ScenarioFault,
    ScenarioTimeout,
    default_worker_count,
)
from .vectorized import (
    DEFAULT_BLOCK_SIZE,
    VectorExecutionPlan,
    VectorPlanStatistics,
    VectorizedBackend,
    compile_vectorized,
)


def simulate(
    process: ProcessModel,
    scenario: Scenario,
    record: Optional[Iterable[str]] = None,
    strict: bool = True,
    backend: str = DEFAULT_BACKEND,
    sinks: Optional[SinkOrSinks] = None,
    length: Optional[int] = None,
) -> Optional[SimulationTrace]:
    """One-shot helper: prepare the chosen backend and run *scenario*.

    Without *sinks* the recorded flows come back as a
    :class:`~repro.sig.simulator.SimulationTrace` (the run drives one
    :class:`~repro.sig.sinks.MaterializeSink`).  With *sinks* (one
    :class:`~repro.sig.sinks.TraceSink` or a list) the run streams each
    instant into them and returns ``None`` — O(signals) memory however long
    the scenario; include a :class:`~repro.sig.sinks.MaterializeSink` to
    also keep the full trace.  *length* overrides the scenario's default
    horizon (required when the scenario is unbounded, see
    :class:`~repro.sig.scenario.Scenario`).
    """
    runner = create_backend(process, backend=backend, strict=strict)
    return runner.run(scenario, record=record, sinks=sinks, length=length)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_BLOCK_SIZE",
    "BatchResult",
    "BudgetExceeded",
    "CompiledBackend",
    "ExecutionPlan",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "PlanStatistics",
    "ReferenceBackend",
    "ScenarioBudget",
    "ScenarioFault",
    "ScenarioTimeout",
    "SimulationBackend",
    "SinkFactory",
    "SinkOrSinks",
    "TargetPlan",
    "VectorExecutionPlan",
    "VectorPlanStatistics",
    "VectorizedBackend",
    "backend_names",
    "batch_flow_summary",
    "compile_plan",
    "compile_vectorized",
    "create_backend",
    "default_scenario",
    "default_worker_count",
    "simulate",
    "simulate_batch",
]
