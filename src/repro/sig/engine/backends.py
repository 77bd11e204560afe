"""Pluggable simulation backends.

A *backend* turns a :class:`~repro.sig.process.ProcessModel` into something
that can run :class:`~repro.sig.simulator.Scenario` objects and produce
:class:`~repro.sig.simulator.SimulationTrace` results (or stream them into
:class:`~repro.sig.sinks.TraceSink` objects):

* :class:`ReferenceBackend` — the original fixed-point interpreter
  (:class:`repro.sig.simulator.Simulator`), kept as the executable oracle;
* :class:`CompiledBackend` — the execution-plan executor
  (:class:`repro.sig.engine.plan.ExecutionPlan`), which compiles the model
  once and then runs each instant over slot-indexed arrays in the static
  scheduling order;
* :class:`~repro.sig.engine.vectorized.VectorizedBackend` (registered by
  :mod:`repro.sig.engine.vectorized`) — numpy kernels over instant blocks
  for the stateless strata of the plan, scan kernels for delay
  recurrences, one per-instant sweep for the residue.

All backends produce bit-identical traces and raise the same simulation
errors; the integration tests ``tests/integration/test_backend_parity.py``
and ``tests/integration/test_vectorized_parity.py`` enforce this over the
whole case-study catalog.  New backends (generated C, cython kernels) plug
in by subclassing :class:`SimulationBackend` and registering in
:data:`BACKENDS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from ..process import ProcessModel
from ..scenario import Scenario
from ..simulator import SimulationTrace, Simulator
from ..sinks import SinkOrSinks
from .plan import ExecutionPlan, compile_plan


class SimulationBackend:
    """Common API of all simulation backends.

    A backend is bound to one process model at construction time, so that
    per-model preparation (flattening, plan compilation) happens exactly once
    however many scenarios are run through it.
    """

    #: Registry key and display name of the backend.
    name: str = "abstract"

    def __init__(self, process: ProcessModel, strict: bool = True) -> None:
        self.strict = strict

    def run(
        self,
        scenario: Scenario,
        record: Optional[Iterable[str]] = None,
        sinks: Optional[SinkOrSinks] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Run one scenario from a fresh initial state.

        Without *sinks* the recorded flows come back as a
        :class:`~repro.sig.simulator.SimulationTrace` (the run drives one
        :class:`~repro.sig.sinks.MaterializeSink`).  With *sinks* each
        resolved instant is streamed into them instead (O(signals) memory)
        and the method returns ``None``; see :mod:`repro.sig.sinks`.
        *length* overrides the scenario's default horizon (required when
        the scenario is unbounded).  Batches of scenarios run through
        :func:`~repro.sig.engine.batch.simulate_batch` (``runner=`` for an
        already prepared backend).
        """
        raise NotImplementedError


class ReferenceBackend(SimulationBackend):
    """The fixed-point interpreter of :mod:`repro.sig.simulator` (the oracle)."""

    name = "reference"

    def __init__(self, process: ProcessModel, strict: bool = True) -> None:
        super().__init__(process, strict)
        self._simulator = Simulator(process, strict=strict)

    @property
    def process(self) -> ProcessModel:
        """The flattened process model this backend is bound to."""
        return self._simulator.process

    def run(
        self,
        scenario: Scenario,
        record: Optional[Iterable[str]] = None,
        sinks: Optional[SinkOrSinks] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Interpret one scenario (see :meth:`SimulationBackend.run`)."""
        # Simulator.run resets delay/cell/shared memories itself.
        return self._simulator.run(scenario, record=record, sinks=sinks, length=length)


class CompiledBackend(SimulationBackend):
    """Execution-plan executor: compile once, run many scenarios."""

    name = "compiled"

    def __init__(self, process: ProcessModel, strict: bool = True) -> None:
        super().__init__(process, strict)
        self._plan = compile_plan(process)

    @property
    def process(self) -> ProcessModel:
        """The flattened process model the plan was compiled from."""
        return self._plan.process

    @property
    def plan(self) -> ExecutionPlan:
        """The compiled :class:`~repro.sig.engine.plan.ExecutionPlan`."""
        return self._plan

    def run(
        self,
        scenario: Scenario,
        record: Optional[Iterable[str]] = None,
        sinks: Optional[SinkOrSinks] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Execute one scenario over the plan (see :meth:`SimulationBackend.run`)."""
        return self._plan.run(
            scenario, record=record, strict=self.strict, sinks=sinks, length=length
        )


#: Registry of the available backends, keyed by :attr:`SimulationBackend.name`.
BACKENDS: Dict[str, Type[SimulationBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    CompiledBackend.name: CompiledBackend,
}

#: Backend used when the caller does not choose one.
DEFAULT_BACKEND = CompiledBackend.name


def backend_names() -> List[str]:
    """The registered backend names, default first."""
    names = sorted(BACKENDS)
    names.remove(DEFAULT_BACKEND)
    return [DEFAULT_BACKEND] + names


def create_backend(
    process: ProcessModel,
    backend: str = DEFAULT_BACKEND,
    strict: bool = True,
) -> SimulationBackend:
    """Instantiate the backend registered under *backend* for *process*.

    Backend-specific options (the ``vectorized`` backend's ``block_size``
    and ``scan_recurrences``) are set by constructing the backend class
    directly.
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {backend!r}; available: {', '.join(sorted(BACKENDS))}"
        ) from None
    return factory(process, strict=strict)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CompiledBackend",
    "ReferenceBackend",
    "SimulationBackend",
    "backend_names",
    "create_backend",
]
