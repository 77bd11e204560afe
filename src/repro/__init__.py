"""repro — Polychronous analysis and validation for timed software architectures in AADL.

A from-scratch Python reproduction of the DATE 2013 paper by Ma, Yu, Gautier,
Le Guernic, Talpin, Besnard and Heitz: an AADL front-end, a polychronous
(SIGNAL) model of computation, the ASME2SSME AADL→SIGNAL translation with the
AADL timing execution model, thread-level static scheduler synthesis exported
to affine clocks, formal analyses (clock calculus, determinism, deadlock,
synchronizability), simulation with VCD traces, and profiling-based
performance evaluation.

Top-level entry points:

* :func:`repro.core.run_toolchain` — the complete tool chain on one AADL model;
* :mod:`repro.aadl` — AADL parsing, instantiation and validation;
* :mod:`repro.sig` — the polychronous kernel (clock calculus, simulator, …);
* :mod:`repro.core` — the AADL→SIGNAL translation;
* :mod:`repro.scheduling` — scheduler synthesis and schedulability analysis;
* :mod:`repro.casestudies` — the ProducerConsumer case study and the catalog.

Architecture — the engine layer
===============================

Simulation is structured as a three-stage engine (:mod:`repro.sig.engine`)
sitting between scheduling and execution:

1. **scheduling/analysis** produce a flattened
   :class:`~repro.sig.process.ProcessModel` and its static dependency order
   (:mod:`repro.sig.scheduler_graph` — the same graph the paper uses for
   code generation);
2. **plan compilation** (:func:`repro.sig.engine.compile_plan`) lowers the
   model once into an :class:`~repro.sig.engine.ExecutionPlan`: signals
   mapped to integer slots, constants folded, static clock tests
   precomputed, delay/cell memories given integer state slots, and the
   instantaneous dependency graph analysed for acyclicity (resolution
   itself replays the reference interpreter's order exactly, because
   resolution order is observable through ``^=`` clock propagation);
3. **backends** execute scenarios against the model through one API
   (:class:`~repro.sig.engine.SimulationBackend`): ``reference`` is the
   fixed-point interpreter kept as the oracle, ``compiled`` runs the plan
   (several times faster, bit-identical traces and errors).  The backend is
   selected via :attr:`repro.core.ToolchainOptions.backend`, the CLI
   ``--backend`` flag, or directly through
   :func:`repro.sig.engine.create_backend`.

Many-scenario workloads go through :func:`repro.sig.engine.simulate_batch`,
which prepares the backend once and replays the whole scenario batch
(`repro.casestudies.scenario_sweep` builds such batches for generated
designs); ``workers=N`` shards the batch over supervised worker
processes (:mod:`repro.sig.engine.supervisor`) with bit-identical traces
and errors.
New backends (numpy kernels, generated C) register in
:data:`repro.sig.engine.BACKENDS`.

Analysis scales the same way: the clock calculus can run *modularly*
(:mod:`repro.sig.calculus_modular`) over the untouched process tree —
per-subprocess constraint extraction, memoised across repeated subprocess
shapes, composed at the interface signals — instead of re-solving the
flattened system, with results identical to the flat solver
(:mod:`repro.sig.clock_calculus`) by construction and by the parity tests.
"""

from . import aadl, casestudies, core, scheduling, sig
from .core import ToolchainOptions, ToolchainResult, TranslationConfig, run_toolchain, translate_system

__version__ = "0.4.0"

__all__ = [
    "aadl",
    "casestudies",
    "core",
    "scheduling",
    "sig",
    "ToolchainOptions",
    "ToolchainResult",
    "TranslationConfig",
    "run_toolchain",
    "translate_system",
    "__version__",
]
