"""Polychronous (SIGNAL) model of computation.

This subpackage is the from-scratch substitute for the Polychrony/SIGNAL
toolset used by the paper: the signal value domain, the expression and process
models, the clock calculus, the affine clock calculus, static analyses
(determinism, deadlock), a reference simulator, a VCD trace writer, the
AADL2SIGNAL process library and the profiling-based performance estimation.
"""

from .values import (
    ABSENT,
    BOOLEAN,
    EVENT,
    INTEGER,
    REAL,
    STRING,
    Flow,
    SignalKind,
    SignalType,
    bundle,
    is_absent,
    is_present,
    opaque,
    stutter_free,
)
from .expressions import (
    Cell,
    ClockDifference,
    ClockIntersection,
    ClockOf,
    ClockUnion,
    Const,
    Default,
    Delay,
    Expression,
    FunctionApp,
    SignalRef,
    Var,
    When,
    WhenClock,
    register_stepwise_operation,
)
from .process import (
    Bundle,
    ClockConstraint,
    ConstraintKind,
    Direction,
    Equation,
    ProcessInstance,
    ProcessModel,
    SignalDecl,
)
from .clocks import Clock, ClockAtom, false_clock, signal_clock, true_clock
from .clock_calculus import (
    ClockCalculus,
    ClockCalculusError,
    ClockCalculusResult,
    run_clock_calculus,
    solve_constraint_system,
)
from .calculus_modular import (
    ExtractionCache,
    ModularClockCalculus,
    run_clock_calculus_modular,
)
from .affine import (
    AffineClock,
    AffineRelation,
    first_conflict,
    hyperperiod_of,
    lcm,
    lcm_many,
    mutually_disjoint,
    relation_between,
    solve_congruences,
)
from .scenario import (
    ConstantRule,
    ExplicitRule,
    GeneratorRule,
    InputProgram,
    InputRule,
    PeriodicRule,
    Scenario,
    SparseRule,
    as_rule,
)
from .simulator import (
    ClockViolation,
    InstantaneousCycle,
    NonDeterministicDefinition,
    SimulationError,
    SimulationTrace,
    Simulator,
    simulate,
)
from .printer import SignalPrinter, interface_summary, module_source, to_signal_source
from .sinks import (
    MaterializeSink,
    SignalStatistics,
    StatisticsSink,
    TraceHeader,
    TraceSink,
    TraceStatistics,
    batch_statistics_summary,
    replay_trace,
)
from .vcd import (
    StreamingVcdSink,
    VcdDocument,
    VcdWriter,
    parse_vcd,
    shape_for_type,
    shapes_from_trace,
    write_vcd,
)
from .profiling import (
    EMBEDDED_CPU,
    GENERIC_PROCESSOR,
    MICROCONTROLLER,
    CostModel,
    DynamicProfile,
    Profiler,
    StaticProfile,
    compare_architectures,
)
from .scheduler_graph import DependencyGraph, build_dependency_graph
from .engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    BatchResult,
    CompiledBackend,
    ExecutionPlan,
    ReferenceBackend,
    SimulationBackend,
    backend_names,
    compile_plan,
    create_backend,
    default_scenario,
    default_worker_count,
    simulate_batch,
)
from . import analysis, builder, engine, library, scenario, sinks, vcd

__all__ = [
    # values
    "ABSENT", "BOOLEAN", "EVENT", "INTEGER", "REAL", "STRING", "Flow",
    "SignalKind", "SignalType", "bundle", "is_absent", "is_present", "opaque",
    "stutter_free",
    # expressions
    "Cell", "ClockDifference", "ClockIntersection", "ClockOf", "ClockUnion",
    "Const", "Default", "Delay", "Expression", "FunctionApp", "SignalRef",
    "Var", "When", "WhenClock", "register_stepwise_operation",
    # process
    "Bundle", "ClockConstraint", "ConstraintKind", "Direction", "Equation",
    "ProcessInstance", "ProcessModel", "SignalDecl",
    # clocks
    "Clock", "ClockAtom", "false_clock", "signal_clock", "true_clock",
    "ClockCalculus", "ClockCalculusError", "ClockCalculusResult", "run_clock_calculus",
    "solve_constraint_system",
    # modular clock calculus
    "ExtractionCache", "ModularClockCalculus", "run_clock_calculus_modular",
    # affine
    "AffineClock", "AffineRelation", "first_conflict", "hyperperiod_of",
    "lcm", "lcm_many", "mutually_disjoint", "relation_between", "solve_congruences",
    # symbolic scenario programs
    "ConstantRule", "ExplicitRule", "GeneratorRule", "InputProgram",
    "InputRule", "PeriodicRule", "SparseRule", "as_rule",
    # simulation
    "ClockViolation", "InstantaneousCycle", "NonDeterministicDefinition",
    "Scenario", "SimulationError", "SimulationTrace", "Simulator", "simulate",
    # printing / traces
    "SignalPrinter", "interface_summary", "module_source", "to_signal_source",
    "VcdDocument", "VcdWriter", "parse_vcd", "write_vcd",
    # streaming sinks
    "MaterializeSink", "SignalStatistics", "StatisticsSink", "StreamingVcdSink",
    "TraceHeader", "TraceSink", "TraceStatistics", "batch_statistics_summary",
    "replay_trace", "shape_for_type", "shapes_from_trace",
    # profiling
    "EMBEDDED_CPU", "GENERIC_PROCESSOR", "MICROCONTROLLER", "CostModel",
    "DynamicProfile", "Profiler", "StaticProfile", "compare_architectures",
    # graph
    "DependencyGraph", "build_dependency_graph",
    # engine
    "BACKENDS", "DEFAULT_BACKEND", "BatchResult", "CompiledBackend",
    "ExecutionPlan", "ReferenceBackend", "SimulationBackend", "backend_names",
    "compile_plan", "create_backend", "default_scenario", "default_worker_count",
    "simulate_batch",
    # submodules
    "analysis", "builder", "engine", "library", "scenario", "sinks", "vcd",
]
