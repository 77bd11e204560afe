"""E17 — fault-tolerant batch execution under supervision.

Every batch — the CLI, the serving layer, fleet-scale sweeps — runs
supervised through ``simulate_batch``, so the execution substrate must
survive real faults.  This benchmark drives a 64-scenario batch through it
(``simulate_batch(runner=...)`` on one prepared backend) with *injected* crashes, hangs and slowdowns
(:class:`~repro.sig.engine.faults.FaultPlan`) and gates three properties:

1. **survival** — the faulted batch completes (no wedge, no poisoned
   pool), every persistently-injected fault is reported as a typed
   :class:`~repro.sig.engine.supervisor.ScenarioFault` of exactly the
   expected kind, and transient faults are recovered by the retry ladder;
2. **bit-identity** — every surviving scenario's trace equals the
   fault-free serial run of the same scenario, value for value;
3. **overhead** — a fault-free batch *armed* with a timeout and retries
   (``timeout=60, retries=2``) costs at most **1.3x** the same batch
   without knobs (the supervision defaults) on the same 64 scenarios and
   the same 2 workers: arming adds per-worker deadlines to the
   ``connection.wait`` loop, not a second copy of the work.

Recorded as ``fault_tolerance_e17`` in ``BENCH_e10.json``
(``before_seconds`` = batch without knobs, ``after_seconds`` = armed
batch, so ``speedup`` is the inverse of the overhead ratio).
"""

import pytest

from bench_timing import best_of_interleaved

from repro.sig import builder as b
from repro.sig.engine import FaultPlan, FaultSpec, create_backend, simulate_batch
from repro.sig.process import ProcessModel
from repro.sig.scenario import Scenario
from repro.sig.values import BOOLEAN, REAL

SCENARIOS = 64
INSTANTS = 1200
COUNTERS = 16
WORKERS = 2

#: The injections of the chaos run: two unrecoverable scenarios (a
#: persistent crash and a persistent hang), two transient crashes the retry
#: ladder must recover, and two slowdown stragglers that must not fault.
FAULT_SPECS = (
    FaultSpec("crash", 5, attempts=None),
    FaultSpec("hang", 13, attempts=None, delay=0.01),
    FaultSpec("crash", 21, attempts=(0,)),
    FaultSpec("crash", 44, attempts=(0,)),
    FaultSpec("slowdown", 30, attempts=(0,), delay=0.02),
    FaultSpec("slowdown", 51, attempts=(0,), delay=0.02),
)
EXPECTED_FAULTS = {5: "crash", 13: "timeout"}


def build_model(counters=COUNTERS):
    """A delay-counter pipeline: enough per-scenario work that the
    workers' dispatch cost is amortised, built from core operators only (no
    registered user ops, so it ships to spawn workers too)."""
    model = ProcessModel("fault_tolerance_e17")
    model.input("s", REAL)
    for k in range(counters):
        model.local(f"zc_{k}", REAL)
        model.output(f"c_{k}", REAL)
        model.define(f"zc_{k}", b.delay(b.ref(f"c_{k}"), init=float(k)))
        model.define(f"c_{k}", b.ref(f"zc_{k}") + b.ref("s"))
        model.synchronise(f"c_{k}", "s")
        model.synchronise(f"zc_{k}", "s")
        model.output(f"o_{k}", BOOLEAN)
        model.define(f"o_{k}", b.ref(f"c_{k}").gt(50.0 * (k + 1)))
    return model


def build_scenarios(count=SCENARIOS, instants=INSTANTS):
    """One symbolic scenario per batch slot, each with a distinct drive."""
    scenarios = []
    for index in range(count):
        scenario = Scenario(instants)
        scenario.set_periodic("s", 1 + index % 3, value=float(index % 7) + 0.5)
        scenarios.append(scenario)
    return scenarios


def _flows(trace):
    return {name: flow.values for name, flow in trace.flows.items()}


def test_bench_e17_fault_tolerance(bench_e10):
    """Acceptance gate: the chaos batch survives with bit-identical
    survivors and typed faults, and an armed fault-free batch costs <= 1.3x
    the same batch without knobs."""
    model = build_model()
    runner = create_backend(model, backend="compiled", strict=False)
    scenarios = build_scenarios()

    def batch(workers, **knobs):
        return simulate_batch(
            model, scenarios, workers=workers, collect_errors=True,
            runner=runner, **knobs,
        )

    # Fault-free serial baseline: the bit-identity oracle.
    serial_traces = batch(1).traces
    assert all(trace is not None for trace in serial_traces)

    # --- survival: the chaos batch completes with typed faults ----------
    plan = FaultPlan(FAULT_SPECS)
    chaos = batch(WORKERS, timeout=5.0, retries=2, backoff=0.01, fault_plan=plan)
    traces, faults = chaos.traces, chaos.faults
    assert not chaos.errors
    assert {fault.scenario: fault.kind for fault in faults} == EXPECTED_FAULTS
    for fault in faults:
        assert fault.attempts >= 1
        assert fault.worker is not None
        assert fault.summary()

    # --- bit-identity: every survivor equals the fault-free serial run --
    survivors = [i for i in range(SCENARIOS) if i not in EXPECTED_FAULTS]
    for index in survivors:
        assert traces[index] is not None, f"scenario {index} lost without a fault"
        assert _flows(traces[index]) == _flows(serial_traces[index]), (
            f"scenario {index} diverged from the serial run"
        )
    assert all(traces[index] is None for index in EXPECTED_FAULTS)

    # --- overhead: armed fault-free batch <= 1.3x the batch without knobs
    def knob_free():
        return batch(WORKERS)

    def armed():
        return batch(WORKERS, timeout=60.0, retries=2)

    (knob_free_result, knob_free_seconds), (armed_result, armed_seconds) = (
        best_of_interleaved(knob_free, armed)
    )
    assert not knob_free_result.faults and not armed_result.faults  # fault-free
    for index in range(SCENARIOS):
        assert _flows(armed_result.traces[index]) == _flows(knob_free_result.traces[index])
        assert _flows(knob_free_result.traces[index]) == _flows(serial_traces[index])

    overhead = armed_seconds / knob_free_seconds
    bench_e10.record(
        "fault_tolerance_e17",
        before_seconds=knob_free_seconds,
        after_seconds=armed_seconds,
        backend="compiled",
        workers=WORKERS,
        scenarios=SCENARIOS,
        instants=INSTANTS,
        equations=model.equation_count(),
        injected_faults=len(FAULT_SPECS),
        reported_faults={str(f.scenario): f.kind for f in faults},
        recovered_transients=[21, 44],
        overhead_ratio=round(overhead, 3),
    )
    print(
        f"\nE17 — fault tolerance ({SCENARIOS} scenarios x {INSTANTS} instants, "
        f"{WORKERS} workers): chaos batch survived with faults "
        f"{sorted(EXPECTED_FAULTS)} and {len(survivors)} bit-identical "
        f"survivors; fault-free without knobs {knob_free_seconds:.2f}s vs "
        f"armed {armed_seconds:.2f}s ({overhead:.2f}x overhead)"
    )
    assert overhead <= 1.3, (
        f"armed fault-free overhead {overhead:.2f}x exceeds the 1.3x gate"
    )
