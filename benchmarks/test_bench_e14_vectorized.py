"""E14 — vectorized block execution on a numeric-heavy long-horizon model.

The vectorized backend targets exactly the workload the compiled plan still
pays interpreter dispatch for: long scenarios over models dominated by
stepwise numeric equations.  This benchmark builds such a model — sensor
mixing/filter chains (pre-stratum), delayed accumulators (residual) and
alarm comparisons over them (post-stratum) — runs a long scenario through
both backends, checks bit-identity, and gates the vectorized backend at
**>= 3x** wall-clock over ``compiled``.  The measurement is persisted as
``vectorized_block_e14`` in ``BENCH_e10.json``.  The residue-lowering
follow-up (recurrence scans) is gated separately in
``test_bench_e16_residue_lowering.py``.
"""

import math

from bench_timing import best_of

from repro.sig import builder as b
from repro.sig.engine import (
    CompiledBackend,
    DEFAULT_BLOCK_SIZE,
    VectorizedBackend,
)
from repro.sig.process import ProcessModel
from repro.sig.simulator import Scenario
from repro.sig.values import BOOLEAN, REAL

#: Shape of the E14 model: ``chains`` filter pipelines of ``depth`` stages
#: over 8 sensors, plus 4 delayed accumulators with alarm comparators.
CHAINS = 24
DEPTH = 8
INSTANTS = 16000


def build_numeric_model(chains=CHAINS, depth=DEPTH) -> ProcessModel:
    """The E14 workload: mostly stateless numeric dataflow, a little state."""
    model = ProcessModel("E14Numeric")
    model.input("tick")
    sensors = []
    for k in range(8):
        model.input(f"s{k}", REAL)
        sensors.append(f"s{k}")
    for c in range(chains):
        left, right = sensors[c % 8], sensors[(c + 3) % 8]
        model.local(f"mix_{c}", REAL)
        model.define(f"mix_{c}", b.ref(left) * 0.6 + b.ref(right) * 0.4)
        previous = f"mix_{c}"
        for d in range(depth):
            stage = f"st_{c}_{d}"
            model.local(stage, REAL)
            model.define(
                stage,
                b.func(
                    "min", b.func("max", b.ref(previous) * 1.01 - 0.005, -100.0), 100.0
                ),
            )
            previous = stage
        model.output(f"out_{c}", REAL)
        model.define(f"out_{c}", b.func("abs", b.ref(previous)))
        model.local(f"hot_{c}", BOOLEAN)
        model.define(f"hot_{c}", b.ref(previous).gt(50.0))
    for k in range(4):
        sensor = sensors[k]
        model.local(f"zacc_{k}", REAL)
        model.output(f"acc_{k}", REAL)
        model.define(f"zacc_{k}", b.delay(b.ref(f"acc_{k}"), init=0.0))
        model.define(f"acc_{k}", b.ref(f"zacc_{k}") * 0.99 + b.ref(sensor))
        model.synchronise(f"acc_{k}", sensor)
        model.synchronise(f"zacc_{k}", sensor)
        model.output(f"alarm_{k}", BOOLEAN)
        model.define(f"alarm_{k}", b.ref(f"acc_{k}").gt(25.0))
    return model


def sensor_scenario(length) -> Scenario:
    """Every sensor present at every instant with a drifting float value."""
    scenario = Scenario(length)
    scenario.set_always("tick")
    for k in range(8):
        scenario.inputs[f"s{k}"] = [
            math.sin(0.01 * t * (k + 1)) * 10.0 + k for t in range(length)
        ]
    return scenario


def test_bench_e14_vectorized_speedup(bench_e10):
    """Acceptance gate: on the numeric-heavy long-horizon model the
    vectorized backend (block kernels included) beats the compiled plan by
    at least 3x wall-clock while staying bit-identical."""
    model = build_numeric_model()
    scenario = sensor_scenario(INSTANTS)

    compiled = CompiledBackend(model, strict=False)
    compiled_trace, compiled_seconds = best_of(lambda: compiled.run(scenario))

    vectorized = VectorizedBackend(model, strict=False)
    vector_trace, vector_seconds = best_of(lambda: vectorized.run(scenario))

    assert vector_trace.flows == compiled_trace.flows
    assert vector_trace.warnings == compiled_trace.warnings
    stats = vectorized.vector_plan.statistics()
    assert vectorized.vector_plan.fallback_blocks == 0

    speedup = compiled_seconds / vector_seconds
    bench_e10.record(
        "vectorized_block_e14",
        before_seconds=compiled_seconds,
        after_seconds=vector_seconds,
        backend="vectorized",
        instants=INSTANTS,
        equations=model.equation_count(),
        block_size=DEFAULT_BLOCK_SIZE,
        pre_stratum=stats.pre_stratum,
        post_stratum=stats.post_stratum,
        residual=stats.residual,
    )
    print(
        f"\nE14 — numeric model ({model.equation_count()} equations, "
        f"{INSTANTS} instants): compiled {compiled_seconds:.2f}s vs "
        f"vectorized {vector_seconds:.2f}s ({speedup:.1f}x); {stats.summary()}"
    )
    assert speedup >= 3.0, f"vectorized speedup {speedup:.2f}x is below the 3x target"
