"""E16 — lowering the residue: recurrence scan kernels.

E14 vectorized the stateless strata, but on scheduler-heavy models most
targets still run in the interpreted per-instant residual sweep — delayed
job counters above all.  This benchmark extends the E14 generator into a
**residue-dominated** model: affine delay counters (``cnt = zcnt + s``,
promoted to ``np.add.accumulate`` prefix scans), the E14 damped
accumulators (non-affine recurrences, promoted to generated scalar-loop
scans), cell-based holds (genuinely residual: swept per instant), and a
thin stateless pipeline for the pre/post strata.

Gate: the armed vectorized backend (its defaults, ``scan_recurrences`` on)
must beat the same backend with ``scan_recurrences=False`` — the "current
vectorized" of E14, running the same residual sweep — by **>= 3x**
wall-clock, bit-identically, while the residual fraction drops from
dominant to **< 25%** of targets.  Both fractions are persisted in the
``residue_lowering_e16`` extras of ``BENCH_e10.json``.
"""

from bench_timing import best_of_interleaved

from repro.sig import builder as b
from repro.sig.engine import VectorizedBackend
from repro.sig.values import BOOLEAN, REAL

from test_bench_e14_vectorized import build_numeric_model, sensor_scenario

#: Shape of the E16 model: E14 with few chains (the model must be
#: residue-dominated), plus ``COUNTERS`` affine delay-counter pairs and
#: ``HOLDS`` cell-based sample-and-hold targets.
COUNTERS = 96
HOLDS = 8
INSTANTS = 16000


def build_residue_model(counters=COUNTERS, holds=HOLDS):
    """The E16 workload: mostly delayed state, a thin stateless pipeline."""
    model = build_numeric_model(chains=4, depth=2)
    for k in range(counters):
        sensor = f"s{k % 8}"
        model.local(f"zcnt_{k}", REAL)
        model.output(f"cnt_{k}", REAL)
        model.define(f"zcnt_{k}", b.delay(b.ref(f"cnt_{k}"), init=0.0))
        model.define(f"cnt_{k}", b.ref(f"zcnt_{k}") + b.ref(sensor))
        model.synchronise(f"cnt_{k}", sensor)
        model.synchronise(f"zcnt_{k}", sensor)
        model.output(f"over_{k}", BOOLEAN)
        model.define(f"over_{k}", b.ref(f"cnt_{k}").gt(100.0))
    for k in range(holds):
        sensor = f"s{(k + 3) % 8}"
        model.output(f"hold_{k}", REAL)
        model.define(
            f"hold_{k}", b.cell(b.when(b.ref(sensor), b.ref(sensor).gt(float(k))),
                                b.ref("tick"), init=0.0)
        )
    return model


def test_bench_e16_residue_lowering(bench_e10):
    """Acceptance gate: recurrence scans >= 3x over the scans-off vectorized
    backend, residual fraction below 25%, bit-identical traces."""
    model = build_residue_model()
    scenario = sensor_scenario(INSTANTS)

    before = VectorizedBackend(model, strict=False, scan_recurrences=False)
    after = VectorizedBackend(model, strict=False)
    (before_trace, before_seconds), (after_trace, after_seconds) = (
        best_of_interleaved(lambda: before.run(scenario), lambda: after.run(scenario))
    )
    stats_before = before.vector_plan.statistics()
    stats_after = after.vector_plan.statistics()

    assert after_trace.flows == before_trace.flows
    assert after_trace.warnings == before_trace.warnings
    assert after.vector_plan.fallback_blocks == 0

    fraction_before = stats_before.residual / stats_before.targets
    fraction_after = stats_after.residual / stats_after.targets
    speedup = before_seconds / after_seconds
    bench_e10.record(
        "residue_lowering_e16",
        before_seconds=before_seconds,
        after_seconds=after_seconds,
        backend="vectorized",
        instants=INSTANTS,
        equations=model.equation_count(),
        residual_before=stats_before.residual,
        residual_after=stats_after.residual,
        residue_fraction_before=round(fraction_before, 4),
        residue_fraction_after=round(fraction_after, 4),
        recurrence_targets=stats_after.recurrence,
    )
    print(
        f"\nE16 — residue model ({model.equation_count()} equations, "
        f"{INSTANTS} instants): scans-off {before_seconds:.2f}s vs "
        f"armed {after_seconds:.2f}s ({speedup:.1f}x); residual "
        f"{stats_before.residual}/{stats_before.targets} "
        f"({fraction_before:.0%}) -> {stats_after.residual}/"
        f"{stats_after.targets} ({fraction_after:.0%}); {stats_after.summary()}"
    )
    assert fraction_before > 0.5, (
        "E16 model is no longer residue-dominated; the gate would be vacuous"
    )
    assert fraction_after < 0.25, (
        f"residual fraction {fraction_after:.0%} still above the 25% target"
    )
    assert speedup >= 3.0, (
        f"residue-lowering speedup {speedup:.2f}x is below the 3x target"
    )
