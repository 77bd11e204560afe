"""Unit tests of the vectorized block-execution backend.

Catalog-wide parity lives in ``tests/integration/test_vectorized_parity.py``;
this module exercises the machinery directly: stratum partitioning, block
boundaries, fallback on warnings, constructor options, pickling and buffer
reuse.
"""

import pickle

import pytest

from repro.sig import builder as b
from repro.sig.engine import (
    BACKENDS,
    VectorizedBackend,
    backend_names,
    compile_vectorized,
    create_backend,
    simulate,
)
from repro.sig.engine.backends import CompiledBackend
from repro.sig.expressions import STEPWISE_OPERATIONS, register_stepwise_operation
from repro.sig.process import ProcessModel
from repro.sig.simulator import ClockViolation, Scenario
from repro.sig.values import ABSENT, BOOLEAN, REAL


def _numeric_model():
    """A small numeric pipeline: stateless chains plus a delayed accumulator
    and a post-stratum alarm reading it."""
    model = ProcessModel("vec_unit")
    model.input("u", REAL)
    model.input("v", REAL)
    model.output("y", REAL)
    model.define("y", b.ref("u") * 2.0 + b.default(b.ref("v"), 0.0))
    model.output("z", REAL)
    model.define("z", b.func("min", b.func("abs", b.ref("y")), 50.0))
    model.local("zacc", REAL)
    model.output("acc", REAL)
    model.define("zacc", b.delay(b.ref("acc"), init=0.0))
    model.define("acc", b.ref("zacc") + b.ref("u"))
    model.synchronise("acc", "u")
    model.synchronise("zacc", "u")
    model.output("alarm", BOOLEAN)
    model.define("alarm", b.ref("acc").gt(10.0))
    return model


def _scenario(length=30):
    scenario = Scenario(length)
    scenario.inputs["u"] = [float(i % 7) for i in range(length)]
    scenario.inputs["v"] = [
        float(i) if i % 3 else ABSENT for i in range(length)
    ]
    return scenario


def test_vectorized_backend_is_registered():
    assert "vectorized" in BACKENDS
    assert BACKENDS["vectorized"] is VectorizedBackend
    assert "vectorized" in backend_names()


def test_partition_statistics():
    plan = compile_vectorized(_numeric_model(), block_size=8)
    stats = plan.statistics()
    # y and z are input-derived (pre-stratum); the acc/zacc delay pair is
    # promoted into a recurrence scan, which unblocks alarm as a further
    # kernel stage — nothing is left in the residual sweep.
    assert stats.pre_stratum == 3
    assert stats.recurrence == 2
    assert stats.post_stratum == 0
    assert stats.residual == 0
    assert stats.vectorized == 5
    assert stats.block_size == 8
    assert "pre-sweep" in stats.summary()
    assert "recurrence" in stats.summary()


def test_partition_statistics_without_recurrence_scan():
    """With the scan stage off, the delay pair stays residual and the alarm
    moves to the post-stratum, as before the recurrence kernels existed."""
    plan = compile_vectorized(_numeric_model(), block_size=8, scan_recurrences=False)
    stats = plan.statistics()
    assert stats.pre_stratum == 2
    assert stats.recurrence == 0
    assert stats.post_stratum == 1
    assert stats.residual == 2
    assert stats.vectorized == 3


@pytest.mark.parametrize("block_size", [1, 3, 7, 32, 1024])
def test_block_boundaries_preserve_state(block_size):
    """Delay state must flow across block boundaries for any block size."""
    model = _numeric_model()
    scenario = _scenario(50)
    reference = CompiledBackend(model, strict=False).run(scenario)
    backend = VectorizedBackend(model, strict=False, block_size=block_size)
    trace = backend.run(scenario)
    assert trace.flows == reference.flows
    assert trace.warnings == reference.warnings
    assert backend.vector_plan.fallback_blocks == 0
    for signal in reference.flows:
        for expected, actual in zip(
            reference.flows[signal].values, trace.flows[signal].values
        ):
            assert type(expected) is type(actual)


def test_warning_blocks_fall_back_to_pure_sweep():
    """A clock violation inside a vectorised expression must replay the
    block purely, reproducing the compiled warnings verbatim."""
    model = ProcessModel("warny")
    model.input("a", REAL)
    model.input("c", REAL)
    model.output("y", REAL)
    model.define("y", b.ref("a") + b.ref("c"))
    scenario = Scenario(12)
    scenario.inputs["a"] = [1.0] * 12
    scenario.inputs["c"] = [2.0 if i % 2 else ABSENT for i in range(12)]

    reference = CompiledBackend(model, strict=False).run(scenario)
    assert reference.warnings  # the model does warn
    backend = VectorizedBackend(model, strict=False, block_size=4)
    trace = backend.run(scenario)
    assert trace.flows == reference.flows
    assert trace.warnings == reference.warnings
    assert backend.vector_plan.fallback_blocks == 3
    assert backend.vector_plan.vector_blocks == 0
    # The fallback reason is recorded, so a coding bug masquerading as a
    # slow path stays diagnosable.
    assert sum(backend.vector_plan.fallback_reasons.values()) == 3
    assert any(
        "_FallbackBlock" in reason for reason in backend.vector_plan.fallback_reasons
    )

    with pytest.raises(ClockViolation):
        VectorizedBackend(model, strict=True, block_size=4).run(scenario)


def test_user_registered_operator_stays_residual():
    """User stepwise functions may be stateful: never vectorised, and the
    traces still match the compiled backend."""
    register_stepwise_operation("vec_unit_scale", lambda x: x * 3.0)
    try:
        model = ProcessModel("userop")
        model.input("u", REAL)
        model.output("y", REAL)
        model.define("y", b.func("vec_unit_scale", b.ref("u")))
        scenario = Scenario(9)
        scenario.inputs["u"] = [float(i) for i in range(9)]
        backend = VectorizedBackend(model, strict=False, block_size=4)
        assert backend.vector_plan.statistics().vectorized == 0
        reference = CompiledBackend(model, strict=False).run(scenario)
        assert backend.run(scenario).flows == reference.flows
    finally:
        STEPWISE_OPERATIONS.pop("vec_unit_scale", None)


def test_backend_pickles_and_recompiles():
    backend = VectorizedBackend(_numeric_model(), strict=False, block_size=11)
    clone = pickle.loads(pickle.dumps(backend))
    assert clone.block_size == 11
    scenario = _scenario(25)
    assert clone.run(scenario).flows == backend.run(scenario).flows


def test_repeated_runs_share_no_state():
    """Back-to-back runs on one backend start from fresh state buffers."""
    model = _numeric_model()
    backend = VectorizedBackend(model, strict=False, block_size=8)
    for length in (5, 30, 8, 17):
        scenario = _scenario(length)
        first = backend.run(scenario)
        again = backend.run(scenario)
        assert first.flows == again.flows


def test_nan_inputs_keep_object_identity():
    """NaN compares equal only by identity, so passed-through NaN values
    must reach the trace as the *same* object the scenario supplied — the
    typed float columns must refuse them (flow ``==`` against the compiled
    backend is the parity contract)."""
    model = ProcessModel("nanny")
    model.input("c")
    model.input("u", REAL)
    model.output("y", REAL)
    model.define("y", b.when(b.ref("u"), b.clock("c")))
    nan = float("nan")
    scenario = Scenario(6)
    scenario.set_always("c")
    scenario.inputs["u"] = [nan, 2.0, nan, 3.0, nan, 4.0]

    reference = CompiledBackend(model, strict=False).run(scenario)
    backend = VectorizedBackend(model, strict=False, block_size=4)
    trace = backend.run(scenario)
    assert backend.vector_plan.fallback_blocks == 0
    assert trace.flows == reference.flows
    assert trace.flows["y"].values[0] is nan
    # A NaN constant keeps handing out the one shared object, like the
    # compiled closure does.
    model2 = ProcessModel("nanny2")
    model2.input("u", REAL)
    model2.output("y", REAL)
    model2.define("y", b.default(b.ref("u"), nan).when(b.clock("u")))
    scenario2 = Scenario(4)
    scenario2.inputs["u"] = [1.0, 2.0, 3.0, 4.0]
    ref2 = CompiledBackend(model2, strict=False).run(scenario2)
    vec2 = VectorizedBackend(model2, strict=False, block_size=2).run(scenario2)
    assert vec2.flows == ref2.flows


def test_recurrence_scan_matches_compiled_across_block_sizes():
    """The scanned accumulator pair must match the compiled per-instant
    fold bit for bit, including across block boundaries."""
    model = _numeric_model()
    scenario = _scenario(60)
    reference = CompiledBackend(model, strict=False).run(scenario)
    for block_size in (1, 4, 9, 64):
        backend = VectorizedBackend(model, strict=False, block_size=block_size)
        assert backend.vector_plan.statistics().recurrence == 2
        trace = backend.run(scenario)
        assert trace.flows == reference.flows
        assert backend.vector_plan.fallback_blocks == 0


def test_recurrence_clock_mismatch_falls_back():
    """An accumulator clocked apart from its mask source must fall the
    block back to the pure sweep and still match the compiled trace."""
    # A hole in u would desynchronise nothing (u is the mask source), so
    # drive the operand-mask check through a second input read by acc.
    model2 = ProcessModel("mismatch2")
    model2.input("u", REAL)
    model2.input("w", REAL)
    model2.local("zacc", REAL)
    model2.output("acc", REAL)
    model2.define("zacc", b.delay(b.ref("acc"), init=0.0))
    model2.define("acc", b.ref("zacc") + b.ref("w"))
    model2.synchronise("acc", "u")
    model2.synchronise("zacc", "u")
    scenario = Scenario(12)
    scenario.inputs["u"] = [float(i) for i in range(12)]
    scenario.inputs["w"] = [float(i) if i % 3 else ABSENT for i in range(12)]

    reference = CompiledBackend(model2, strict=False).run(scenario)
    backend = VectorizedBackend(model2, strict=False, block_size=4)
    assert backend.vector_plan.statistics().recurrence == 2
    trace = backend.run(scenario)
    assert trace.flows == reference.flows
    assert trace.warnings == reference.warnings
    assert backend.vector_plan.fallback_blocks > 0
    assert any(
        "recurrence" in reason for reason in backend.vector_plan.fallback_reasons
    )


def test_unsynchronised_recurrence_is_not_promoted():
    """A delay pair with no block-available clock source deadlocks in the
    reference; the scan must leave it alone so the error is preserved."""
    model = ProcessModel("deadlock")
    model.input("u", REAL)
    model.local("zacc", REAL)
    model.output("acc", REAL)
    model.define("zacc", b.delay(b.ref("acc"), init=0.0))
    model.define("acc", b.ref("zacc") + 1.0)
    backend = VectorizedBackend(model, strict=False, block_size=4)
    assert backend.vector_plan.statistics().recurrence == 0
    scenario = Scenario(3)
    scenario.inputs["u"] = [1.0, 2.0, 3.0]
    from repro.sig.simulator import InstantaneousCycle

    with pytest.raises(InstantaneousCycle):
        backend.run(scenario)
    with pytest.raises(InstantaneousCycle):
        CompiledBackend(model, strict=False).run(scenario)


def test_residual_sweep_preserves_instantaneous_cycle():
    """Independent residual pipelines share one sweep, and a blocked one
    still reports the reference's instantaneous-cycle error."""
    register_stepwise_operation("vec_unit_id_a", lambda x: x)
    try:
        model = ProcessModel("residue")
        model.input("p", REAL)
        model.input("q", REAL)
        model.output("a", REAL)
        model.define("a", b.func("vec_unit_id_a", b.ref("p")))
        model.output("d", REAL)
        model.define("d", b.ref("q") + b.ref("dd"))
        model.output("dd", REAL)
        model.define("dd", b.ref("q") - b.ref("d"))  # instantaneous cycle d<->dd
        scenario = Scenario(20)
        scenario.inputs["p"] = [1.0] * 20
        scenario.inputs["q"] = [float(i) for i in range(20)]

        backend = VectorizedBackend(model, strict=False, block_size=8)
        assert backend.vector_plan.statistics().residual == 3
        from repro.sig.simulator import InstantaneousCycle

        with pytest.raises(InstantaneousCycle) as vec_error:
            backend.run(scenario)
        with pytest.raises(InstantaneousCycle) as ref_error:
            CompiledBackend(model, strict=False).run(scenario)
        assert str(vec_error.value) == str(ref_error.value)
    finally:
        STEPWISE_OPERATIONS.pop("vec_unit_id_a", None)


def test_residual_merge_cycle_resolves():
    """``d``/``dd`` read each other (a *resolvable* merge cycle), which
    keeps them residual; the sweep resolves them without a fallback, next
    to an unrelated user-operator target."""
    register_stepwise_operation("vec_unit_noop", lambda x: x + 0.0)
    try:
        model = ProcessModel("merge_cycle")
        model.input("p", REAL)
        model.input("q", REAL)
        model.output("d", REAL)
        model.define("d", b.default(b.ref("p"), b.ref("dd")))
        model.output("dd", REAL)
        model.define("dd", b.default(b.ref("d"), 5.0))
        model.output("a", REAL)
        model.define("a", b.func("vec_unit_noop", b.ref("q")))  # never skips
        scenario = Scenario(24)
        scenario.inputs["p"] = [5.0] * 24
        scenario.inputs["q"] = [float(i) for i in range(24)]

        reference = CompiledBackend(model, strict=False).run(scenario)
        backend = VectorizedBackend(model, strict=False, block_size=8)
        trace = backend.run(scenario)
        assert trace.flows == reference.flows
        assert backend.vector_plan.fallback_blocks == 0
    finally:
        STEPWISE_OPERATIONS.pop("vec_unit_noop", None)


@pytest.fixture
def identity_operator():
    register_stepwise_operation("vec_unit_same", lambda x: x)
    yield
    STEPWISE_OPERATIONS.pop("vec_unit_same", None)


def _two_group_model():
    """``x ^= y``: two kernels, no residual member (a *decided* group).
    ``r ^= s``: the user-operator target ``r`` stays residual, ``s`` is a
    kernel (a *residual* group, propagated by the sweep)."""
    model = ProcessModel("two_groups")
    for name in ("u", "v", "w", "t"):
        model.input(name, REAL)
    model.output("x", REAL)
    model.define("x", b.ref("u") + 1.0)
    model.output("y", REAL)
    model.define("y", b.ref("v") * 2.0)
    model.synchronise("x", "y")
    model.output("s", REAL)
    model.define("s", b.ref("w") * 3.0)
    model.output("r", REAL)
    model.define("r", b.func("vec_unit_same", b.ref("t")))
    model.synchronise("r", "s")
    return model


#: The decided group disagrees at instant 10, the residual group at 12.
_DECIDED_HOLE, _RESIDUAL_HOLE = 10, 12


def _two_group_scenario(length=16):
    scenario = Scenario(length)
    even = [float(i) if i % 2 == 0 else ABSENT for i in range(length)]
    scenario.inputs["u"] = [float(i) for i in range(length)]
    scenario.inputs["v"] = [
        ABSENT if i == _DECIDED_HOLE else float(i) for i in range(length)
    ]
    scenario.inputs["w"] = even
    scenario.inputs["t"] = [
        ABSENT if i == _RESIDUAL_HOLE else value for i, value in enumerate(even)
    ]
    return scenario


def _run_outcome(backend, scenario):
    try:
        trace = backend.run(scenario)
    except ClockViolation as error:
        return "ClockViolation", str(error)
    return trace.flows, trace.warnings


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("block_size", [1, 4, 8])
def test_decided_and_residual_groups(block_size, strict, identity_operator):
    """A decided group is checked once per block and falls back only in a
    block where it disagrees; a group with a residual member is propagated
    by the sweep.  Traces, warnings and errors match ``compiled``."""
    model = _two_group_model()
    backend = VectorizedBackend(model, strict=strict, block_size=block_size)
    vector_plan = backend.vector_plan
    assert [names for _slots, names in vector_plan._decided_groups] == ["x, y"]
    assert [names for _slots, names in vector_plan._residual_groups] == ["r, s"]
    assert vector_plan.statistics().residual == 1
    compiled = CompiledBackend(model, strict=strict)

    # The first eight instants agree: every block runs vectorised.
    agreeing = _two_group_scenario(length=8)
    expected = _run_outcome(compiled, agreeing)
    assert expected[1] == []
    assert _run_outcome(backend, agreeing) == expected
    assert vector_plan.fallback_blocks == 0
    assert vector_plan.vector_blocks == 8 // block_size

    # Only the blocks holding a disagreeing instant fall back.
    vector_plan.vector_blocks = vector_plan.fallback_blocks = 0
    scenario = _two_group_scenario()
    expected = _run_outcome(compiled, scenario)
    assert _run_outcome(backend, scenario) == expected
    if strict:
        assert expected[0] == "ClockViolation" and "x, y" in expected[1]
        assert vector_plan.fallback_blocks == 1
        assert vector_plan.vector_blocks == _DECIDED_HOLE // block_size
    else:
        assert any("x, y" in w and "instant 10" in w for w in expected[1])
        assert any("r, s" in w and "instant 12" in w for w in expected[1])
        disagreeing = {_DECIDED_HOLE // block_size, _RESIDUAL_HOLE // block_size}
        assert vector_plan.fallback_blocks == len(disagreeing)
        assert vector_plan.vector_blocks == 16 // block_size - len(disagreeing)


def test_unknown_backend_keywords_raise():
    """Backend options go to the backend's own constructor; a keyword no
    constructor takes is a TypeError, never silently dropped."""
    model = _numeric_model()
    with pytest.raises(TypeError):
        create_backend(model, "compiled", strict=False, block_size=4)
    with pytest.raises(TypeError):
        create_backend(model, "vectorized", strict=False, block_size=4)
    with pytest.raises(TypeError):
        VectorizedBackend(model, strict=False, blok_size=4)
    with pytest.raises(TypeError):
        VectorizedBackend(model, cluster_residue=False)
    with pytest.raises(TypeError):
        simulate(model, _scenario(10), backend="vectorized", block_size=4)
    backend = VectorizedBackend(model, strict=False, block_size=5)
    assert backend.block_size == 5
    assert backend.vector_plan is not None
    assert backend.run(_scenario(10)).length == 10


def test_scenario_driving_a_vectorised_target_wins():
    """A scenario flow on an undeclared name that happens to be a target
    disables its kernel, exactly like the compiled backend skips its work
    item."""
    model = ProcessModel("driven")
    model.input("u", REAL)
    model.define("helper", b.ref("u") * 2.0)  # undeclared target
    model.output("y", REAL)
    model.define("y", b.ref("u") + 1.0)
    scenario = Scenario(10)
    scenario.inputs["u"] = [float(i) for i in range(10)]
    scenario.inputs["helper"] = [100.0] * 10

    reference = CompiledBackend(model, strict=False).run(scenario)
    trace = VectorizedBackend(model, strict=False, block_size=4).run(scenario)
    assert trace.flows == reference.flows
    assert trace.warnings == reference.warnings
