"""Unit tests of the lowered (codegen) backend.

Catalog-wide parity lives in ``tests/integration/test_lowered_parity.py``;
this module exercises the machinery directly: per-equation source
generation, fold/identity behaviour, the state-slot consistency guard,
pickling and the ``lowered_residue`` option of the vectorized backend.
"""

import pickle
import warnings

import pytest

from repro.sig import builder as b
from repro.sig.engine import (
    BACKENDS,
    LoweredBackend,
    VectorizedBackend,
    backend_names,
    compile_lowered,
    create_backend,
    lower_plan_evaluators,
    numpy_available,
    simulate,
)
from repro.sig.engine import lowered as lowered_module
from repro.sig.engine.backends import CompiledBackend
from repro.sig.engine.plan import compile_plan
from repro.sig.expressions import register_stepwise_operation
from repro.sig.process import ProcessModel
from repro.sig.simulator import ClockViolation, Scenario
from repro.sig.values import ABSENT, BOOLEAN, REAL


def _rich_model():
    """One model per expression family: delays, cells, sampling, merges,
    clock operators, nested pure applications and constant folds."""
    model = ProcessModel("low_unit")
    model.input("u", REAL)
    model.input("v", REAL)
    model.input("gate", BOOLEAN)
    model.output("y", REAL)
    model.define("y", b.ref("u") * 2.0 + b.default(b.ref("v"), 0.0))
    model.local("zacc", REAL)
    model.output("acc", REAL)
    model.define("zacc", b.delay(b.ref("acc"), init=0.0))
    model.define("acc", b.ref("zacc") + b.ref("u"))
    model.synchronise("acc", "u")
    model.synchronise("zacc", "u")
    model.output("held", REAL)
    model.define("held", b.cell(b.ref("v"), b.ref("gate"), init=-1.0))
    model.output("sampled", REAL)
    model.define("sampled", b.when(b.ref("u"), b.ref("gate")))
    model.output("evt", BOOLEAN)
    model.define("evt", b.when_clock(b.ref("gate")))
    model.output("anyclk", BOOLEAN)
    model.define("anyclk", b.clock_union(b.ref("u"), b.ref("v")))
    model.output("both", BOOLEAN)
    model.define("both", b.clock_intersection(b.ref("u"), b.ref("v")))
    model.output("only_u", BOOLEAN)
    model.define("only_u", b.clock_difference(b.ref("u"), b.ref("v")))
    model.output("uclk", BOOLEAN)
    model.define("uclk", b.clock(b.ref("u")))
    model.output("sat", REAL)
    model.define("sat", b.func("min", b.func("abs", b.ref("y")), 50.0))
    model.output("folded", REAL)
    model.define("folded", b.ref("u") * (b.const(2.0) + b.const(3.0)))
    return model


def _scenario(length=30):
    scenario = Scenario(length)
    scenario.inputs["u"] = [float(i % 7) for i in range(length)]
    scenario.inputs["v"] = [float(i) if i % 3 else ABSENT for i in range(length)]
    scenario.inputs["gate"] = [bool(i % 2) for i in range(length)]
    return scenario


def _violation_model():
    model = ProcessModel("low_viol")
    model.input("u", REAL)
    model.input("v", REAL)
    model.output("w", REAL)
    model.define("w", b.ref("u") + b.ref("v"))
    return model


def _assert_identical(reference, candidate):
    assert candidate.length == reference.length
    assert set(candidate.flows) == set(reference.flows)
    for signal in reference.flows:
        assert candidate.flows[signal] == reference.flows[signal], signal
        for expected, actual in zip(
            reference.flows[signal].values, candidate.flows[signal].values
        ):
            assert type(expected) is type(actual), signal
    assert candidate.warnings == reference.warnings


def test_backend_registered():
    assert "lowered" in backend_names()
    assert BACKENDS["lowered"] is LoweredBackend
    assert isinstance(
        create_backend(_rich_model(), backend="lowered"), LoweredBackend
    )


def test_rich_model_parity():
    model = _rich_model()
    scenario = _scenario()
    reference = CompiledBackend(model, strict=False).run(scenario)
    candidate = LoweredBackend(model, strict=False).run(scenario)
    _assert_identical(reference, candidate)


def test_every_equation_is_lowered():
    plan = compile_lowered(_rich_model())
    assert plan.interpreted_targets == 0
    assert plan.lowered_targets == len(plan.targets)


def test_generated_source_is_attached():
    plan = compile_plan(_rich_model())
    lowered_map = lower_plan_evaluators(plan)
    assert lowered_map, "expected at least one lowered target"
    source = lowered_map["acc"][0].__lowered_source__
    assert source.startswith("def _lowered(")
    assert "return" in source


def test_constant_fold_produces_single_object():
    # (2.0 + 3.0) folds at generation time: the same float object is
    # returned every instant, like the plan compiler's folded Const.
    trace = simulate(
        _rich_model(), _scenario(), backend="lowered", strict=False
    )
    values = [v for v in trace.flows["folded"].values if v is not ABSENT]
    assert values == [u * 5.0 for u in trace.flows["u"].values]


def test_multi_definition_targets():
    model = ProcessModel("low_multi")
    model.input("u", REAL)
    model.input("gate", BOOLEAN)
    model.output("m", REAL)
    model.define("m", b.when(b.ref("u"), b.ref("gate")))
    model.define("m", b.when(-b.ref("u"), b.func("not", b.ref("gate"))))
    scenario = _scenario()
    reference = CompiledBackend(model, strict=False).run(scenario)
    candidate = LoweredBackend(model, strict=False).run(scenario)
    _assert_identical(reference, candidate)


def test_user_registered_operator():
    register_stepwise_operation("low_unit_clamp", lambda a: min(a, 4.0))
    model = ProcessModel("low_userop")
    model.input("u", REAL)
    model.output("c", REAL)
    model.define("c", b.func("low_unit_clamp", b.ref("u")))
    scenario = _scenario()
    reference = CompiledBackend(model, strict=False).run(scenario)
    candidate = LoweredBackend(model, strict=False).run(scenario)
    _assert_identical(reference, candidate)


def test_clock_violation_warning_parity():
    model = _violation_model()
    scenario = _scenario()
    reference = CompiledBackend(model, strict=False).run(scenario)
    candidate = LoweredBackend(model, strict=False).run(scenario)
    assert reference.warnings, "expected clock-violation warnings"
    _assert_identical(reference, candidate)


def test_clock_violation_strict_parity():
    model = _violation_model()
    scenario = _scenario()
    with pytest.raises(ClockViolation) as expected:
        CompiledBackend(model, strict=True).run(scenario)
    with pytest.raises(ClockViolation) as actual:
        LoweredBackend(model, strict=True).run(scenario)
    assert str(actual.value) == str(expected.value)


def test_state_mismatch_degrades_to_interpreter(monkeypatch):
    # Force the consistency guard to fire: the whole lowering is dropped
    # with a RuntimeWarning and the plan keeps its closures.
    monkeypatch.setattr(lowered_module, "_count_state_slots", lambda expr: 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = compile_lowered(_rich_model())
    assert any(
        lowered_module.STATE_MISMATCH_MESSAGE in str(w.message) for w in caught
    )
    assert plan.lowered_targets == 0
    scenario = _scenario()
    reference = CompiledBackend(_rich_model(), strict=False).run(scenario)
    _assert_identical(reference, plan.run(scenario, strict=False))


def test_pickle_roundtrip():
    backend = LoweredBackend(_rich_model(), strict=False)
    clone = pickle.loads(pickle.dumps(backend))
    scenario = _scenario()
    _assert_identical(backend.run(scenario), clone.run(scenario))


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_vectorized_lowered_residue_option():
    model = _rich_model()
    vectorized = VectorizedBackend(
        model, strict=False, block_size=7, lowered_residue=True
    )
    stats = vectorized.vector_plan.statistics()
    assert stats.lowered == stats.residual
    scenario = _scenario()
    reference = CompiledBackend(model, strict=False).run(scenario)
    _assert_identical(reference, vectorized.run(scenario))
    clone = pickle.loads(pickle.dumps(vectorized))
    assert clone.lowered_residue is True
    _assert_identical(reference, clone.run(scenario))
