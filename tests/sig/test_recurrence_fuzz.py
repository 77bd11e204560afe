"""Property-based fuzzing of the delay-recurrence scan kernels.

Hypothesis generates random recurrence shapes — affine accumulators
(``y = z + e``, ``y = z - e``) that take the prefix-scan path and
non-affine steps (``*``, ``min``, ``max``) that take the generated scalar
loop — with random initial values, random input presence patterns, random
block sizes, and checks the vectorized backend against the compiled plan: identical flows (values and
Python value types) and warnings whatever the partitioning.

The sampled shapes ``y := (z ⊕ e) when ^c`` (the scheduler's thread-event
counters) are checked against the ``reference`` interpreter, in strict and
non-strict mode, with ``c`` drawn to disagree with the pair's ``^=`` group
at some instants — present where the group is absent, and the reverse.
Such blocks must fall back and reproduce the reference bit for bit:
trace, value types, warnings, and the raised error.  Skips cleanly when
hypothesis is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sig import builder as b
from repro.sig.engine import VectorizedBackend
from repro.sig.engine.backends import CompiledBackend, ReferenceBackend
from repro.sig.process import ProcessModel
from repro.sig.simulator import Scenario
from repro.sig.values import ABSENT, EVENT, INTEGER, REAL

_LENGTH = 24

_VALUES = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: (operator, z on the left?) — '+'/'-' exercise the affine prefix scan,
#: the rest exercise the generated scalar step loop.
_SHAPES = [
    ("+", True),
    ("+", False),
    ("-", True),
    ("*", True),
    ("min", True),
    ("max", False),
]


def _build_model(shapes, constants):
    """One independent recurrence pair per requested shape."""
    model = ProcessModel("rec_fuzz")
    for index, ((op, z_left), constant) in enumerate(zip(shapes, constants)):
        u, z, y = f"u{index}", f"z{index}", f"y{index}"
        model.input(u, REAL)
        model.local(z, REAL)
        model.output(y, REAL)
        model.define(z, b.delay(b.ref(y), init=constant))
        step = b.ref(u) if index % 2 else b.const(constant)
        args = (b.ref(z), step) if z_left else (step, b.ref(z))
        model.define(y, b.func(op, *args))
        model.synchronise(y, u)
        model.synchronise(z, u)
    return model


@st.composite
def _cases(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    shapes = [draw(st.sampled_from(_SHAPES)) for _ in range(count)]
    constants = [draw(_VALUES) for _ in range(count)]
    presence = []
    for _ in range(count):
        period = draw(st.integers(min_value=1, max_value=4))
        phase = draw(st.integers(min_value=0, max_value=period - 1))
        presence.append((period, phase))
    values = draw(
        st.lists(_VALUES, min_size=count * _LENGTH, max_size=count * _LENGTH)
    )
    return shapes, constants, presence, values


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    case=_cases(),
    block_size=st.integers(min_value=1, max_value=_LENGTH + 3),
)
def test_recurrence_scans_match_compiled(case, block_size):
    shapes, constants, presence, values = case
    model = _build_model(shapes, constants)
    scenario = Scenario(_LENGTH)
    for index, (period, phase) in enumerate(presence):
        scenario.inputs[f"u{index}"] = [
            values[index * _LENGTH + i] if i % period == phase % period else ABSENT
            for i in range(_LENGTH)
        ]

    reference = CompiledBackend(model, strict=False).run(scenario)
    vectorized = VectorizedBackend(model, strict=False, block_size=block_size)
    trace = vectorized.run(scenario)

    assert trace.length == reference.length
    assert set(trace.flows) == set(reference.flows)
    for signal in reference.flows:
        assert trace.flows[signal] == reference.flows[signal], (
            f"{signal!r} diverges (block_size={block_size})"
        )
        for expected, actual in zip(
            reference.flows[signal].values, trace.flows[signal].values
        ):
            assert type(expected) is type(actual), signal
    assert trace.warnings == reference.warnings


#: Sampled steps ``(z ⊕ e) when ^c``: (operator, step operand, counter
#: type).  ``"u"`` reads a group-clocked input; a constant keeps the step
#: unary, and the int ``+ 1`` is the scheduler's counter.
_SAMPLED_SHAPES = [
    ("+", 1, INTEGER),
    ("+", 0.5, REAL),
    ("+", "u", REAL),
    ("-", "u", REAL),
    ("*", "u", REAL),
    ("max", 2.0, REAL),
]


def _build_sampled_model(shapes, c_is_mask):
    """One sampled recurrence per shape.  With *c_is_mask* the sampling
    clock ``c`` is the pair's ``^=`` group source (the library's counter);
    otherwise the group is clocked by a separate input ``g``."""
    model = ProcessModel("sampled_rec_fuzz")
    for index, (op, operand, kind) in enumerate(shapes):
        c, g, u = f"c{index}", f"g{index}", f"u{index}"
        z, y = f"z{index}", f"y{index}"
        model.input(c, EVENT)
        model.input(g, EVENT)
        model.input(u, REAL)
        model.local(z, kind)
        model.output(y, kind)
        init = -1 if kind is INTEGER else 1.5
        model.define(z, b.delay(b.ref(y), init=init))
        step = b.ref(u) if operand == "u" else b.const(operand)
        model.define(y, b.func(op, b.ref(z), step).when(b.clock(c)))
        group = c if c_is_mask else g
        model.synchronise(y, group)
        model.synchronise(z, group)
        if operand == "u":
            model.synchronise(u, group)
    return model


@st.composite
def _sampled_cases(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    shapes = [draw(st.sampled_from(_SAMPLED_SHAPES)) for _ in range(count)]
    patterns = []
    for _ in range(count):
        period = draw(st.integers(min_value=1, max_value=3))
        phase = draw(st.integers(min_value=0, max_value=period - 1))
        group = [i % period == phase for i in range(_LENGTH)]
        # Instants where ``c`` disagrees with the group clock: present
        # where the group is absent, or absent where it is present.
        flips = draw(st.sets(st.integers(0, _LENGTH - 1), max_size=2))
        sample = [present != (i in flips) for i, present in enumerate(group)]
        patterns.append((group, sample))
    values = draw(st.lists(_VALUES, min_size=count * _LENGTH, max_size=count * _LENGTH))
    return shapes, patterns, values


def _sampled_scenario(patterns, values, c_is_mask):
    scenario = Scenario(_LENGTH)
    for index, (group, sample) in enumerate(patterns):
        clock = sample if c_is_mask else group
        scenario.inputs[f"c{index}"] = [True if p else ABSENT for p in sample]
        scenario.inputs[f"g{index}"] = [True if p else ABSENT for p in group]
        scenario.inputs[f"u{index}"] = [
            values[index * _LENGTH + i] if p else ABSENT for i, p in enumerate(clock)
        ]
    return scenario


def _outcome(backend, scenario):
    """A run's trace, or the type and message of the error it raised."""
    try:
        return backend.run(scenario), None
    except Exception as error:  # compared with the reference's, verbatim
        return None, (type(error).__name__, str(error))


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    case=_sampled_cases(),
    c_is_mask=st.booleans(),
    strict=st.booleans(),
    block_size=st.integers(min_value=1, max_value=_LENGTH + 3),
)
def test_sampled_recurrences_match_reference(case, c_is_mask, strict, block_size):
    shapes, patterns, values = case
    model = _build_sampled_model(shapes, c_is_mask)
    scenario = _sampled_scenario(patterns, values, c_is_mask)

    vectorized = VectorizedBackend(model, strict=strict, block_size=block_size)
    assert vectorized.vector_plan.statistics().recurrence == 2 * len(shapes)
    expected, expected_error = _outcome(ReferenceBackend(model, strict=strict), scenario)
    trace, error = _outcome(vectorized, scenario)

    assert error == expected_error
    if c_is_mask or all(group == sample for group, sample in patterns):
        assert vectorized.vector_plan.fallback_blocks == 0
    if expected is None:
        return
    assert trace.flows == expected.flows
    for signal in expected.flows:
        for want, got in zip(expected.flows[signal].values, trace.flows[signal].values):
            assert type(want) is type(got), signal
    assert trace.warnings == expected.warnings


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("flip", [1, 2], ids=["c-without-group", "group-without-c"])
def test_sampling_clock_disagreement_falls_back(strict, flip):
    """Instant 1 has the group absent and instant 2 has it present; ``c``
    flips one of them, and only the block holding it falls back.  (The
    reference warns, or raises when strict, only where the group presumes
    the counter present and ``c`` is absent.)"""
    model = _build_sampled_model([("+", 1, INTEGER)], c_is_mask=False)
    group = [i % 2 == 0 for i in range(_LENGTH)]
    sample = [present != (i == flip) for i, present in enumerate(group)]
    scenario = _sampled_scenario([(group, sample)], [0.0] * _LENGTH, False)

    vectorized = VectorizedBackend(model, strict=strict, block_size=4)
    expected, expected_error = _outcome(ReferenceBackend(model, strict=strict), scenario)
    trace, error = _outcome(vectorized, scenario)
    assert error == expected_error
    plan = vectorized.vector_plan
    assert plan.fallback_blocks == 1
    assert any("recurrence clock mismatch" in reason for reason in plan.fallback_reasons)
    if expected_error is None:
        assert trace.warnings == expected.warnings
        assert trace.flows == expected.flows
        assert plan.vector_blocks == _LENGTH // 4 - 1
