"""Property-based fuzzing of the delay-recurrence scan kernels.

Hypothesis generates random recurrence shapes — affine accumulators
(``y = z + e``, ``y = z - e``) that take the prefix-scan path and
non-affine steps (``*``, ``min``, ``max``) that take the generated scalar
loop — with random initial values, random input presence patterns, random
block sizes, and checks the vectorized backend against the compiled plan: identical flows (values and
Python value types) and warnings whatever the partitioning.  Skips cleanly
when hypothesis is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sig import builder as b
from repro.sig.engine import VectorizedBackend
from repro.sig.engine.backends import CompiledBackend
from repro.sig.process import ProcessModel
from repro.sig.simulator import Scenario
from repro.sig.values import ABSENT, REAL

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
