"""Property-based fuzz: symbolic scenarios equal their materialised twins.

Hypothesis composes random rule programs — periodic, constant, sparse
(optionally overlaid on a base rule), explicit and generator rules — and
asserts that simulating the symbolic scenario is trace-identical (values,
Python value types, warnings) to simulating its eagerly materialised
:class:`~repro.sig.scenario.ExplicitRule` equivalent, across random block
sizes and all three backends.  Skips cleanly when ``hypothesis`` is not
installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sig import builder as b
from repro.sig.engine import VectorizedBackend, create_backend, simulate
from repro.sig.process import ProcessModel
from repro.sig.scenario import Scenario
from repro.sig.values import BOOLEAN, INTEGER, REAL

# The rule/scenario generators live in a shared module so the sweep layer's
# RandomSpace tests fuzz the exact same rule shapes (tests/sig/scenario_strategies.py).
from tests.sig.scenario_strategies import RULE_LENGTH as _LENGTH
from tests.sig.scenario_strategies import scenarios as _scenarios

_BACKENDS = ["reference", "compiled", "vectorized"]


def _model():
    """Numeric pipeline with sampling, merge, state and a boolean gate —
    enough structure to populate the vectorized pre/post strata as well as
    the residual sweep."""
    model = ProcessModel("fuzz_symbolic")
    model.input("u", REAL)
    model.input("v", REAL)
    model.input("gate", BOOLEAN)
    model.output("y", REAL)
    model.define("y", b.ref("u") * 2.0 + b.default(b.ref("v"), 0.5))
    model.output("picked", REAL)
    model.define("picked", b.when(b.ref("y"), b.ref("gate")))
    model.local("zacc", REAL)
    model.output("acc", REAL)
    model.define("zacc", b.delay(b.ref("acc"), init=0.0))
    model.define("acc", b.ref("zacc") + b.ref("u"))
    model.synchronise("acc", "u")
    model.synchronise("zacc", "u")
    model.output("count", INTEGER)
    model.local("zcount", INTEGER)
    model.define("zcount", b.delay(b.ref("count"), init=0))
    model.define("count", b.when(b.func("+", b.ref("zcount"), 1), b.clock("u")))
    model.synchronise("count", "u")
    return model


_MODEL = _model()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    scenario=_scenarios(),
    block_size=st.sampled_from([1, 2, 3, 7, 16, 64]),
    backend=st.sampled_from(_BACKENDS),
)
def test_symbolic_equals_materialized(scenario, block_size, backend):
    """The property: rules and their eager expansion are indistinguishable."""
    eager = scenario.materialized()
    if backend == "vectorized":
        runner = VectorizedBackend(_MODEL, strict=False, block_size=block_size)
    else:
        runner = create_backend(_MODEL, backend, strict=False)
    symbolic_trace = runner.run(scenario)
    eager_trace = runner.run(eager)
    assert symbolic_trace.length == eager_trace.length
    assert set(symbolic_trace.flows) == set(eager_trace.flows)
    for name in eager_trace.flows:
        expected = eager_trace.flows[name].values
        actual = symbolic_trace.flows[name].values
        assert actual == expected, f"flow {name!r} diverges on {backend}"
        for left, right in zip(expected, actual):
            assert type(left) is type(right), (
                f"{name!r}: {right!r} is {type(right).__name__}, "
                f"expected {type(left).__name__}"
            )
    assert symbolic_trace.warnings == eager_trace.warnings


@settings(max_examples=20, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=48),
    backend=st.sampled_from(_BACKENDS),
)
def test_unbounded_scenario_consistent_across_horizons(length, backend):
    """An unbounded scenario truncated at any horizon equals the bounded
    scenario built at that horizon."""
    unbounded = (
        Scenario()
        .set_periodic("u", 3, phase=1, value=2.0)
        .set_always("gate", True)
        .set_at("v", {0: 1.0, 5: 2.0, 40: 3.0})
    )
    bounded = unbounded.materialized(length)
    a = simulate(_MODEL, unbounded, strict=False, backend=backend, length=length)
    c = simulate(_MODEL, bounded, strict=False, backend=backend)
    assert a.length == c.length == length
    for name in c.flows:
        assert a.flows[name] == c.flows[name]
