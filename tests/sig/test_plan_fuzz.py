"""Differential fuzzing of the compiled plan against the reference interpreter
(skips without hypothesis).

Hypothesis draws small random equation systems — every expression node kind,
nested; 1-, 2- and 3-ary pure operators, a user-registered operator resolved
at application time and an impure one that counts its calls; delays of depth
1 and 2, cells and shared-variable reads; multiply-defined targets and
``^=`` groups; an undeclared name that the scenario may drive — plus input
flows that make operands disagree.  Leaves mostly read the inputs and the
targets defined before, so most systems resolve and reach their operators
rather than end in an instantaneous cycle.  The property: the compiled plan's
generated evaluators give the reference's traces (values and Python value
types) and warnings, or raise the same error with the same message, in
strict and non-strict mode, and with the nesting bound past which a subtree
gets its own generated evaluator lowered so that small trees cross it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.sig import builder as b
from repro.sig.engine import CompiledBackend, ReferenceBackend, plan
from repro.sig.expressions import STEPWISE_OPERATIONS
from repro.sig.process import ProcessModel
from repro.sig.scenario import Scenario
from repro.sig.values import ABSENT, BOOLEAN, INTEGER

_LENGTH = 8
_INPUTS = ("a", "b", "c")
_TARGETS = ("t0", "t1", "t2", "t3")
#: Referenced by equations but never declared.
_GHOST = "g"

#: Calls of the impure operator in the current run: its results expose any
#: difference in how often, or in which order, operators are applied.
_calls = [0]


def _count(*args):
    _calls[0] += 1
    return _calls[0]


def _sum3(x, y, z):
    return x + y + z


@pytest.fixture(scope="module", autouse=True)
def user_operators():
    STEPWISE_OPERATIONS["fuzz_count"] = _count
    STEPWISE_OPERATIONS["fuzz_sum3"] = _sum3
    yield
    del STEPWISE_OPERATIONS["fuzz_count"]
    del STEPWISE_OPERATIONS["fuzz_sum3"]


_values = st.one_of(st.integers(min_value=-2, max_value=3), st.booleans())


def _names(k):
    """Names target *k* reads: mostly inputs and targets defined before it,
    now and then anything (a later target, itself, the undeclared name), so
    most draws resolve and reach the operators instead of ending in an
    instantaneous cycle."""
    inputs = st.sampled_from(_INPUTS)
    return st.one_of(
        inputs,
        inputs,
        inputs,
        st.sampled_from(_INPUTS + _TARGETS[:k]),
        st.sampled_from(_INPUTS + _TARGETS + (_GHOST,)),
    )


def _nodes(children):
    unary = st.sampled_from(["neg", "not", "abs", "fuzz_count"])
    binary = st.sampled_from(["+", "-", "*", "/", "<", "=", "and", "or", "min", "fuzz_count"])
    ternary = st.sampled_from(["min", "max", "fuzz_sum3"])
    inits = st.one_of(_values, st.none())
    return st.one_of(
        st.builds(b.func, unary, children),
        st.builds(b.func, binary, children, children),
        st.builds(b.func, ternary, children, children, children),
        st.builds(b.delay, children, init=inits, depth=st.sampled_from([1, 2])),
        st.builds(b.when, children, children),
        # An operator under a nested edge (a ``when`` operand, a
        # ``default`` right side): once the nesting bound is lowered, its
        # clock violations are reported from a generated sub-evaluator.
        st.builds(b.when, st.builds(b.func, binary, children, children), children),
        st.builds(b.default, children, st.builds(b.func, binary, children, children)),
        st.builds(b.when_clock, children),
        st.builds(b.default, children, children),
        st.builds(b.cell, children, children, init=inits),
        st.builds(b.clock, children),
        st.builds(b.clock_union, children, children),
        st.builds(b.clock_intersection, children, children),
        st.builds(b.clock_difference, children, children),
    )


def _expressions(k):
    """Expressions for target *k*'s definitions."""
    names = _names(k)
    leaves = st.one_of(
        names.map(b.ref),
        names.map(b.ref),
        names.map(b.var),
        st.one_of(_values, st.none()).map(b.const),
    )
    return st.recursive(leaves, _nodes, max_leaves=7)


_EXPRESSIONS = tuple(_expressions(k) for k in range(len(_TARGETS)))


@st.composite
def _systems(draw):
    model = ProcessModel("fuzz")
    model.input("a", INTEGER)
    model.input("b", INTEGER)
    model.input("c", BOOLEAN)
    for name in _TARGETS:
        if draw(st.booleans()):
            model.output(name, INTEGER)
        else:
            model.local(name, INTEGER)
    for k, name in enumerate(
        _TARGETS[: draw(st.integers(min_value=1, max_value=len(_TARGETS)))]
    ):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            # A multiply-defined target: partial definitions.
            for _ in range(draw(st.integers(min_value=2, max_value=3))):
                model.define_partial(name, draw(_EXPRESSIONS[k]))
        else:
            model.define(name, draw(_EXPRESSIONS[k]))
    # ``^=`` groups, most tying a target to another signal: presumed
    # statuses only arise through them.
    everything = _INPUTS + _TARGETS + (_GHOST,)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        first = draw(st.sampled_from(_TARGETS + (_GHOST,)))
        rest = draw(st.lists(st.sampled_from(everything), min_size=1, max_size=2, unique=True))
        group = [first] + [name for name in rest if name != first]
        if len(group) > 1:
            model.synchronise(*group)
    return model


@st.composite
def _scenarios(draw):
    scenario = Scenario(_LENGTH)
    flows = st.lists(st.one_of(_values, st.just(ABSENT)), min_size=_LENGTH, max_size=_LENGTH)
    for name in _INPUTS + (_GHOST,):
        kind = draw(st.sampled_from(["flow", "always", "periodic", "silent"]))
        if kind == "flow":
            scenario.set_flow(name, draw(flows))
        elif kind == "always":
            scenario.set_always(name, draw(_values))
        elif kind == "periodic":
            period = draw(st.integers(min_value=1, max_value=3))
            scenario.set_periodic(name, period, value=draw(_values))
    return scenario


def _outcome(backend, scenario):
    _calls[0] = 0
    try:
        trace = backend.run(scenario)
    except Exception as error:  # noqa: BLE001 - compared across backends
        return type(error).__name__, str(error), _calls[0]
    return (
        {name: flow.values for name, flow in trace.flows.items()},
        {name: [type(v).__name__ for v in flow.values] for name, flow in trace.flows.items()},
        trace.warnings,
        _calls[0],
    )


@settings(max_examples=1000, deadline=None)
@given(
    model=_systems(),
    scenario=_scenarios(),
    strict=st.booleans(),
    nesting=st.sampled_from([plan._MAX_NESTING, 0, 1]),
)
def test_compiled_plan_matches_reference(model, scenario, strict, nesting):
    expected = _outcome(ReferenceBackend(model, strict=strict), scenario)
    default, plan._MAX_NESTING = plan._MAX_NESTING, nesting
    try:
        compiled = CompiledBackend(model, strict=strict)
    finally:
        plan._MAX_NESTING = default
    assert _outcome(compiled, scenario) == expected
