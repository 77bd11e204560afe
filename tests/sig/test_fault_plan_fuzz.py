"""Property-based fuzz of the supervised executor over random fault plans.

Hypothesis sweeps seeded :class:`~repro.sig.engine.faults.FaultPlan`
injections across batch sizes and worker counts and asserts the
supervisor's invariants hold for *every* plan: persistently-faulted
scenarios surface as typed ``ScenarioFault`` entries of exactly the
expected kind, transiently-faulted and untouched scenarios recover
bit-identically to a fault-free serial run, fault entries come back in
scenario order, and the batch never wedges or raises.  ``workers=1`` runs
the in-process degraded path; more workers run the pool, whose derived
chunks (``ceil(count / (4 * workers))`` scenarios) hold one scenario for
small batches and several for large ones.  Skips cleanly when
``hypothesis`` is not installed.
"""

import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sig import builder as b
from repro.sig.engine import FaultPlan, create_backend, simulate_batch
from repro.sig.engine.faults import EXPECTED_FAULT_KIND
from repro.sig.expressions import register_stepwise_operation
from repro.sig.process import ProcessModel
from repro.sig.scenario import Scenario
from repro.sig.values import INTEGER

_MAX_COUNT = 24
_LENGTH = 16

register_stepwise_operation("fuzz_fault_double", lambda value: value * 2)


def _model():
    model = ProcessModel("fault_fuzz")
    model.input("x", INTEGER)
    model.output("y", INTEGER)
    model.define("y", b.func("fuzz_fault_double", b.ref("x")))
    return model


def _scenarios(count=_MAX_COUNT):
    scenarios = []
    for index in range(count):
        scenario = Scenario(_LENGTH)
        scenario.set_periodic("x", 1 + index % 4, value=index)
        scenarios.append(scenario)
    return scenarios


@pytest.fixture(scope="module")
def prepared():
    model = _model()
    runner = create_backend(model, backend="compiled", strict=False)
    baseline = simulate_batch(model, _scenarios(), retries=0, runner=runner).traces
    assert all(trace is not None for trace in baseline)
    return model, runner, baseline


def _flows(trace):
    return {name: flow.values for name, flow in trace.flows.items()}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=2, max_value=_MAX_COUNT),
    # Pooled workers inherit the registered user operation through fork.
    workers=st.integers(
        min_value=1, max_value=3 if sys.platform.startswith("linux") else 1
    ),
    retries=st.integers(min_value=1, max_value=3),
)
def test_random_fault_plans_preserve_survivors(prepared, seed, count, workers, retries):
    model, runner, baseline = prepared
    plan = FaultPlan.seeded(
        seed,
        count,
        rate=0.4,
        max_attempt=min(2, retries),
        delay=0.001,
    )
    batch = simulate_batch(
        model,
        _scenarios(count),
        workers=workers,
        # Small: every injected hang waits this deadline out on every
        # attempt (cooperatively in process, until the kill in a pool), so
        # it bounds the fuzz's wall clock.
        timeout=0.5,
        retries=retries,
        backoff=0.0,
        fault_plan=plan,
        runner=runner,
    )
    traces, faults = batch.traces, batch.faults
    assert not batch.errors and not batch.sink_results
    assert batch.workers == min(workers, count)

    expected = plan.expected_faults()
    assert {fault.scenario: fault.kind for fault in faults} == expected
    assert [fault.scenario for fault in faults] == sorted(expected)
    for fault in faults:
        assert fault.kind in set(EXPECTED_FAULT_KIND.values())
        assert fault.attempts >= 1
        assert fault.summary()

    for index in range(count):
        if index in expected:
            assert traces[index] is None
        else:
            assert traces[index] is not None, (index, plan)
            assert _flows(traces[index]) == _flows(baseline[index])
