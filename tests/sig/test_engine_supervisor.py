"""Fault-tolerant supervised batch execution.

The supervisor's contract: scenarios that crash, hang, or blow a budget
surface as structured ``ScenarioFault`` entries — never as a hang or a
poisoned batch — while every surviving scenario's trace stays bit-identical
to a serial run.  These tests drive it with *real* misbehaving user
operations (``os._exit``, an infinite loop) and with the deterministic
fault-injection harness, on both the pooled and the in-process degraded
paths.
"""

import os
import sys
import time

import pytest

from repro.sig import builder as b
from repro.sig.engine import (
    FaultPlan,
    FaultSpec,
    ScenarioBudget,
    default_worker_count,
    simulate_batch,
)
from repro.sig.engine.faults import CRASH_EXIT_CODE, fire_fault
from repro.sig.engine.supervisor import (
    BudgetExceeded,
    ExecutionGuard,
    ScenarioTimeout,
    current_guard,
    guarded,
)
from repro.sig.expressions import register_stepwise_operation
from repro.sig.process import ProcessModel
from repro.sig.scenario import Scenario
from repro.sig.simulator import SimulationError
from repro.sig.sinks import StatisticsSink
from repro.sig.values import INTEGER

#: Input value at which the poisoned user operations misbehave.
POISON = 1000

fork_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="real-crash tests rely on fork-inherited user operations",
)


def _exit_on_poison(value):
    if value >= POISON:
        os._exit(1)  # a segfaulting/OOM-killed user op, as the parent sees it
    return value + 1


def _spin_on_poison(value):
    if value >= POISON:
        while True:  # an infinite loop in a user operation
            pass
    return value + 1


register_stepwise_operation("sup_exit_on_poison", _exit_on_poison)
register_stepwise_operation("sup_spin_on_poison", _spin_on_poison)
register_stepwise_operation("sup_increment", lambda value: value + 1)


def _make_model(op="sup_increment"):
    model = ProcessModel(f"supervised_{op}")
    model.input("x", INTEGER)
    model.output("y", INTEGER)
    model.define("y", b.func(op, b.ref("x")))
    return model


def _make_scenarios(count, length=24, poison=()):
    scenarios = []
    for index in range(count):
        scenario = Scenario(length)
        scenario.set_always("x", POISON if index in poison else index)
        scenarios.append(scenario)
    return scenarios


def _flows(trace):
    return {name: flow.values for name, flow in trace.flows.items()}


def _stats_factory(index):
    return StatisticsSink()


class TestRealWorkerDeath:
    @fork_only
    def test_os_exit_in_user_op_becomes_crash_fault(self):
        model = _make_model("sup_exit_on_poison")
        scenarios = _make_scenarios(8, poison={3})
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=2,
            timeout=30.0, retries=1, backoff=0.001, collect_errors=True,
        )
        assert [f.scenario for f in batch.faults] == [3]
        fault = batch.faults[0]
        assert fault.kind == "crash"
        assert fault.attempts == 2  # first try + one retry, both fatal
        assert fault.worker is not None
        assert "exit code 1" in fault.message
        assert batch.traces[3] is None
        assert not batch.errors

        survivors = [i for i in range(8) if i != 3]
        serial = simulate_batch(
            model, [scenarios[i] for i in survivors], backend="compiled", workers=1,
        )
        for slot, index in enumerate(survivors):
            assert _flows(batch.traces[index]) == _flows(serial.traces[slot])

    @fork_only
    def test_infinite_loop_in_user_op_becomes_timeout_fault_not_a_hang(self):
        model = _make_model("sup_spin_on_poison")
        scenarios = _make_scenarios(6, poison={1})
        started = time.monotonic()
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=2,
            timeout=1.0, retries=0, collect_errors=True,
        )
        elapsed = time.monotonic() - started
        assert elapsed < 30.0  # bounded, not a hang
        assert [f.scenario for f in batch.faults] == [1]
        assert batch.faults[0].kind == "timeout"
        survivors = [i for i in range(6) if i != 1]
        serial = simulate_batch(
            model, [scenarios[i] for i in survivors], backend="compiled", workers=1,
        )
        for slot, index in enumerate(survivors):
            assert _flows(batch.traces[index]) == _flows(serial.traces[slot])

    @fork_only
    def test_injected_crash_exit_code_is_reported(self):
        model = _make_model()
        scenarios = _make_scenarios(4)
        plan = FaultPlan((FaultSpec("crash", 2, attempts=None),))
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=2,
            timeout=30.0, retries=1, backoff=0.001, fault_plan=plan,
        )
        assert [f.scenario for f in batch.faults] == [2]
        assert batch.faults[0].kind == "crash"
        assert str(CRASH_EXIT_CODE) in batch.faults[0].message


class TestRetriesAndCircuitBreaker:
    def test_transient_faults_recover_bit_identically(self):
        model = _make_model()
        scenarios = _make_scenarios(6)
        plan = FaultPlan(
            (
                FaultSpec("exception", 1, attempts=(0,)),
                FaultSpec("crash", 4, attempts=(0, 1)),
            )
        )
        serial = simulate_batch(model, scenarios, backend="compiled", workers=1)
        for workers in (1, 2):
            batch = simulate_batch(
                model, scenarios, backend="compiled", workers=workers,
                timeout=30.0, retries=2, backoff=0.001, fault_plan=plan,
            )
            assert batch.ok, batch.summary()
            assert not batch.faults
            for index in range(6):
                assert _flows(batch.traces[index]) == _flows(serial.traces[index])

    def test_exhausted_retries_fault_with_attempt_count(self):
        model = _make_model()
        scenarios = _make_scenarios(3)
        plan = FaultPlan((FaultSpec("exception", 0, attempts=None),))
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=1,
            retries=2, backoff=0.001, fault_plan=plan,
        )
        assert [f.scenario for f in batch.faults] == [0]
        fault = batch.faults[0]
        assert fault.kind == "error"
        assert fault.attempts == 3
        assert fault.traceback is not None and "FaultInjected" in fault.traceback

    def test_circuit_breaker_abandons_undecided_scenarios(self):
        model = _make_model()
        scenarios = _make_scenarios(6)
        plan = FaultPlan(
            tuple(FaultSpec("exception", i, attempts=None) for i in range(6))
        )
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=1,
            retries=3, backoff=0.001, max_failures=2, fault_plan=plan,
        )
        assert len(batch.faults) == 6
        abandoned = [f for f in batch.faults if "circuit breaker" in f.message]
        assert abandoned  # at least the tail was abandoned fast
        assert all(f.kind == "error" for f in batch.faults)

    def test_retries_zero_faults_on_first_failure(self):
        model = _make_model()
        scenarios = _make_scenarios(2)
        plan = FaultPlan((FaultSpec("exception", 1, attempts=(0,)),))
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=1,
            retries=0, fault_plan=plan,
        )
        assert [f.scenario for f in batch.faults] == [1]
        assert batch.faults[0].attempts == 1


class TestBudgets:
    def test_instant_budget_faults_long_scenarios(self):
        model = _make_model()
        scenarios = _make_scenarios(4, length=32)
        for backend in ("compiled", "reference", "vectorized"):
            batch = simulate_batch(
                model, scenarios, backend=backend, workers=1,
                scenario_budget=16, retries=0,
            )
            assert len(batch.faults) == 4
            assert all(f.kind == "budget" for f in batch.faults)

    def test_budget_within_bounds_is_inert(self):
        model = _make_model()
        scenarios = _make_scenarios(4, length=16)
        serial = simulate_batch(model, scenarios, backend="compiled", workers=1)
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=1,
            scenario_budget=ScenarioBudget(max_instants=16), retries=0,
        )
        assert batch.ok
        for index in range(4):
            assert _flows(batch.traces[index]) == _flows(serial.traces[index])

    @fork_only
    def test_pooled_budget_faults(self):
        model = _make_model()
        scenarios = _make_scenarios(6, length=64)
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=2,
            scenario_budget=32, retries=0, timeout=30.0,
        )
        assert len(batch.faults) == 6
        assert all(f.kind == "budget" for f in batch.faults)


class TestSemantics:
    def test_simulation_errors_keep_their_channel(self):
        """Model errors stay in BatchResult.errors (never retried, never
        faults), exactly as on the unsupervised path."""
        model = ProcessModel("sync_pair")
        model.input("a", INTEGER)
        model.input("b", INTEGER)
        model.output("s", INTEGER)
        model.define("s", b.func("+", b.ref("a"), b.ref("b")))
        scenarios = []
        for index in range(6):
            scenario = Scenario(8)
            scenario.set_always("a", 1)
            if index in (1, 4):
                scenario.set_periodic("b", 2, value=2)
            else:
                scenario.set_always("b", 2)
            scenarios.append(scenario)

        plain = simulate_batch(
            model, scenarios, strict=True, collect_errors=True, workers=1
        )
        for workers in (1, 2):
            supervised = simulate_batch(
                model, scenarios, strict=True, collect_errors=True,
                workers=workers, timeout=30.0, retries=2,
            )
            assert [i for i, _ in supervised.errors] == [1, 4]
            assert not supervised.faults
            assert [
                (i, type(e).__name__, str(e)) for i, e in supervised.errors
            ] == [(i, type(e).__name__, str(e)) for i, e in plain.errors]

    def test_earliest_simulation_error_raises_without_collect(self):
        model = ProcessModel("sync_pair")
        model.input("a", INTEGER)
        model.input("b", INTEGER)
        model.output("s", INTEGER)
        model.define("s", b.func("+", b.ref("a"), b.ref("b")))
        scenarios = []
        for index in range(6):
            scenario = Scenario(8)
            scenario.set_always("a", 1)
            if index in (2, 3):
                scenario.set_periodic("b", 2, value=2)
            else:
                scenario.set_always("b", 2)
            scenarios.append(scenario)
        with pytest.raises(SimulationError) as plain:
            simulate_batch(model, scenarios, strict=True, workers=1)
        for workers in (1, 2):
            with pytest.raises(SimulationError) as supervised:
                simulate_batch(
                    model, scenarios, strict=True, workers=workers,
                    timeout=30.0, retries=1,
                )
            assert str(supervised.value) == str(plain.value)

    def test_streaming_batches_fault_the_sink_results(self):
        model = _make_model()
        scenarios = _make_scenarios(5)
        plan = FaultPlan((FaultSpec("exception", 2, attempts=None),))
        for workers in (1, 2):
            batch = simulate_batch(
                model, scenarios, backend="compiled", workers=workers,
                sink_factory=_stats_factory, fault_plan=plan,
                retries=1, backoff=0.001, timeout=30.0,
            )
            assert [f.scenario for f in batch.faults] == [2]
            assert batch.sink_results[2] is None
            for index in (0, 1, 3, 4):
                assert batch.sink_results[index] is not None
                assert batch.sink_results[index].length == 24

    def test_slowdowns_are_stragglers_not_faults(self):
        model = _make_model()
        scenarios = _make_scenarios(4)
        plan = FaultPlan(
            (FaultSpec("slowdown", 1, attempts=None, delay=0.01),)
        )
        serial = simulate_batch(model, scenarios, backend="compiled", workers=1)
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=1,
            fault_plan=plan, retries=0,
        )
        assert batch.ok
        assert _flows(batch.traces[1]) == _flows(serial.traces[1])

    def test_fault_free_supervision_is_bit_identical_to_plain_pool(self):
        model = _make_model()
        scenarios = _make_scenarios(10)
        plain = simulate_batch(model, scenarios, backend="compiled", workers=2)
        supervised = simulate_batch(
            model, scenarios, backend="compiled", workers=2,
            timeout=30.0, retries=2,
        )
        assert supervised.ok and not supervised.faults
        for index in range(10):
            assert _flows(supervised.traces[index]) == _flows(plain.traces[index])

    def test_summary_mentions_faults(self):
        model = _make_model()
        scenarios = _make_scenarios(3)
        plan = FaultPlan((FaultSpec("exception", 0, attempts=None),))
        batch = simulate_batch(
            model, scenarios, backend="compiled", workers=1,
            retries=0, fault_plan=plan,
        )
        text = batch.summary()
        assert "1 faulted" in text
        assert "error fault" in text
        assert not batch.ok


class TestExecutionGuard:
    def test_guard_is_installed_only_inside_guarded(self):
        assert current_guard() is None
        with guarded(timeout=1.0) as guard:
            assert current_guard() is guard
            assert isinstance(guard, ExecutionGuard)
        assert current_guard() is None

    def test_guarded_without_knobs_installs_nothing(self):
        with guarded() as guard:
            assert guard is None
            assert current_guard() is None

    def test_instant_budget_is_exact(self):
        guard = ExecutionGuard(budget=ScenarioBudget(max_instants=10))
        for instant in range(10):
            guard.check(instant)
        with pytest.raises(BudgetExceeded):
            guard.check(10)

    def test_block_budget_rejects_crossing_blocks(self):
        guard = ExecutionGuard(budget=ScenarioBudget(max_instants=100))
        guard.check_block(0, 100)
        with pytest.raises(BudgetExceeded):
            guard.check_block(64, 64)

    def test_deadline_raises_timeout(self):
        guard = ExecutionGuard(timeout=0.0)
        time.sleep(0.01)
        with pytest.raises(ScenarioTimeout):
            guard.check_time()

    def test_in_process_hang_is_cancelled_by_the_deadline(self):
        spec = FaultSpec("hang", 0, attempts=None, delay=0.005)
        with guarded(timeout=0.05) as guard:
            with pytest.raises(ScenarioTimeout):
                fire_fault(spec, in_process=True, guard=guard)


class TestSatellites:
    def test_default_worker_count_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert default_worker_count() == 2

    def test_default_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_worker_count() == (os.cpu_count() or 1)


class TestSupervisionValues:
    """One check refuses values no batch can honour, whatever ``workers``."""

    BAD = (
        {"timeout": -1.0},
        {"timeout": 0.0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"workers": -5},
        {"workers": None},
        {"retries": -3},
        {"backoff": -1.0},
        {"backoff": float("nan")},
        {"max_failures": -1},
    )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("knobs", BAD)
    def test_simulate_batch_refuses_before_running(self, knobs, workers):
        [name] = knobs
        calls = []
        with pytest.raises(ValueError, match=name):
            simulate_batch(
                _make_model(), _make_scenarios(2), backend="compiled",
                sink_factory=lambda index: calls.append(index) or StatisticsSink(),
                **{"workers": workers, **knobs},
            )
        assert calls == []

    def test_run_sweep_refuses_before_touching_the_directory(self, tmp_path):
        from repro.sweep import GridSpace, run_sweep

        out = tmp_path / "sweep"
        space = GridSpace({"value": [1, 2]}, lambda value: _make_scenarios(1)[0])
        for knobs in self.BAD + ({"scenario_budget": -1},):
            with pytest.raises(ValueError):
                run_sweep(_make_model(), space, str(out), length=8, **knobs)
            assert not out.exists()

    def test_defaults_and_boundaries_pass(self):
        batch = simulate_batch(
            _make_model(), _make_scenarios(2), backend="compiled",
            workers=0, timeout=30, retries=0, backoff=0.0, max_failures=2,
            scenario_budget=0,
        )
        assert [fault.kind for fault in batch.faults] == ["budget", "budget"]


class TestScenarioBudgetFields:
    @pytest.mark.parametrize(
        "fields",
        [
            {"max_instants": "x"},
            {"max_instants": -1},
            {"max_instants": True},
            {"max_instants": 2.5},
            {"max_memory_mb": "big"},
            {"max_memory_mb": 0},
            {"max_memory_mb": -4.0},
            {"max_memory_mb": float("nan")},
            {"max_memory_mb": float("inf")},
        ],
    )
    def test_bad_fields_are_value_errors(self, fields):
        with pytest.raises(ValueError):
            ScenarioBudget(**fields)
        with pytest.raises(ValueError):
            ScenarioBudget.coerce(fields)

    def test_good_fields_pass(self):
        assert ScenarioBudget(0, 0.5) == ScenarioBudget.coerce(
            {"max_instants": 0, "max_memory_mb": 0.5}
        )


class TestFaultSpecFields:
    @pytest.mark.parametrize(
        "fields",
        [
            {"scenario": "0"},
            {"scenario": -1},
            {"scenario": True},
            {"scenario": 1.0},
            {"attempts": [0]},
            {"attempts": (-1,)},
            {"attempts": (True,)},
            {"attempts": ("first",)},
            {"delay": -1},
            {"delay": "x"},
            {"delay": True},
            {"delay": float("nan")},
            {"delay": float("inf")},
        ],
    )
    def test_bad_fields_are_value_errors(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            FaultSpec(**{"kind": "crash", "scenario": 0, **fields})

    def test_good_fields_pass(self):
        spec = FaultSpec("slowdown", 3, attempts=(0, 2), delay=0)
        assert spec.matches(3, 2) and not spec.matches(3, 1)
        assert FaultSpec("hang", 0, attempts=None, delay=0.5).persistent
