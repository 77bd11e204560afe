"""Process-parallel batch execution and execution-plan pickling.

The contract of ``simulate_batch(workers=N)`` is bit-identity with the
sequential run: same traces, same warnings, same errors, same ordering.
These tests pin that contract on a scheduled case-study model, for batches
with and without supervision knobs (every batch runs through the one
supervised executor), and cover the plan-pickling path the spawn-based
workers rely on.
"""

import pickle

import pytest

from repro.casestudies import load_case_study, scenario_sweep
from repro.core import TranslationConfig, translate_system
from repro.sig import builder as b
from repro.sig.engine import (
    BatchResult,
    ScenarioFault,
    batch_flow_summary,
    compile_plan,
    create_backend,
    default_scenario,
    simulate_batch,
)
from repro.sig.process import ProcessModel
from repro.sig.simulator import ClockViolation, InstantaneousCycle, Scenario, SimulationError
from repro.sig.sinks import MaterializeSink
from repro.sig.values import INTEGER


@pytest.fixture(scope="module")
def scheduled():
    entry = load_case_study("cruise_control")
    result = translate_system(entry.instantiate(), TranslationConfig(include_scheduler=True))
    schedule = next(iter(result.schedules.values()))
    length = min(schedule.simulation_length(2), 48)
    return result.system_model, length


def flows_of(trace):
    return {name: flow.values for name, flow in trace.flows.items()}


def batch_fingerprint(batch):
    return (
        [None if t is None else (flows_of(t), t.warnings) for t in batch.traces],
        [(i, type(e).__name__, str(e)) for i, e in batch.errors],
    )


class TestPlanPickling:
    def test_plan_round_trips_through_pickle(self, scheduled):
        system_model, length = scheduled
        plan = compile_plan(system_model)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.names == plan.names
        assert clone.slot_of == plan.slot_of
        assert clone.statistics() == plan.statistics()

    def test_unpickled_plan_runs_identically(self, scheduled):
        system_model, length = scheduled
        plan = compile_plan(system_model)
        clone = pickle.loads(pickle.dumps(plan))
        scenario = default_scenario(system_model, length)
        original = plan.run(scenario, strict=False)
        replayed = clone.run(scenario, strict=False)
        assert flows_of(replayed) == flows_of(original)
        assert replayed.warnings == original.warnings

    def test_backends_round_trip_through_pickle(self, scheduled):
        system_model, length = scheduled
        scenario = default_scenario(system_model, length)
        for backend in ("reference", "compiled"):
            runner = create_backend(system_model, backend=backend, strict=False)
            clone = pickle.loads(pickle.dumps(runner))
            assert flows_of(clone.run(scenario)) == flows_of(runner.run(scenario))

    def test_simulation_errors_survive_pickling(self):
        cycle = pickle.loads(pickle.dumps(InstantaneousCycle(3, ["b", "a"])))
        assert isinstance(cycle, InstantaneousCycle)
        assert cycle.instant == 3
        assert cycle.unresolved == ["b", "a"]
        assert "instant 3" in str(cycle)
        violation = pickle.loads(pickle.dumps(ClockViolation("boom")))
        assert str(violation) == "boom"


class TestWorkersParity:
    def test_workers_produce_bit_identical_traces(self, scheduled):
        system_model, length = scheduled
        scenarios = scenario_sweep(system_model, length=length, variants=16, seed=5)
        sequential = simulate_batch(system_model, scenarios, strict=False, workers=1)
        sharded = simulate_batch(system_model, scenarios, strict=False, workers=3)
        assert sharded.workers == 3
        assert batch_fingerprint(sharded) == batch_fingerprint(sequential)

    def test_workers_preserve_collected_error_ordering(self):
        """Scenarios that violate a clock constraint must surface as the same
        (index, error) pairs, in the same ascending order, on every worker
        count."""
        model = ProcessModel("sync_pair")
        model.input("a", INTEGER)
        model.input("b", INTEGER)
        model.output("s", INTEGER)
        model.define("s", b.func("+", b.ref("a"), b.ref("b")))

        scenarios = []
        for index in range(12):
            scenario = Scenario(8)
            scenario.set_always("a", 1)
            if index % 3 == 1:  # scenarios 1, 4, 7, 10 fail
                scenario.set_periodic("b", 2, value=2)
            else:
                scenario.set_always("b", 2)
            scenarios.append(scenario)

        sequential = simulate_batch(
            model, scenarios, strict=True, collect_errors=True, workers=1
        )
        sharded = simulate_batch(
            model, scenarios, strict=True, collect_errors=True, workers=4
        )
        assert [i for i, _ in sequential.errors] == [1, 4, 7, 10]
        assert batch_fingerprint(sharded) == batch_fingerprint(sequential)
        assert [t is None for t in sharded.traces] == [t is None for t in sequential.traces]

    def test_workers_raise_the_earliest_error_without_collect(self):
        model = ProcessModel("sync_pair")
        model.input("a", INTEGER)
        model.input("b", INTEGER)
        model.output("s", INTEGER)
        model.define("s", b.func("+", b.ref("a"), b.ref("b")))

        scenarios = []
        for index in range(8):
            scenario = Scenario(6)
            scenario.set_always("a", 1)
            if index in (3, 5):
                scenario.set_periodic("b", 3, value=2)
            else:
                scenario.set_always("b", 2)
            scenarios.append(scenario)

        with pytest.raises(SimulationError) as sequential_error:
            simulate_batch(model, scenarios, strict=True, workers=1)
        with pytest.raises(SimulationError) as sharded_error:
            simulate_batch(model, scenarios, strict=True, workers=3)
        assert str(sharded_error.value) == str(sequential_error.value)
        assert type(sharded_error.value) is type(sequential_error.value)

    def test_workers_zero_means_one_per_core(self, scheduled):
        system_model, length = scheduled
        scenarios = scenario_sweep(system_model, length=min(length, 16), variants=2, seed=9)
        batch = simulate_batch(system_model, scenarios, strict=False, workers=0)
        assert batch.workers >= 1
        assert len(batch.traces) == 2

    def test_prepared_runner_batch_workers(self, scheduled):
        system_model, length = scheduled
        scenarios = scenario_sweep(system_model, length=min(length, 24), variants=6, seed=11)
        runner = create_backend(system_model, strict=False)
        sequential = simulate_batch(system_model, scenarios, runner=runner).traces
        sharded = simulate_batch(system_model, scenarios, workers=2, runner=runner).traces
        assert [flows_of(t) for t in sharded] == [flows_of(t) for t in sequential]


def _materialize_factory(index):
    return MaterializeSink()


def _sync_pair_model():
    model = ProcessModel("sync_pair")
    model.input("a", INTEGER)
    model.input("b", INTEGER)
    model.output("s", INTEGER)
    model.define("s", b.func("+", b.ref("a"), b.ref("b")))
    return model


def _sync_pair_scenarios(count, failing):
    scenarios = []
    for index in range(count):
        scenario = Scenario(6)
        scenario.set_always("a", index)
        if index in failing:
            scenario.set_periodic("b", 3, value=2)  # a ^= b violated
        else:
            scenario.set_always("b", 2)
        scenarios.append(scenario)
    return scenarios


@pytest.mark.parametrize("workers", [1, 2])
class TestBatchesWithoutKnobs:
    """A batch that sets no supervision knob runs through the supervised
    executor with its defaults, in process at ``workers=1`` and on the
    supervised pool at ``workers=2``."""

    def test_materialised_traces_match_per_scenario_runs(self, scheduled, workers):
        system_model, length = scheduled
        scenarios = scenario_sweep(system_model, length=min(length, 24), variants=5, seed=13)
        runner = create_backend(system_model, strict=False)
        expected = [runner.run(scenario) for scenario in scenarios]
        batch = simulate_batch(system_model, scenarios, workers=workers, runner=runner)
        assert batch.ok and batch.workers == workers
        assert [(flows_of(t), t.length, t.warnings) for t in batch.traces] == [
            (flows_of(t), t.length, t.warnings) for t in expected
        ]
        assert batch.sink_results == []

    def test_sink_factory_results_match_per_scenario_runs(self, scheduled, workers):
        system_model, length = scheduled
        scenarios = scenario_sweep(system_model, length=min(length, 24), variants=5, seed=17)
        runner = create_backend(system_model, strict=False)
        expected = [runner.run(scenario) for scenario in scenarios]
        batch = simulate_batch(
            system_model, scenarios, workers=workers, runner=runner,
            sink_factory=_materialize_factory,
        )
        assert batch.ok and batch.traces == [None] * len(scenarios)
        assert [(flows_of(t), t.length, t.warnings) for t in batch.sink_results] == [
            (flows_of(t), t.length, t.warnings) for t in expected
        ]

    @pytest.mark.parametrize("factory", [None, _materialize_factory])
    def test_earliest_error_is_raised_without_collect(self, workers, factory):
        model = _sync_pair_model()
        scenarios = _sync_pair_scenarios(8, failing={3, 5})
        runner = create_backend(model, strict=True)
        with pytest.raises(SimulationError) as per_scenario:
            for scenario in scenarios:
                runner.run(scenario)
        with pytest.raises(SimulationError) as batched:
            simulate_batch(
                model, scenarios, workers=workers, runner=runner, sink_factory=factory
            )
        assert type(batched.value) is type(per_scenario.value)
        assert str(batched.value) == str(per_scenario.value)

    @pytest.mark.parametrize("factory", [None, _materialize_factory])
    def test_collected_errors_keep_index_order(self, workers, factory):
        model = _sync_pair_model()
        scenarios = _sync_pair_scenarios(8, failing={3, 5})
        batch = simulate_batch(
            model, scenarios, workers=workers, collect_errors=True, sink_factory=factory
        )
        assert [index for index, _ in batch.errors] == [3, 5]
        assert not batch.faults
        products = batch.sink_results if factory is not None else batch.traces
        assert [product is None for product in products] == [
            index in (3, 5) for index in range(8)
        ]

    def test_other_exceptions_become_error_faults(self, workers):
        """An exception that is not a SimulationError does not propagate
        out of a batch without knobs: after the default retries it is
        reported as a ``kind="error"`` fault, and the other scenarios
        still succeed.  The model uses core operators only, so spawned
        workers rebuild it without any test-registered operation."""
        model = ProcessModel("poisoned")
        model.input("x", INTEGER)
        model.output("y", INTEGER)
        model.define("y", b.func("/", b.const(12), b.ref("x")))
        scenarios = []
        for index in range(4):
            scenario = Scenario(5)
            scenario.set_always("x", 0 if index == 2 else index + 1)
            scenarios.append(scenario)
        batch = simulate_batch(model, scenarios, workers=workers)
        assert not batch.errors
        assert [fault.scenario for fault in batch.faults] == [2]
        fault = batch.faults[0]
        assert isinstance(fault, ScenarioFault)
        assert fault.kind == "error"
        assert fault.attempts == 3  # the first attempt plus two default retries
        assert "ZeroDivisionError" in fault.message
        assert batch.traces[2] is None
        for index in (0, 1, 3):
            assert batch.traces[index].present_values("y") == [12 // (index + 1)] * 5


class TestBatchFlowSummary:
    def test_all_failed_batch_is_distinguishable_from_all_absent_signal(self):
        # An all-failed batch: every trace is None.
        failed = BatchResult(backend="compiled", traces=[None, None])
        summary = batch_flow_summary(failed, "sig")
        assert summary["per_scenario"] == [None, None]
        assert summary["total"] == 0
        assert summary["min"] is None
        assert summary["max"] is None

        # An all-absent signal in successful traces reports 0, not None.
        model = ProcessModel("quiet")
        model.input("x", INTEGER)
        model.output("y", INTEGER)
        model.define("y", b.ref("x"))
        empty = Scenario(4)  # x never present -> y never present
        batch = simulate_batch(model, [empty, empty], strict=False, collect_errors=True)
        summary = batch_flow_summary(batch, "y")
        assert summary["per_scenario"] == [0, 0]
        assert summary["min"] == 0
        assert summary["max"] == 0

    def test_mixed_batch_ignores_failed_scenarios(self, scheduled):
        system_model, length = scheduled
        good = default_scenario(system_model, min(length, 12))
        batch = simulate_batch(system_model, [good], strict=False, collect_errors=True)
        batch.traces.append(None)  # simulate one failed scenario
        signal = next(iter(batch.traces[0].flows))
        summary = batch_flow_summary(batch, signal)
        assert summary["per_scenario"][1] is None
        assert summary["min"] is not None
