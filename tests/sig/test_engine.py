"""Tests of the execution-plan engine (plan lowering, backends, batching)."""

import pytest

from repro.sig import builder as b
from repro.sig.engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledBackend,
    ReferenceBackend,
    backend_names,
    compile_plan,
    create_backend,
    default_scenario,
    simulate,
    simulate_batch,
)
from repro.sig.engine.batch import batch_flow_summary
from repro.sig.process import ProcessModel
from repro.sig.simulator import (
    ClockViolation,
    InstantaneousCycle,
    NonDeterministicDefinition,
    Scenario,
    Simulator,
)
from repro.sig.values import ABSENT, BOOLEAN, INTEGER, is_absent


def scenario(length, **flows):
    sc = Scenario(length)
    for name, values in flows.items():
        sc.set_flow(name, values)
    return sc


def counter_model():
    """The self-referential state pattern: count := zcount + delta, count ^= tick."""
    model = ProcessModel("counter")
    model.input("tick")
    model.input("delta", INTEGER)
    model.output("count", INTEGER)
    model.local("zcount", INTEGER)
    model.define("zcount", b.delay(b.ref("count"), init=0))
    model.define("count", b.func("+", b.ref("zcount"), b.default(b.ref("delta"), 1)))
    model.synchronise("count", "tick")
    return model


def assert_same_trace(model, sc, strict=True, record=None):
    """Both backends produce bit-identical flows on *model* over *sc*."""
    reference = Simulator(model.copy(), strict=strict).run(sc, record=record)
    compiled = compile_plan(model.copy()).run(sc, record=record, strict=strict)
    assert compiled.flows == reference.flows
    assert compiled.length == reference.length
    assert compiled.process_name == reference.process_name
    return reference, compiled


class TestPlanLowering:
    def test_slots_cover_all_signals(self):
        model = counter_model()
        plan = compile_plan(model)
        for name in model.signals:
            assert name in plan.slot_of
            assert plan.names[plan.slot_of[name]] == name

    def test_statistics(self):
        plan = compile_plan(counter_model())
        stats = plan.statistics()
        assert stats.signals >= 4
        assert stats.targets == 2
        assert stats.equations == 2
        assert stats.state_slots == 1  # the delay buffer
        assert stats.sync_groups == 1
        assert stats.acyclic_dependencies
        assert "execution plan" in stats.summary()

    def test_acyclic_dependency_graph_detected(self):
        model = ProcessModel("chain")
        model.input("a", INTEGER)
        model.define("x", b.func("+", b.ref("a"), 1))
        model.define("y", b.func("+", b.ref("x"), 1))
        plan = compile_plan(model)
        assert plan.acyclic_dependencies
        names = [target.name for target in plan.targets]
        assert names.index("x") < names.index("y")  # reference declaration order

    def test_cyclic_graph_still_executes(self):
        model = ProcessModel("cycle")
        model.input("a", INTEGER)
        # x and y read each other under a merge: statically cyclic, but
        # executable because `default` resolves from the present branch.
        model.define("x", b.default(b.ref("a"), b.ref("y")))
        model.define("y", b.default(b.ref("a"), b.ref("x")))
        plan = compile_plan(model)
        assert not plan.acyclic_dependencies
        assert_same_trace(model, scenario(3, a=[1, 2, 3]))

    def test_sync_forcing_races_equation_resolution_identically(self):
        # Resolution order is observable: the ^= group may force s1 absent
        # before its equation is tried, or conflict with it.  Whatever the
        # reference does, the compiled backend must do the same.
        model = ProcessModel("race")
        model.input("i1")
        model.input("i2", INTEGER)
        model.define("s1", b.default(b.const(3), b.ref("i2")))
        model.synchronise("i1", "s1")
        sc = scenario(2, i1=[True, ABSENT], i2=[ABSENT, 5])
        ref_outcome = comp_outcome = None
        try:
            ref = Simulator(model.copy(), strict=True).run(sc)
            ref_outcome = ("ok", ref.flows)
        except Exception as error:  # noqa: BLE001 - compared across backends
            ref_outcome = (type(error), str(error))
        try:
            comp = compile_plan(model.copy()).run(sc, strict=True)
            comp_outcome = ("ok", comp.flows)
        except Exception as error:  # noqa: BLE001 - compared across backends
            comp_outcome = (type(error), str(error))
        assert ref_outcome == comp_outcome
        # And in lenient mode the flows and the exact warning lists agree.
        ref = Simulator(model.copy(), strict=False).run(sc)
        comp = compile_plan(model.copy()).run(sc, strict=False)
        assert comp.flows == ref.flows
        assert comp.warnings == ref.warnings

    def test_constant_folding(self):
        model = ProcessModel("fold")
        model.input("tick")
        model.output("y", INTEGER)
        model.define("y", b.when(b.func("+", 1, b.func("*", 2, 3)), b.ref("tick")))
        assert_same_trace(model, scenario(3, tick=[True, ABSENT, True]))

    def test_flatten_on_compile(self):
        inner = ProcessModel("inner")
        inner.input("i", INTEGER)
        inner.output("o", INTEGER)
        inner.define("o", b.func("+", b.ref("i"), 1))
        outer = ProcessModel("outer")
        outer.input("x", INTEGER)
        outer.output("y", INTEGER)
        outer.instantiate(inner, "u", bindings={"i": "x", "o": "y"})
        plan = compile_plan(outer)
        trace = plan.run(scenario(2, x=[1, 5]))
        assert trace.present_values("y") == [2, 6]


class TestCompiledSemantics:
    def test_counter_state_pattern(self):
        sc = Scenario(6).set_always("tick").set_periodic("delta", 2, value=10)
        ref, comp = assert_same_trace(counter_model(), sc)
        assert comp.present_values("count") == ref.present_values("count")

    def test_delay_depth_and_chain(self):
        model = ProcessModel("dd")
        model.input("x", INTEGER)
        model.define("y", b.delay(b.delay(b.ref("x"), init=0), init=-1))
        model.define("z", b.delay(b.ref("x"), init=0, depth=2))
        assert_same_trace(model, scenario(5, x=[1, 2, ABSENT, 3, 4]))

    def test_cell_memory(self):
        model = ProcessModel("mem")
        model.input("x", INTEGER)
        model.input("read", BOOLEAN)
        model.define("y", b.cell(b.ref("x"), b.ref("read"), init=99))
        assert_same_trace(
            model,
            scenario(5, x=[1, ABSENT, ABSENT, 7, ABSENT], read=[ABSENT, True, True, ABSENT, True]),
        )

    def test_var_memory(self):
        model = ProcessModel("vars")
        model.input("x", INTEGER)
        model.input("tick")
        model.shared("v", INTEGER)
        model.define_partial("v", b.ref("x"))
        model.define("y", b.when(b.var("v"), b.ref("tick")))
        assert_same_trace(
            model,
            scenario(4, x=[5, ABSENT, ABSENT, 8], tick=[ABSENT, True, True, True]),
        )

    def test_clock_operators(self):
        model = ProcessModel("clocks")
        model.input("a", INTEGER)
        model.input("c", INTEGER)
        model.define("u", b.clock_union(b.ref("a"), b.ref("c")))
        model.define("i", b.clock_intersection(b.ref("a"), b.ref("c")))
        model.define("d", b.clock_difference(b.ref("a"), b.ref("c")))
        model.define("k", b.clock(b.ref("a")))
        assert_same_trace(
            model, scenario(4, a=[1, ABSENT, 3, ABSENT], c=[ABSENT, 2, 4, ABSENT])
        )

    def test_undeclared_scenario_input_is_readable_and_recordable(self):
        model = ProcessModel("ghost")
        model.define("y", b.func("+", b.ref("ghost"), 1))
        sc = scenario(3, ghost=[1, ABSENT, 2])
        assert_same_trace(model, sc, record=["y", "ghost"])

    def test_bare_constant_definition_warns(self):
        model = ProcessModel("bare")
        model.output("y", INTEGER)
        model.define("y", b.const(4))
        ref, comp = assert_same_trace(model, Scenario(2), strict=False)
        assert comp.warnings
        assert comp.warnings == ref.warnings

    def test_stateful_registered_operator_not_folded(self):
        # A user-registered stepwise function may be stateful: it must be
        # applied at every instant (like the interpreter), never folded at
        # compile time — even over constant operands.
        from repro.sig.expressions import STEPWISE_OPERATIONS, register_stepwise_operation

        calls = []

        def tick_counter(base):
            calls.append(base)
            return base + len(calls)

        register_stepwise_operation("tick_counter_test", tick_counter)
        try:
            model = ProcessModel("stateful")
            model.input("tick")
            model.define("y", b.when(b.func("tick_counter_test", b.const(10)), b.ref("tick")))
            sc = Scenario(3).set_always("tick")
            ref = Simulator(model.copy()).run(sc)
            calls.clear()
            comp = compile_plan(model.copy()).run(sc)
            assert comp.present_values("y") == ref.present_values("y")
            assert len(calls) > 1  # applied per instant, not folded once
        finally:
            STEPWISE_OPERATIONS.pop("tick_counter_test", None)

    def test_record_subset(self):
        model = counter_model()
        sc = Scenario(4).set_always("tick")
        trace = compile_plan(model).run(sc, record=["count"])
        assert trace.signals() == ["count"]


class TestErrorParity:
    """Both backends raise the same error type with the same message."""

    def _errors(self, model, sc, strict=True):
        errors = []
        for runner in (
            ReferenceBackend(model.copy(), strict=strict),
            CompiledBackend(model.copy(), strict=strict),
        ):
            try:
                runner.run(sc)
            except Exception as exc:  # noqa: BLE001 - the class is the assertion
                errors.append(exc)
            else:
                errors.append(None)
        return errors

    def test_clock_violation(self):
        model = ProcessModel("bad")
        model.input("a", INTEGER)
        model.input("c", INTEGER)
        model.define("y", b.func("+", b.ref("a"), b.ref("c")))
        ref_error, comp_error = self._errors(model, scenario(2, a=[1, 2], c=[1, ABSENT]))
        assert type(ref_error) is type(comp_error) is ClockViolation
        assert str(ref_error) == str(comp_error)

    def test_sync_group_violation(self):
        model = ProcessModel("sync")
        model.input("a", INTEGER)
        model.input("c", INTEGER)
        model.synchronise("a", "c")
        ref_error, comp_error = self._errors(model, scenario(2, a=[1, 2], c=[1, ABSENT]))
        assert type(ref_error) is type(comp_error) is ClockViolation
        assert str(ref_error) == str(comp_error)

    def test_sync_group_settled_before_undeclared_target_resolves(self):
        # ``u`` is an undeclared target: absent until its equation resolves
        # in the second sweep, after the first propagation has already made
        # ``y`` absent.  The group {y, u} only disagrees then.
        model = ProcessModel("late")
        model.input("a", INTEGER)
        model.define("y", b.ref("v"))
        model.define("u", b.ref("w"))
        del model.signals["u"]
        model.define("v", b.ref("a"))
        model.define("w", b.ref("a"))
        model.synchronise("y", "u")
        sc = scenario(2, a=[1, 2])
        ref_error, comp_error = self._errors(model, sc)
        assert type(ref_error) is type(comp_error) is ClockViolation
        assert str(ref_error) == str(comp_error)
        lenient = [
            runner(model.copy(), strict=False).run(sc).warnings
            for runner in (ReferenceBackend, CompiledBackend)
        ]
        assert lenient[0] and lenient[0] == lenient[1]

    def test_instantaneous_cycle(self):
        model = ProcessModel("loop")
        model.input("tick")
        model.output("x", INTEGER)
        model.define("x", b.func("+", b.ref("x"), 0))
        model.synchronise("x", "tick")
        ref_error, comp_error = self._errors(model, Scenario(2).set_always("tick"))
        assert type(ref_error) is type(comp_error) is InstantaneousCycle
        assert str(ref_error) == str(comp_error)
        assert ref_error.instant == comp_error.instant
        assert sorted(ref_error.unresolved) == sorted(comp_error.unresolved)

    def test_non_deterministic_definition(self):
        model = ProcessModel("nondet")
        model.input("tick")
        model.shared("y", INTEGER)
        model.define_partial("y", b.when(b.const(1), b.ref("tick")))
        model.define_partial("y", b.when(b.const(2), b.ref("tick")))
        ref_error, comp_error = self._errors(model, Scenario(1).set_always("tick"))
        assert type(ref_error) is type(comp_error) is NonDeterministicDefinition
        assert str(ref_error) == str(comp_error)

    def test_lenient_mode_warns_identically(self):
        model = ProcessModel("bad")
        model.input("a", INTEGER)
        model.input("c", INTEGER)
        model.define("y", b.func("+", b.ref("a"), b.ref("c")))
        sc = scenario(2, a=[1, 2], c=[1, ABSENT])
        ref = Simulator(model.copy(), strict=False).run(sc)
        comp = compile_plan(model.copy()).run(sc, strict=False)
        assert comp.flows == ref.flows
        assert comp.warnings == ref.warnings


class TestDifferentialFuzz:
    """Randomised differential testing: compiled vs reference, exact outcome.

    Models are drawn from the whole expression grammar (including ``^=``
    groups, partial definitions, self references and forward references, so
    clock violations, non-determinism and instantaneous cycles all occur);
    the two backends must agree on flows, warning lists, and errors.
    """

    OPERATORS = ("+", "-", "*")

    def _expression(self, rng, names, depth):
        if depth <= 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.6:
                return b.ref(rng.choice(names))
            if roll < 0.85:
                return b.const(rng.randint(0, 3))
            return b.var(rng.choice(names))
        kind = rng.randrange(9)
        sub = lambda: self._expression(rng, names, depth - 1)  # noqa: E731
        if kind == 0:
            return b.func(rng.choice(self.OPERATORS), sub(), sub())
        if kind == 1:
            return b.delay(sub(), init=rng.randint(0, 3), depth=rng.randint(1, 2))
        if kind == 2:
            return b.when(sub(), sub())
        if kind == 3:
            return b.default(sub(), sub())
        if kind == 4:
            return b.cell(sub(), sub(), init=rng.randint(0, 3))
        if kind == 5:
            return b.when_clock(sub())
        if kind == 6:
            return b.clock_union(sub(), sub())
        if kind == 7:
            return b.clock_difference(sub(), sub())
        return b.clock(sub())

    def _random_case(self, rng, index):
        model = ProcessModel(f"fuzz{index}")
        inputs = ["a", "c", "e"]
        for name in inputs:
            model.input(name, INTEGER)
        targets = [f"t{i}" for i in range(rng.randint(2, 5))]
        names = inputs + targets  # forward/self references allowed
        for target in targets:
            expr = self._expression(rng, names, rng.randint(1, 3))
            if rng.random() < 0.2:
                model.define_partial(target, expr)
                model.define_partial(target, self._expression(rng, names, 2))
            else:
                model.define(target, expr)
        for _ in range(rng.randint(0, 2)):
            model.synchronise(rng.choice(names), rng.choice(names))
        sc = Scenario(5)
        for name in inputs:
            sc.set_flow(name, [rng.choice([ABSENT, rng.randint(0, 3)]) for _ in range(5)])
        return model, sc

    @staticmethod
    def _outcome(factory, model, sc, strict):
        try:
            trace = factory(model.copy(), strict=strict).run(sc)
        except Exception as error:  # noqa: BLE001 - outcome is the comparison
            return (type(error).__name__, str(error))
        return ("ok", trace.flows, trace.warnings)

    def test_random_models_match_reference_exactly(self):
        import random

        rng = random.Random(20260730)
        for index in range(80):
            model, sc = self._random_case(rng, index)
            for strict in (True, False):
                reference = self._outcome(ReferenceBackend, model, sc, strict)
                compiled = self._outcome(CompiledBackend, model, sc, strict)
                assert compiled == reference, f"case {index}, strict={strict}"

    def _inlined_read(self, rng, names):
        """A root shape whose signal operands the plan compiler reads
        inline (``x $``, ``^x``, ``e when ^x``, ``e default x``, ``x ^+ y``)
        over random sub-expressions."""
        ref = lambda: b.ref(rng.choice(names))  # noqa: E731
        sub = lambda: self._expression(rng, names, rng.randint(0, 2))  # noqa: E731
        kind = rng.randrange(5)
        if kind == 0:
            return b.delay(ref(), init=rng.randint(0, 3), depth=rng.randint(1, 2))
        if kind == 1:
            return b.clock(ref())
        if kind == 2:
            return b.when(sub(), b.clock(ref()))
        if kind == 3:
            return b.default(sub(), ref())
        return b.clock_union(ref(), ref())

    def test_inlined_signal_reads_match_reference_exactly(self):
        import random

        rng = random.Random(20261017)
        for index in range(120):
            model, sc = self._random_case(rng, index)
            names = ["a", "c", "e", "u"] + [eq.target for eq in model.equations]
            for target in sorted({eq.target for eq in model.equations}):
                model.define_partial(target, self._inlined_read(rng, names))
            model.define("u", self._inlined_read(rng, names))
            for strict in (True, False):
                reference = self._outcome(ReferenceBackend, model, sc, strict)
                compiled = self._outcome(CompiledBackend, model, sc, strict)
                assert compiled == reference, f"case {index}, strict={strict}"


class TestBackendApi:
    def test_registry(self):
        assert set(BACKENDS) == {"reference", "compiled", "vectorized", "lowered"}
        assert DEFAULT_BACKEND == "compiled"
        assert backend_names()[0] == DEFAULT_BACKEND

    def test_create_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            create_backend(counter_model(), backend="quantum")

    def test_simulate_helper_matches_reference(self):
        model = counter_model()
        sc = Scenario(4).set_always("tick")
        for backend in backend_names():
            trace = simulate(model.copy(), sc, backend=backend)
            assert trace.present_values("count") == [1, 2, 3, 4]

    def test_backend_reuse_resets_state(self):
        runner = CompiledBackend(counter_model())
        sc = Scenario(3).set_always("tick")
        first = runner.run(sc)
        second = runner.run(sc)
        assert first.flows == second.flows  # no state leaked between runs


class TestBatch:
    def test_batch_runs_all_scenarios_through_one_plan(self):
        model = counter_model()
        scenarios = [
            Scenario(3).set_always("tick"),
            Scenario(3).set_always("tick").set_always("delta", 5),
        ]
        result = simulate_batch(model, scenarios)
        assert result.backend == "compiled"
        assert len(result) == 2
        assert result.ok
        assert result.traces[0].present_values("count") == [1, 2, 3]
        assert result.traces[1].present_values("count") == [5, 10, 15]

    def test_batch_collects_errors(self):
        model = ProcessModel("bad")
        model.input("a", INTEGER)
        model.input("c", INTEGER)
        model.define("y", b.func("+", b.ref("a"), b.ref("c")))
        good = scenario(2, a=[1, 2], c=[3, 4])
        bad = scenario(2, a=[1, 2], c=[1, ABSENT])
        result = simulate_batch(model, [good, bad, good], collect_errors=True)
        assert not result.ok
        assert [index for index, _ in result.errors] == [1]
        assert isinstance(result.errors[0][1], ClockViolation)
        assert result.traces[1] is None
        assert len(result.successful_traces()) == 2
        assert "1 failed" in result.summary()

    def test_batch_without_collect_raises(self):
        model = ProcessModel("bad")
        model.input("a", INTEGER)
        model.input("c", INTEGER)
        model.define("y", b.func("+", b.ref("a"), b.ref("c")))
        with pytest.raises(ClockViolation):
            simulate_batch(model, [scenario(2, a=[1, 2], c=[1, ABSENT])])

    def test_batch_record_iterator_not_exhausted(self):
        model = counter_model()
        scenarios = [Scenario(2).set_always("tick"), Scenario(2).set_always("tick")]
        for factory in (ReferenceBackend, CompiledBackend):
            batch = simulate_batch(
                model, scenarios, record=iter(["count"]), runner=factory(model.copy())
            )
            assert [trace.signals() for trace in batch.traces] == [["count"], ["count"]]

    def test_batch_reference_backend(self):
        model = counter_model()
        result = simulate_batch(model, [Scenario(3).set_always("tick")], backend="reference")
        assert result.backend == "reference"
        assert result.traces[0].present_values("count") == [1, 2, 3]

    def test_flow_summary(self):
        model = counter_model()
        result = simulate_batch(
            model, [Scenario(3).set_always("tick"), Scenario(2).set_always("tick")]
        )
        summary = batch_flow_summary(result, "count")
        assert summary["per_scenario"] == [3, 2]
        assert summary["total"] == 5
        assert summary["min"] == 2 and summary["max"] == 3

    def test_default_scenario_drives_ticks(self):
        model = ProcessModel("ticky")
        model.input("tick")
        model.input("cpu0_tick")
        model.input("stimulus")
        sc = default_scenario(model, 4, {"stimulus": 2})
        assert sc.value("tick", 3) is True
        assert sc.value("cpu0_tick", 0) is True
        assert not is_absent(sc.value("stimulus", 2))
        assert is_absent(sc.value("stimulus", 1))
