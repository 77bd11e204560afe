"""Unit tests of the symbolic scenario programs (:mod:`repro.sig.scenario`).

The rule semantics (value/sampler/column agreement, composition, unbounded
horizons, pickling cost) are exercised directly; trace parity of symbolic
versus materialised scenarios across the backends lives in
``tests/integration/test_scenario_symbolic_parity.py`` and the hypothesis
fuzz in ``tests/sig/test_symbolic_scenario_fuzz.py``.
"""

import math
import pickle

import pytest

from repro.sig import builder as b
from repro.sig.engine import (
    CompiledBackend,
    ReferenceBackend,
    simulate as engine_simulate,
    simulate_batch,
)
from repro.sig.process import ProcessModel
from repro.sig.scenario import (
    ConstantRule,
    ExplicitRule,
    GeneratorRule,
    InputProgram,
    InputRule,
    PeriodicRule,
    Scenario,
    SparseRule,
    as_rule,
)
from repro.sig.simulator import Scenario as SimulatorScenario, simulate
from repro.sig.sinks import StatisticsSink
from repro.sig.values import ABSENT, EVENT, INTEGER, REAL, is_absent


def _counter_model():
    model = ProcessModel("rules_counter")
    model.input("tick", EVENT)
    model.output("count", INTEGER)
    model.local("zcount", INTEGER)
    model.define("zcount", b.delay(b.ref("count"), init=0))
    model.define("count", b.when(b.func("+", b.ref("zcount"), 1), b.clock("tick")))
    model.synchronise("count", "tick")
    return model


class TestRuleSemantics:
    def test_constant_rule(self):
        rule = ConstantRule(7)
        assert rule.value(0) == 7
        assert rule.value(10**9) == 7
        assert rule.column(3, 6) == [7, 7, 7]
        sample = rule.sampler()
        assert [sample(t) for t in range(4)] == [7] * 4

    def test_periodic_rule(self):
        rule = PeriodicRule(3, phase=1, fill="x")
        expected = [ABSENT, "x", ABSENT, ABSENT, "x", ABSENT, ABSENT, "x"]
        assert rule.column(0, 8) == expected
        sample = rule.sampler()
        assert [sample(t) for t in range(8)] == expected
        assert rule.value(0) is ABSENT
        assert rule.value(10**9) == "x"  # (10^9 - 1) % 3 == 0: evaluated lazily
        assert rule.finite_support() is None

    def test_periodic_rule_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicRule(0)

    def test_sparse_rule_without_base(self):
        rule = SparseRule({2: "a", 5: "b"})
        assert rule.value(2) == "a"
        assert rule.value(3) is ABSENT
        assert rule.column(0, 7) == [ABSENT, ABSENT, "a", ABSENT, ABSENT, "b", ABSENT]
        assert rule.finite_support() == 6

    def test_sparse_rule_rejects_negative_instants(self):
        with pytest.raises(ValueError):
            SparseRule({-3: 1})

    def test_sparse_overlay_composes_and_masks(self):
        base = PeriodicRule(2, fill=1)
        rule = SparseRule({0: ABSENT, 3: 9}, base=base)
        # instant 0: masked to absent; instant 2: base; instant 3: overlay.
        assert rule.column(0, 5) == [ABSENT, ABSENT, 1, 9, 1]
        sample = rule.sampler()
        assert [sample(t) for t in range(5)] == rule.column(0, 5)

    def test_explicit_rule_bounds(self):
        rule = ExplicitRule([1, 2])
        assert rule.value(1) == 2
        assert rule.value(2) is ABSENT
        assert rule.value(-1) is ABSENT
        assert rule.column(1, 4) == [2, ABSENT, ABSENT]
        assert rule.finite_support() == 2
        # legacy list-compat surface
        assert len(rule) == 2 and rule[0] == 1 and list(rule) == [1, 2]

    def test_generator_rule(self):
        rule = GeneratorRule(lambda t: t * t if t % 2 == 0 else ABSENT)
        assert rule.column(0, 5) == [0, ABSENT, 4, ABSENT, 16]
        assert rule.sampler()(6) == 36

    def test_as_rule_coercions(self):
        assert isinstance(as_rule([1, 2]), ExplicitRule)
        assert isinstance(as_rule((1, 2)), ExplicitRule)
        rule = PeriodicRule(2)
        assert as_rule(rule) is rule
        assert isinstance(as_rule(lambda t: t), GeneratorRule)
        with pytest.raises(TypeError):
            as_rule(42)

    def test_input_program_coerces_on_every_path(self):
        program = InputProgram()
        program["a"] = [1, 2]
        program.update(c=[5], d=PeriodicRule(3))
        program.setdefault("e", [6])
        assert isinstance(program["a"], ExplicitRule)
        assert isinstance(program["c"], ExplicitRule)
        assert isinstance(program["d"], PeriodicRule)
        assert isinstance(program["e"], ExplicitRule)

    def test_input_program_coerces_constructor_and_copy(self):
        program = InputProgram({"a": [1, 2]}, b=[3])
        assert isinstance(program["a"], ExplicitRule)
        assert isinstance(program["b"], ExplicitRule)
        clone = program.copy()
        assert isinstance(clone, InputProgram)
        assert clone["a"] is program["a"]
        clone["c"] = [4]  # the copy keeps coercing
        assert isinstance(clone["c"], ExplicitRule)
        assert "c" not in program

    def test_repeated_set_at_stays_flat(self):
        sc = Scenario(None).set_periodic("x", 7, value=0)
        for instant in range(3000):
            sc.set_at("x", {instant: instant})
        rule = sc.inputs["x"]
        assert isinstance(rule, SparseRule)
        assert isinstance(rule.base, PeriodicRule)  # no SparseRule chain
        # Deep chains used to blow the recursion limit here.
        sample = rule.sampler()
        assert sample(2999) == 2999
        assert sample(1234) == 1234
        assert sample(3507) == 0  # 3500 = 7*501: back to the periodic base
        # Later overlays win over earlier ones.
        sc.set_at("x", {10: -1})
        assert sc.inputs["x"].value(10) == -1


class TestScenarioBuilders:
    def test_builders_record_rules_not_lists(self):
        sc = (
            Scenario(100)
            .set_periodic("p", 4, phase=2, value=3)
            .set_always("c", True)
            .set_at("s", {1: 5})
            .set_flow("e", [1, 2, 3])
        )
        assert isinstance(sc.inputs["p"], PeriodicRule)
        assert isinstance(sc.inputs["c"], ConstantRule)
        assert isinstance(sc.inputs["s"], SparseRule)
        assert isinstance(sc.inputs["e"], ExplicitRule)

    def test_simulator_reexports_scenario(self):
        assert SimulatorScenario is Scenario

    def test_set_at_overlays_existing_rule(self):
        sc = Scenario(10).set_periodic("x", 2, value=1).set_at("x", {3: 7})
        assert sc.value("x", 2) == 1
        assert sc.value("x", 3) == 7
        assert is_absent(sc.value("x", 5))

    def test_materialize_and_column(self):
        sc = Scenario(6).set_periodic("x", 3, value=2)
        assert sc.materialize("x") == [2, ABSENT, ABSENT, 2, ABSENT, ABSENT]
        assert sc.column("x", 2, 5) == [ABSENT, 2, ABSENT]
        assert sc.column("missing", 0, 2) == [ABSENT, ABSENT]

    def test_materialized_scenario_is_explicit(self):
        sc = Scenario(5).set_periodic("x", 2, value=1).set_always("y", 0)
        eager = sc.materialized()
        assert eager.length == 5
        assert all(isinstance(rule, ExplicitRule) for rule in eager.inputs.values())
        for name in sc.inputs:
            assert eager.materialize(name) == sc.materialize(name)

    def test_legacy_list_assignment_still_works(self):
        sc = Scenario(3)
        sc.inputs["u"] = [1.0, 2.0, 3.0]
        assert isinstance(sc.inputs["u"], ExplicitRule)
        assert sc.value("u", 1) == 2.0


class TestUnboundedScenarios:
    def test_run_length_resolution(self):
        assert Scenario(8).run_length() == 8
        assert Scenario(8).run_length(3) == 3
        assert Scenario(None).run_length(5) == 5
        with pytest.raises(ValueError, match="unbounded"):
            Scenario(None).run_length()
        with pytest.raises(ValueError):
            Scenario(8).run_length(-1)

    def test_simulate_requires_length_for_unbounded(self):
        model = _counter_model()
        sc = Scenario().set_periodic("tick", 1)
        with pytest.raises(ValueError, match="unbounded"):
            simulate(model, sc)

    @pytest.mark.parametrize("backend", ["reference", "compiled", "vectorized"])
    def test_one_symbolic_scenario_many_horizons(self, backend, recwarn):
        model = _counter_model()
        sc = Scenario().set_periodic("tick", 2)
        for horizon in (0, 1, 7, 40):
            trace = engine_simulate(model, sc, backend=backend, length=horizon)
            assert trace.length == horizon
            assert trace.count_present("count") == math.ceil(horizon / 2)

    def test_length_overrides_bounded_scenario(self):
        model = _counter_model()
        sc = Scenario(4).set_periodic("tick", 1)
        longer = simulate(model, sc, length=10)
        assert longer.length == 10
        # Rules are unbounded flows: the override extends the periodic input
        # past the scenario's default horizon.
        assert longer.count_present("tick") == 10
        shorter = simulate(model, sc, length=2)
        assert shorter.length == 2

    def test_streaming_sink_with_length(self):
        model = _counter_model()
        sc = Scenario().set_periodic("tick", 1)
        sink = StatisticsSink()
        runner = CompiledBackend(model, strict=False)
        assert runner.run(sc, sinks=[sink], length=25) is None
        assert sink.result().length == 25
        assert sink.result().count_present("count") == 25

    def test_batch_length_override_and_parity(self):
        model = _counter_model()
        scenarios = [Scenario().set_periodic("tick", period) for period in (1, 2, 3)]
        result = simulate_batch(model, scenarios, strict=False, length=12)
        assert [trace.length for trace in result.traces] == [12, 12, 12]
        for period, trace in zip((1, 2, 3), result.traces):
            assert trace.count_present("tick") == math.ceil(12 / period)

    def test_parallel_batch_ships_rules(self):
        model = _counter_model()
        scenarios = [Scenario().set_periodic("tick", period) for period in (1, 2)]
        sequential = simulate_batch(model, scenarios, strict=False, length=16, workers=1)
        sharded = simulate_batch(model, scenarios, strict=False, length=16, workers=2)
        for a, c in zip(sequential.traces, sharded.traces):
            assert a.flows == c.flows
            assert a.warnings == c.warnings


class TestPickling:
    def test_symbolic_scenario_pickles_small(self):
        horizon = 1_000_000
        sc = Scenario(horizon).set_periodic("tick", 2).set_always("on", True)
        payload = pickle.dumps(sc)
        # A million-instant periodic scenario ships as rules, not lists.
        assert len(payload) < 1024, len(payload)
        clone = pickle.loads(payload)
        assert clone.length == horizon
        for t in (0, 1, 2, 999_999):
            assert clone.value("tick", t) == sc.value("tick", t)
            assert clone.value("on", t) is True

    def test_sparse_rule_pickles_and_rebuilds_index(self):
        rule = SparseRule({5: 1, 2: 2}, base=PeriodicRule(4))
        clone = pickle.loads(pickle.dumps(rule))
        assert clone.column(0, 8) == rule.column(0, 8)

    def test_generator_rule_pickles_with_toplevel_function(self):
        rule = GeneratorRule(_every_fifth)
        clone = pickle.loads(pickle.dumps(rule))
        assert clone.column(0, 11) == rule.column(0, 11)


def _every_fifth(t):
    """Top-level generator function (lambdas do not pickle)."""
    return t if t % 5 == 0 else ABSENT


class TestBlockColumns:
    """The arithmetic fast path must agree with the per-instant sampler."""

    @pytest.mark.parametrize(
        "rule",
        [
            ConstantRule(2.5),
            ConstantRule(True),
            ConstantRule("s"),
            ConstantRule(ABSENT),
            PeriodicRule(1),
            PeriodicRule(3, phase=1, fill=4.0),
            PeriodicRule(7, phase=13, fill=False),
            SparseRule({0: 1.5, 9: 2.5, 100: 3.5}),
            SparseRule({4: ABSENT, 6: 9.0}, base=PeriodicRule(2, fill=1.0)),
            SparseRule({3: 7.5}, base=ConstantRule(0.5)),
        ],
    )
    @pytest.mark.parametrize("window", [(0, 16), (5, 6), (97, 130), (3, 3)])
    def test_block_columns_match_column(self, rule, window):
        start, stop = window
        for typed in (None, float, bool):
            columns = rule.block_columns(start, stop, typed=typed)
            assert columns is not None
            mask, values, typed_values = columns
            expected = rule.column(start, stop)
            assert list(mask) == [not is_absent(v) for v in expected]
            assert list(values) == expected
            if typed_values is not None:
                assert typed is not None
                for offset, value in enumerate(expected):
                    if not is_absent(value):
                        assert typed_values[offset] == value
                        assert type(typed_values.tolist()[offset]) is typed

    def test_explicit_and_generator_have_no_fast_path(self):
        assert ExplicitRule([1, 2]).block_columns(0, 4) is None
        assert GeneratorRule(_every_fifth).block_columns(0, 4) is None

    def test_typed_rejected_for_mismatched_fill(self):
        mask, values, typed_values = PeriodicRule(2, fill=1).block_columns(0, 8, typed=float)
        assert typed_values is None  # int fill is not exactly a float
        nan_rule = ConstantRule(float("nan"))
        _, _, typed_nan = nan_rule.block_columns(0, 4, typed=float)
        assert typed_nan is None  # NaN must stay on the object path

    def test_sparse_overlay_downgrades_typed_on_mismatch(self):
        rule = SparseRule({2: "oops"}, base=ConstantRule(1.0))
        mask, values, typed_values = rule.block_columns(0, 4, typed=float)
        assert typed_values is None
        assert values[2] == "oops"

    def test_periodic_sequence_fill_is_not_broadcast(self):
        rule = PeriodicRule(2, fill=(1, 2))
        mask, values, typed_values = rule.block_columns(0, 4)
        # numpy mask assignment would distribute the tuple's elements across
        # the present slots; each present instant must hold the tuple object.
        assert values[0] == (1, 2) and values[2] == (1, 2)
        assert rule.column(0, 4) == list(values)


class TestEngineIntegration:
    def test_generator_rule_drives_all_backends(self):
        model = ProcessModel("gen_inputs")
        model.input("u", REAL)
        model.output("y", REAL)
        model.define("y", b.ref("u") * 2.0)
        sc = Scenario(12).set_generator("u", _halves)
        reference = ReferenceBackend(model, strict=False).run(sc)
        compiled = CompiledBackend(model, strict=False).run(sc)
        assert compiled.flows == reference.flows
        vec = engine_simulate(model, sc, strict=False, backend="vectorized")
        assert vec.flows == reference.flows

    def test_undeclared_and_scenario_only_rules(self):
        model = ProcessModel("undeclared")
        model.input("u", INTEGER)
        model.output("y", INTEGER)
        model.define("y", b.func("+", b.ref("u"), b.ref("extra")))
        sc = Scenario(6).set_periodic("u", 1, value=1).set_periodic("extra", 1, value=2)
        sc.set_periodic("ghost", 2, value=9)  # never referenced, still recordable
        reference = ReferenceBackend(model, strict=False).run(
            sc, record=["y", "ghost"]
        )
        compiled = CompiledBackend(model, strict=False).run(sc, record=["y", "ghost"])
        assert reference.present_values("y") == [3] * 6
        assert compiled.flows == reference.flows
        assert compiled.count_present("ghost") == 3


def _halves(t):
    """Present every other instant with a float payload (picklable)."""
    return t / 2.0 if t % 2 == 0 else ABSENT
