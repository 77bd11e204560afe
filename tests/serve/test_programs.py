"""Wire-codec tests: scenario programs and results survive JSON exactly.

The serving layer's contract is bit-identical round-trips: every rule kind
encodes → (through real ``json.dumps``/``loads``) → decodes back to a rule
producing the same flow, signal values keep their Python types (``True``
vs ``1``, ``1`` vs ``1.0``), absence never collides with a present
``None``, and malformed payloads fail as ``invalid-program`` naming the
offending field instead of being silently coerced.
"""

from __future__ import annotations

import json

import pytest

from repro.serve.errors import ServeError
from repro.sig.engine import ScenarioBudget
from repro.serve.programs import (
    SimulateRequest,
    decode_trace,
    decode_value,
    encode_value,
    rule_from_payload,
    rule_to_payload,
    scenario_from_payload,
    scenario_to_payload,
    trace_to_payload,
)
from repro.sig.sinks import SinkSelection
from repro.sig.scenario import (
    ConstantRule,
    ExplicitRule,
    GeneratorRule,
    PeriodicRule,
    Scenario,
    SparseRule,
)
from repro.sig.simulator import SimulationTrace
from repro.sig.values import ABSENT, Flow


def json_roundtrip(payload):
    """Push a payload through real JSON serialisation."""
    return json.loads(json.dumps(payload))


class TestValueCodec:
    def test_present_values_keep_python_types(self):
        for value in (True, False, 0, 1, -3, 1.5, 0.0, "text", "", None):
            wire = json_roundtrip(encode_value(value))
            decoded = decode_value(wire)
            assert decoded == value
            assert type(decoded) is type(value)

    def test_absent_is_bare_null(self):
        assert encode_value(ABSENT) is None
        assert decode_value(None) is ABSENT

    def test_present_none_is_wrapped_null(self):
        assert encode_value(None) == [None]
        assert decode_value([None]) is None

    def test_bool_and_int_do_not_collide(self):
        assert decode_value(json_roundtrip(encode_value(True))) is True
        assert type(decode_value(json_roundtrip(encode_value(1)))) is int

    def test_unserialisable_value_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            encode_value(object())
        assert excinfo.value.code == "invalid-program"

    def test_malformed_wire_values_rejected(self):
        for bad in ([], [1, 2], "x", 5, {"v": 1}, [object]):
            with pytest.raises(ServeError):
                decode_value(bad)


class TestRuleCodec:
    RULES = [
        ConstantRule(True),
        ConstantRule(3),
        ConstantRule("on"),
        PeriodicRule(3),
        PeriodicRule(5, phase=2, fill=2.5),
        SparseRule({0: 1, 7: ABSENT, 3: False}),
        SparseRule({2: 9}, base=PeriodicRule(2, fill=1)),
        SparseRule({1: "x"}, base=ConstantRule("y")),
        ExplicitRule([1, ABSENT, True, "s", 2.0]),
        ExplicitRule([]),
    ]

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: repr(r))
    def test_roundtrip_preserves_flow(self, rule):
        decoded = rule_from_payload(json_roundtrip(rule_to_payload(rule)), "sig")
        assert type(decoded) is type(rule)
        window = 24
        original = [rule.value(i) for i in range(window)]
        restored = [decoded.value(i) for i in range(window)]
        assert restored == original
        assert [type(v) for v in restored] == [type(v) for v in original]

    def test_generator_rule_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            rule_to_payload(GeneratorRule(lambda i: i))
        assert excinfo.value.code == "invalid-program"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            rule_from_payload({"kind": "wavelet"}, "sig")
        assert "wavelet" in excinfo.value.message

    def test_unknown_key_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            rule_from_payload({"kind": "periodic", "period": 2, "phse": 1}, "sig")
        assert "phse" in excinfo.value.message

    def test_invalid_period_maps_to_program_error(self):
        with pytest.raises(ServeError) as excinfo:
            rule_from_payload({"kind": "periodic", "period": 0}, "sig")
        assert excinfo.value.code == "invalid-program"

    def test_sparse_string_keys_decode_to_instants(self):
        rule = rule_from_payload(
            {"kind": "sparse", "entries": {"4": [7], "0": None}}, "sig"
        )
        assert rule.value(4) == 7
        assert rule.value(0) is ABSENT

    def test_sparse_bad_key_rejected(self):
        with pytest.raises(ServeError):
            rule_from_payload({"kind": "sparse", "entries": {"four": [7]}}, "sig")


class TestScenarioCodec:
    def test_roundtrip(self):
        scenario = Scenario(40)
        scenario.set_always("tick")
        scenario.set_periodic("stim", 5, phase=1, value=3)
        scenario.set_at("stim", {7: 99, 9: ABSENT})
        scenario.set_flow("burst", [1, ABSENT, 2])
        decoded = scenario_from_payload(json_roundtrip(scenario_to_payload(scenario)))
        assert decoded.length == 40
        assert sorted(decoded.inputs) == sorted(scenario.inputs)
        for name in scenario.inputs:
            assert decoded.materialize(name) == scenario.materialize(name)

    def test_unbounded_scenario_roundtrip(self):
        scenario = Scenario(None).set_always("tick")
        decoded = scenario_from_payload(json_roundtrip(scenario_to_payload(scenario)))
        assert decoded.length is None
        assert decoded.value("tick", 10 ** 6) is True

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            scenario_from_payload({"length": 4, "imputs": {}})
        assert "imputs" in excinfo.value.message

    def test_negative_length_rejected(self):
        with pytest.raises(ServeError):
            scenario_from_payload({"length": -1, "inputs": {}})


class TestTraceCodec:
    def test_roundtrip_bit_identical(self):
        trace = SimulationTrace(
            process_name="p",
            length=4,
            flows={
                "a": Flow("a", [1, ABSENT, True, None]),
                "b": Flow("b", [ABSENT, 2.5, "x", False]),
            },
            warnings=["w1"],
        )
        decoded = decode_trace(json_roundtrip(trace_to_payload(trace)))
        assert decoded.process_name == trace.process_name
        assert decoded.length == trace.length
        assert decoded.warnings == trace.warnings
        assert decoded.flows == trace.flows
        for name in trace.flows:
            assert [type(v) for v in decoded.flows[name].values] == [
                type(v) for v in trace.flows[name].values
            ]


class TestSimulateRequest:
    def test_minimal(self):
        request = SimulateRequest.from_payload({"scenarios": [{"default": True}]})
        assert request.workers == 1
        assert request.strict is True
        assert request.selection == SinkSelection(trace=True)

    def test_unknown_key_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            SimulateRequest.from_payload({"scenarios": [{}], "worker": 2})
        assert "worker" in excinfo.value.message

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ServeError):
            SimulateRequest.from_payload({"scenarios": []})

    def test_unknown_sink_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            SimulateRequest.from_payload({"scenarios": [{}], "sinks": ["parquet"]})
        assert "parquet" in excinfo.value.message

    def test_sinks_decode_into_one_selection(self):
        request = SimulateRequest.from_payload(
            {
                "scenarios": [{}],
                "sinks": ["deltas", "vcd", "stats"],
                "deltas_watch": ["tick"],
                "include_trace": False,
            }
        )
        assert request.selection == SinkSelection(
            stats=True, deltas=True, deltas_watch=("tick",)
        )
        assert request.vcd is True

    @pytest.mark.parametrize("sinks", [[], ["stats"], ["vcd"]])
    def test_deltas_watch_without_deltas_sink_rejected(self, sinks):
        with pytest.raises(ServeError) as excinfo:
            SimulateRequest.from_payload(
                {"scenarios": [{}], "sinks": sinks, "deltas_watch": ["tick"]}
            )
        assert (excinfo.value.code, excinfo.value.status) == ("invalid-program", 422)
        assert "deltas_watch" in excinfo.value.message

    def test_budget_shorthand_and_mapping(self):
        request = SimulateRequest.from_payload(
            {"scenarios": [{}], "scenario_budget": 100}
        )
        assert request.scenario_budget == ScenarioBudget(max_instants=100)
        request = SimulateRequest.from_payload(
            {"scenarios": [{}], "scenario_budget": {"max_instants": 5}}
        )
        assert request.scenario_budget == ScenarioBudget(max_instants=5)
        with pytest.raises(ServeError):
            SimulateRequest.from_payload(
                {"scenarios": [{}], "scenario_budget": {"max_seconds": 5}}
            )

    def test_bad_types_rejected(self):
        for body in (
            {"scenarios": [{}], "workers": "two"},
            {"scenarios": [{}], "timeout": -1},
            {"scenarios": [{}], "strict": "yes"},
            {"scenarios": [{}], "workers": None},
            {"scenarios": [{}], "record": [1]},
            {"scenarios": "all"},
        ):
            with pytest.raises(ServeError):
                SimulateRequest.from_payload(body)
