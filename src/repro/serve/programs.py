"""JSON wire codec of symbolic scenario programs and simulation results.

Requests carry scenarios **symbolically**, mirroring
:mod:`repro.sig.scenario`: each driven signal is one small rule payload
(``constant`` / ``periodic`` / ``sparse`` / ``explicit``), so a
million-instant periodic drive crosses the wire in under a kilobyte
exactly as it crosses a process-pool boundary.  :class:`GeneratorRule`
does not serialise (arbitrary code does not belong on a wire) and is
rejected in both directions.

Signal **values** need an encoding that survives JSON without ambiguity:
a present value ``v`` travels as the one-element list ``[v]`` and absence
(``⊥``) as ``null``.  A bare ``null`` therefore always means absent, a
present ``None``-like value cannot occur (the value domain is JSON
scalars), and ``[false]`` vs ``null`` vs ``[null]`` never collide.  The
codec refuses non-JSON value types (functions, arbitrary objects) rather
than coercing them, so the parity suite can assert the *types* of served
values, not just their repr.

Rule payloads::

    {"kind": "constant", "value": true}
    {"kind": "periodic", "period": 3, "phase": 1, "value": 2.5}
    {"kind": "sparse", "entries": {"0": [7], "9": null}, "base": {...}?}
    {"kind": "explicit", "values": [[1], null, [2]]}

A scenario is ``{"length": int|null, "inputs": {signal: rule}}``; the
special form ``{"default": true, "stimuli": {...}?}`` asks the server to
build the model's :func:`~repro.sig.engine.batch.default_scenario`
(always-present ticks plus periodic stimuli) — the served counterpart of
running the CLI without an explicit scenario.

Responses render traces, statistics, delta logs and batch summaries back
to JSON with the same value encoding; every encoder here has a decoder
used by the parity suite to round-trip served results into the exact
in-process objects they must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..sig.engine.batch import default_scenario
from ..sig.engine.faults import FaultPlan, FaultSpec
from ..sig.engine.supervisor import ScenarioBudget, check_supervision
from ..sig.scenario import (
    ConstantRule,
    ExplicitRule,
    InputRule,
    PeriodicRule,
    Scenario,
    SparseRule,
)
from ..sig.process import ProcessModel
from ..sig.simulator import SimulationTrace
from ..sig.sinks import SinkSelection
from ..sig.values import ABSENT, Flow, is_absent
from .errors import invalid_program

__all__ = [
    "SimulateRequest",
    "decode_trace",
    "decode_value",
    "delta_log_to_payload",
    "encode_value",
    "rule_from_payload",
    "rule_to_payload",
    "scenario_from_payload",
    "scenario_to_payload",
    "statistics_to_payload",
    "trace_to_payload",
]

#: JSON-representable value types a signal may carry on the wire.  ``None``
#: is a legal *present* value (the value domain reserves ``ABSENT`` for
#: absence precisely so ``None`` stays ordinary); it travels as ``[null]``,
#: distinct from the bare ``null`` meaning absent.
_JSON_SCALARS = (bool, int, float, str, type(None))


# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Optional[List[Any]]:
    """Encode one signal value: present ``v`` → ``[v]``, absent → ``None``.

    Raises :class:`~repro.serve.errors.ServeError` (``invalid-program``)
    for values JSON cannot carry faithfully.
    """
    if is_absent(value):
        return None
    if not isinstance(value, _JSON_SCALARS):
        raise invalid_program(
            f"value {value!r} of type {type(value).__name__} is not "
            "JSON-serialisable; signal values must be bool, int, float, str "
            "or None"
        )
    return [value]


def decode_value(payload: Any) -> Any:
    """Decode one wire value: ``None`` → ``ABSENT``, ``[v]`` → ``v``."""
    if payload is None:
        return ABSENT
    if not isinstance(payload, list) or len(payload) != 1:
        raise invalid_program(
            f"malformed wire value {payload!r}; expected null (absent) or a "
            "one-element list [value] (present)"
        )
    value = payload[0]
    if not isinstance(value, _JSON_SCALARS):
        raise invalid_program(
            f"wire value {value!r} is not a valid signal value; expected "
            "bool, int, float, str or null"
        )
    return value


# ----------------------------------------------------------------------
# rule codec
# ----------------------------------------------------------------------
def rule_to_payload(rule: InputRule) -> Dict[str, Any]:
    """Encode one :class:`~repro.sig.scenario.InputRule` as a JSON payload."""
    if isinstance(rule, ConstantRule):
        return {"kind": "constant", "value": encode_value(rule.fill)}
    if isinstance(rule, PeriodicRule):
        return {
            "kind": "periodic",
            "period": rule.period,
            "phase": rule.phase,
            "value": encode_value(rule.fill),
        }
    if isinstance(rule, SparseRule):
        payload: Dict[str, Any] = {
            "kind": "sparse",
            "entries": {
                str(instant): encode_value(value)
                for instant, value in sorted(rule.entries.items())
            },
        }
        if rule.base is not None:
            payload["base"] = rule_to_payload(rule.base)
        return payload
    if isinstance(rule, ExplicitRule):
        return {"kind": "explicit", "values": [encode_value(v) for v in rule.values]}
    raise invalid_program(
        f"rule {rule!r} cannot be serialised; generator rules (arbitrary "
        "code) do not travel over the wire — express the flow as "
        "constant/periodic/sparse/explicit instead"
    )


def rule_from_payload(payload: Any, signal: str = "?") -> InputRule:
    """Decode one rule payload back into an :class:`InputRule`."""
    if not isinstance(payload, Mapping):
        raise invalid_program(
            f"rule for signal {signal!r} must be an object, got "
            f"{type(payload).__name__}"
        )
    kind = payload.get("kind")
    known = {"constant", "periodic", "sparse", "explicit"}
    if kind not in known:
        raise invalid_program(
            f"rule for signal {signal!r} has unknown kind {kind!r}; expected "
            f"one of {sorted(known)}"
        )
    try:
        if kind == "constant":
            _check_keys(payload, {"kind", "value"}, signal)
            fill = decode_value(payload.get("value", [True]))
            return ConstantRule(fill)
        if kind == "periodic":
            _check_keys(payload, {"kind", "period", "phase", "value"}, signal)
            period = _require_int(payload.get("period"), "period", signal)
            phase = _require_int(payload.get("phase", 0), "phase", signal)
            fill = decode_value(payload.get("value", [True]))
            return PeriodicRule(period, phase, fill)
        if kind == "sparse":
            _check_keys(payload, {"kind", "entries", "base"}, signal)
            entries_payload = payload.get("entries")
            if not isinstance(entries_payload, Mapping):
                raise invalid_program(
                    f"sparse rule for signal {signal!r} needs an 'entries' object"
                )
            entries: Dict[int, Any] = {}
            for key, value in entries_payload.items():
                try:
                    instant = int(key)
                except (TypeError, ValueError):
                    raise invalid_program(
                        f"sparse entry key {key!r} for signal {signal!r} is "
                        "not an integer instant"
                    )
                entries[instant] = decode_value(value)
            base_payload = payload.get("base")
            base = (
                rule_from_payload(base_payload, signal)
                if base_payload is not None
                else None
            )
            return SparseRule(entries, base=base)
        _check_keys(payload, {"kind", "values"}, signal)
        values_payload = payload.get("values")
        if not isinstance(values_payload, Sequence) or isinstance(values_payload, str):
            raise invalid_program(
                f"explicit rule for signal {signal!r} needs a 'values' array"
            )
        return ExplicitRule([decode_value(v) for v in values_payload])
    except ValueError as exc:
        # Rule constructors validate their own domain (period > 0,
        # non-negative sparse instants); surface those as program errors.
        raise invalid_program(f"invalid rule for signal {signal!r}: {exc}")


def _check_keys(payload: Mapping[str, Any], allowed: set, signal: str) -> None:
    """Reject unknown keys so client typos fail loudly, not silently."""
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise invalid_program(
            f"rule for signal {signal!r} has unknown key(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


def _require_int(value: Any, name: str, signal: str) -> int:
    """An integer field of a rule payload (bool is not an int here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise invalid_program(
            f"rule field {name!r} for signal {signal!r} must be an integer, "
            f"got {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# scenario codec
# ----------------------------------------------------------------------
def scenario_to_payload(scenario: Scenario) -> Dict[str, Any]:
    """Encode one :class:`~repro.sig.scenario.Scenario` as JSON."""
    return {
        "length": scenario.length,
        "inputs": {
            name: rule_to_payload(rule) for name, rule in sorted(scenario.inputs.items())
        },
    }


def scenario_from_payload(payload: Any, process: Optional[ProcessModel] = None) -> Scenario:
    """Decode one scenario payload (``{"length", "inputs"}``), or — given the
    model's *process* — the ``{"default": true, "stimuli", "length"}`` form."""
    if not isinstance(payload, Mapping):
        raise invalid_program(
            f"scenario must be an object, got {type(payload).__name__}"
        )
    default = process is not None and payload.get("default")
    allowed = {"default", "length", "stimuli"} if default else {"length", "inputs"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise invalid_program(
            f"scenario has unknown key(s) {unknown}; allowed: {sorted(allowed)}"
            + ("" if default else " (or the {'default': true} form)")
        )
    length = payload.get("length")
    if length is not None and (isinstance(length, bool) or not isinstance(length, int)):
        raise invalid_program(f"scenario length must be an integer or null, got {length!r}")
    if default:
        stimuli = payload.get("stimuli") or {}
        if not isinstance(stimuli, Mapping) or not all(
            isinstance(name, str)
            and isinstance(period, int)
            and not isinstance(period, bool)
            and period > 0
            for name, period in stimuli.items()
        ):
            raise invalid_program(
                "'stimuli' must map signal names to positive integer periods"
            )
    try:
        if default:
            return default_scenario(process, length, dict(stimuli))
        scenario = Scenario(length)
    except ValueError as exc:
        raise invalid_program(str(exc))
    inputs = payload.get("inputs", {})
    if not isinstance(inputs, Mapping):
        raise invalid_program("scenario 'inputs' must map signal names to rules")
    for name, rule_payload in inputs.items():
        if not isinstance(name, str):
            raise invalid_program(f"signal name {name!r} must be a string")
        scenario.inputs[name] = rule_from_payload(rule_payload, name)
    return scenario


# ----------------------------------------------------------------------
# result encoders / decoders
# ----------------------------------------------------------------------
def trace_to_payload(trace: SimulationTrace) -> Dict[str, Any]:
    """Encode one :class:`~repro.sig.simulator.SimulationTrace` as JSON."""
    return {
        "process": trace.process_name,
        "length": trace.length,
        "flows": {
            name: [encode_value(v) for v in flow.values]
            for name, flow in sorted(trace.flows.items())
        },
        "warnings": list(trace.warnings),
    }


def decode_trace(payload: Mapping[str, Any]) -> SimulationTrace:
    """Decode a served trace payload back into a :class:`SimulationTrace`.

    Inverse of :func:`trace_to_payload`; the parity suite uses it to
    compare served traces against in-process ones with plain ``==`` over
    flows (which checks values *and* their types).
    """
    flows = {
        name: Flow(name, [decode_value(v) for v in values])
        for name, values in payload["flows"].items()
    }
    return SimulationTrace(
        process_name=payload["process"],
        length=payload["length"],
        flows=flows,
        warnings=list(payload["warnings"]),
    )


def statistics_to_payload(stats: Any) -> Dict[str, Any]:
    """Encode one :class:`~repro.sig.sinks.TraceStatistics` as JSON."""
    return {
        "process": stats.process_name,
        "length": stats.length,
        "signals": {
            name: {
                "present": signal.present,
                "absent": signal.absent,
                "minimum": _encode_bound(signal.minimum),
                "maximum": _encode_bound(signal.maximum),
                "first_instant": signal.first_instant,
                "last_instant": signal.last_instant,
            }
            for name, signal in sorted(stats.per_signal.items())
        },
        "warnings": list(stats.warnings),
    }


def _encode_bound(value: Any) -> Any:
    """Encode a statistics min/max (``None`` when no comparable value)."""
    if value is None:
        return None
    return encode_value(value)


def delta_log_to_payload(log: Any) -> Dict[str, Any]:
    """Encode one :class:`~repro.sig.sinks.DeltaLog` as JSON."""
    return {
        "process": log.process_name,
        "length": log.length,
        "watched": list(log.watched),
        "entries": [
            [instant, {name: encode_value(v) for name, v in sorted(changes.items())}]
            for instant, changes in log.entries
        ],
        "change_counts": dict(log.change_counts),
        "warnings": list(log.warnings),
    }


# ----------------------------------------------------------------------
# simulate-request schema
# ----------------------------------------------------------------------
@dataclass
class SimulateRequest:
    """Validated form of a ``POST /models/{fp}/simulate`` or
    ``POST /models/{fp}/simulate/stream`` body.

    Both routes take this one schema, and every field means the same on
    both.  It mirrors the :func:`~repro.sig.engine.batch.simulate_batch`
    keyword surface plus the service-level knobs (sink selection, trace
    inclusion, horizon defaulting via ``hyperperiods``).  Built through
    :meth:`from_payload`, which rejects unknown keys and type errors with
    ``invalid-program`` so clients get a 422 naming the offending field;
    ``fault_plan`` arrives decoded into a
    :class:`~repro.sig.engine.faults.FaultPlan`, and ``sinks``,
    ``deltas_watch`` and ``include_trace`` into one
    :class:`~repro.sig.sinks.SinkSelection` plus the stream-only ``vcd`` flag.
    """

    scenarios: List[Any] = field(default_factory=list)
    length: Optional[int] = None
    hyperperiods: Optional[int] = None
    record: Optional[List[str]] = None
    backend: Optional[str] = None
    strict: bool = True
    workers: int = 1
    timeout: Optional[float] = None
    retries: Optional[int] = None
    backoff: Optional[float] = None
    max_failures: Optional[int] = None
    scenario_budget: Optional[ScenarioBudget] = None
    fault_plan: Optional[FaultPlan] = None
    selection: SinkSelection = SinkSelection(trace=True)
    vcd: bool = False

    #: Every key a simulate body may carry.
    FIELDS = frozenset(
        {
            "scenarios",
            "length",
            "hyperperiods",
            "record",
            "backend",
            "strict",
            "workers",
            "timeout",
            "retries",
            "backoff",
            "max_failures",
            "scenario_budget",
            "fault_plan",
            "include_trace",
            "sinks",
            "deltas_watch",
        }
    )

    #: Sink selectors the service knows how to build and render (``vcd``
    #: is accepted by the schema but stream-only — the non-streaming
    #: simulate path rejects it with a pointer to the stream endpoint).
    KNOWN_SINKS = ("stats", "deltas", "vcd")

    @classmethod
    def from_payload(cls, payload: Any) -> "SimulateRequest":
        """Validate a request body into a :class:`SimulateRequest`."""
        if not isinstance(payload, Mapping):
            raise invalid_program(
                f"simulate request must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - cls.FIELDS)
        if unknown:
            raise invalid_program(
                f"simulate request has unknown key(s) {unknown}; allowed: "
                f"{sorted(cls.FIELDS)}"
            )
        request = cls()
        scenarios = payload.get("scenarios")
        if not isinstance(scenarios, Sequence) or isinstance(scenarios, str):
            raise invalid_program("'scenarios' must be a non-empty array of scenario objects")
        if not scenarios:
            raise invalid_program("'scenarios' must contain at least one scenario")
        request.scenarios = list(scenarios)
        request.length = _optional_int(payload, "length", minimum=0)
        request.hyperperiods = _optional_int(payload, "hyperperiods", minimum=0)
        request.record = _optional_str_list(payload, "record")
        backend = payload.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise invalid_program(f"'backend' must be a string, got {backend!r}")
        request.backend = backend
        request.strict = _optional_bool(payload, "strict", True)
        request.workers = payload.get("workers", 1)
        request.timeout = payload.get("timeout")
        request.retries = payload.get("retries")
        request.backoff = payload.get("backoff")
        request.max_failures = payload.get("max_failures")
        try:
            check_supervision(
                request.workers, request.timeout, request.retries,
                request.backoff, request.max_failures,
            )
            request.scenario_budget = ScenarioBudget.coerce(payload.get("scenario_budget"))
        except (TypeError, ValueError) as exc:
            raise invalid_program(str(exc))
        request.fault_plan = _fault_plan(payload.get("fault_plan"))
        trace = _optional_bool(payload, "include_trace", True)
        sinks = payload.get("sinks", [])
        if not isinstance(sinks, Sequence) or isinstance(sinks, str):
            raise invalid_program("'sinks' must be an array of sink names")
        for sink in sinks:
            if sink not in cls.KNOWN_SINKS:
                raise invalid_program(
                    f"unknown sink {sink!r}; available: {list(cls.KNOWN_SINKS)}"
                )
        watch = _optional_str_list(payload, "deltas_watch")
        if watch is not None and "deltas" not in sinks:
            raise invalid_program(
                "'deltas_watch' needs the 'deltas' sink; add \"deltas\" to 'sinks'"
            )
        request.selection = SinkSelection(
            stats="stats" in sinks,
            deltas="deltas" in sinks,
            deltas_watch=None if watch is None else tuple(watch),
            trace=trace,
        )
        request.vcd = "vcd" in sinks
        return request


def _fault_plan(payload: Any) -> Optional[FaultPlan]:
    """Decode the test-only ``fault_plan`` field (the service gates it)."""
    if payload is None:
        return None
    if not isinstance(payload, list):
        raise invalid_program("'fault_plan' must be an array of fault specs")
    specs: List[FaultSpec] = []
    for index, spec in enumerate(payload):
        if not isinstance(spec, Mapping):
            raise invalid_program(f"fault spec {index} must be an object")
        unknown = sorted(set(spec) - {"kind", "scenario", "attempts", "delay"})
        if unknown:
            raise invalid_program(f"fault spec {index} has unknown key(s) {unknown}")
        attempts = spec.get("attempts", [0])
        try:
            specs.append(
                FaultSpec(
                    kind=spec.get("kind", ""),
                    scenario=spec.get("scenario", 0),
                    attempts=tuple(attempts) if isinstance(attempts, list) else attempts,
                    delay=spec.get("delay", 0.05),
                )
            )
        except ValueError as exc:
            raise invalid_program(f"fault spec {index}: {exc}")
    return FaultPlan(tuple(specs))


def _optional_int(
    payload: Mapping[str, Any],
    name: str,
    minimum: Optional[int] = None,
    default: Optional[int] = None,
) -> Optional[int]:
    """An optional integer body field, range-checked."""
    value = payload.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise invalid_program(f"{name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise invalid_program(f"{name!r} must be >= {minimum}, got {value}")
    return value


def _optional_bool(payload: Mapping[str, Any], name: str, default: bool) -> bool:
    """An optional boolean body field."""
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise invalid_program(f"{name!r} must be a boolean, got {value!r}")
    return value


def _optional_str_list(payload: Mapping[str, Any], name: str) -> Optional[List[str]]:
    """An optional list-of-strings body field."""
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise invalid_program(f"{name!r} must be an array of strings")
    for item in value:
        if not isinstance(item, str):
            raise invalid_program(f"{name!r} entries must be strings, got {item!r}")
    return list(value)
