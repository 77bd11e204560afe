"""Reference simulator for polychronous processes.

The simulator executes a (flattened) :class:`~repro.sig.process.ProcessModel`
instant by instant on a chosen *simulation clock*: at each instant, the
presence and value of every signal is resolved by propagating the equations
until a fixed point, then the delay/cell memories are advanced.

This is the executable counterpart of the paper's "code generation +
simulation in Polychrony": instead of generating C, the model is interpreted,
which is enough to reproduce the case-study simulations, the VCD traces and
the profiling measurements.

Detected at run time (and also statically, see :mod:`repro.sig.analysis`):

* **clock errors** — a stepwise function applied to operands that are not all
  present at an instant;
* **instantaneous dependency cycles** — the fixed point does not resolve all
  signals (deadlock);
* **non-determinism** — two partial definitions of the same signal present at
  the same instant with different values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .expressions import (
    Cell,
    ClockDifference,
    ClockIntersection,
    ClockOf,
    ClockUnion,
    Const,
    Default,
    Delay,
    Expression,
    FunctionApp,
    SignalRef,
    Var,
    When,
    WhenClock,
    apply_stepwise,
)
from .process import Direction, Equation, ProcessModel
from .scenario import Sampler, Scenario
from .values import ABSENT, Flow, is_absent, is_present


class SimulationError(Exception):
    """Base class of simulation failures."""


class ClockViolation(SimulationError):
    """A stepwise function saw operands with different presence at one instant."""


class InstantaneousCycle(SimulationError):
    """The equations could not be resolved at an instant (deadlock)."""

    def __init__(self, instant: int, unresolved: Sequence[str]) -> None:
        self.instant = instant
        self.unresolved = list(unresolved)
        super().__init__(
            f"instantaneous dependency cycle at instant {instant}: "
            + ", ".join(sorted(self.unresolved))
        )

    def __reduce__(self):
        # The default exception reduction replays ``args`` (the formatted
        # message) into ``__init__``, which takes two arguments; reconstruct
        # from the structured fields instead so the error survives pickling
        # across multiprocessing workers.
        return (InstantaneousCycle, (self.instant, self.unresolved))


class NonDeterministicDefinition(SimulationError):
    """Two overlapping partial definitions produced different values."""


# Evaluation statuses.
_UNKNOWN = "unknown"
_ABSENT = "absent"
_PRESENT = "present"
_CONST = "const"
# Presence known (through a clock constraint) but value not yet computed.
# This is what lets self-referential state patterns such as
# ``count := zcount + delta`` with ``zcount := count $ 1`` and ``count ^= tick``
# execute: the delay only needs the *presence* of its operand to yield the
# buffered previous value.
_PRESUMED = "presumed"


@dataclass
class SimulationTrace:
    """Recorded flows of a simulation run."""

    process_name: str
    length: int
    flows: Dict[str, Flow]
    warnings: List[str] = field(default_factory=list)

    def flow(self, name: str) -> Flow:
        return self.flows[name]

    def value_at(self, name: str, instant: int) -> Any:
        return self.flows[name][instant]

    def present_values(self, name: str) -> List[Any]:
        return self.flows[name].present_values()

    def clock_of(self, name: str) -> List[int]:
        return self.flows[name].clock

    def count_present(self, name: str) -> int:
        return self.flows[name].count_present()

    def signals(self) -> List[str]:
        return sorted(self.flows)

    def __len__(self) -> int:
        return self.length


class Simulator:
    """Fixed-point interpreter of a polychronous process."""

    def __init__(self, process: ProcessModel, strict: bool = True) -> None:
        if process.instances or process.submodels:
            process = process.flatten()
        self.process = process
        self.strict = strict
        self._equations: List[Tuple[Equation, str]] = []
        for index, eq in enumerate(process.equations):
            self._equations.append((eq, f"eq{index}"))
        self._defined: Dict[str, List[Tuple[Equation, str]]] = {}
        for eq, key in self._equations:
            self._defined.setdefault(eq.target, []).append((eq, key))
        self._sync_groups = self._build_sync_groups(process)
        self._state: Dict[str, List[Any]] = {}
        self._var_memory: Dict[str, Any] = {}

    @staticmethod
    def _build_sync_groups(process: ProcessModel) -> List[List[str]]:
        """Groups of signals declared synchronous through ``^=`` constraints."""
        from .process import ConstraintKind

        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for constraint in process.constraints:
            if constraint.kind is not ConstraintKind.SYNCHRONOUS:
                continue
            names = [op.name for op in constraint.operands if isinstance(op, (SignalRef, Var))]
            for a, b in zip(names, names[1:]):
                union(a, b)
        groups: Dict[str, List[str]] = {}
        for name in parent:
            groups.setdefault(find(name), []).append(name)
        return [members for members in groups.values() if len(members) > 1]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all delay/cell/shared-variable memories."""
        self._state.clear()
        self._var_memory.clear()

    def run(
        self,
        scenario: Scenario,
        record: Optional[Iterable[str]] = None,
        sinks: Optional[Sequence[Any]] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Run the process over *scenario* and record the requested signals.

        When *record* is ``None``, every declared signal is recorded.

        Each resolved instant is pushed to the *sinks* (see
        :mod:`repro.sig.sinks`) and then discarded, so memory stays
        O(signals) unless a sink keeps more.  Without *sinks* the run
        drives one :class:`~repro.sig.sinks.MaterializeSink` and returns
        its trace; with *sinks* it returns ``None`` (an *empty* list runs
        the scenario for its effects — errors, warnings — only).

        *length* overrides the scenario's default horizon (and is required
        when the scenario is unbounded, see
        :meth:`repro.sig.scenario.Scenario.run_length`).
        """
        # Imported lazily: repro.sig.sinks and the engine package import
        # this module.
        from .engine.supervisor import current_guard
        from .sinks import TraceHeader, close_sinks, resolve_sinks

        self.reset()
        length = scenario.run_length(length)
        recorded = list(record) if record is not None else list(self.process.signals)
        warnings: List[str] = []
        # Precompile one sampling closure per driven signal: the symbolic
        # rules are evaluated lazily, O(1) memory per signal whatever the
        # horizon.
        samplers = {name: rule.sampler() for name, rule in scenario.inputs.items()}
        guard = current_guard()
        guard_check = guard.check if guard is not None else None

        sink_list, materialize = resolve_sinks(sinks)
        try:
            # on_header sits inside the guarded region: a sink raising here
            # must not leave earlier sinks' file handles open.
            header = TraceHeader(
                process_name=self.process.name,
                length=length,
                signals=tuple(recorded),
                types={name: decl.type for name, decl in self.process.signals.items()},
                warnings=warnings,
            )
            for sink in sink_list:
                sink.on_header(header)
            for instant in range(length):
                if guard_check is not None:
                    guard_check(instant)
                env = self._step(instant, samplers, warnings)
                if sink_list:
                    values = tuple([env.get(name, ABSENT) for name in recorded])
                    for sink in sink_list:
                        sink.on_instant(instant, values)
        finally:
            close_sinks(sink_list)
        return materialize.trace if materialize is not None else None

    # ------------------------------------------------------------------
    # one instant
    # ------------------------------------------------------------------
    def _step(
        self, instant: int, samplers: Mapping[str, Sampler], warnings: List[str]
    ) -> Dict[str, Any]:
        status: Dict[str, str] = {}
        values: Dict[str, Any] = {}

        for name, decl in self.process.signals.items():
            if decl.direction is Direction.INPUT:
                sample = samplers.get(name)
                value = sample(instant) if sample is not None else ABSENT
                status[name] = _ABSENT if is_absent(value) else _PRESENT
                values[name] = value
            elif name not in self._defined:
                # Undefined, non-input signal: it never occurs.
                status[name] = _ABSENT
                values[name] = ABSENT
            else:
                status[name] = _UNKNOWN
                values[name] = ABSENT

        # Input programs may mention signals that were not declared.
        for name, sample in samplers.items():
            if name not in status:
                value = sample(instant)
                status[name] = _ABSENT if is_absent(value) else _PRESENT
                values[name] = value

        progress = True
        while progress:
            progress = False
            for target, definitions in self._defined.items():
                if status.get(target) in (_PRESENT, _ABSENT):
                    continue
                resolved, value = self._resolve_target(target, definitions, status, values, instant, warnings)
                if resolved:
                    status[target] = _ABSENT if is_absent(value) else _PRESENT
                    values[target] = value
                    progress = True
            if self._propagate_sync(status, instant, warnings):
                progress = True

        unresolved = [name for name, st in status.items() if st in (_UNKNOWN, _PRESUMED)]
        if unresolved:
            raise InstantaneousCycle(instant, unresolved)

        # Commit memories (delays, cells, shared variables).
        for eq, key in self._equations:
            self._update_state(eq.expr, key, status, values)
        for name, value in values.items():
            if is_present(value):
                self._var_memory[name] = value

        return values

    def _propagate_sync(self, status: Dict[str, str], instant: int, warnings: List[str]) -> bool:
        """Propagate presence/absence across declared ``^=`` groups.

        Returns ``True`` when at least one signal status was refined.
        """
        changed = False
        for group in self._sync_groups:
            statuses = {status.get(name, _ABSENT) for name in group}
            has_present = _PRESENT in statuses or _PRESUMED in statuses
            has_absent = _ABSENT in statuses
            if has_present and has_absent:
                message = (
                    f"clock constraint violation at instant {instant}: signals "
                    f"{', '.join(sorted(group))} are declared synchronous but disagree"
                )
                if self.strict:
                    raise ClockViolation(message)
                warnings.append(message)
                continue
            if has_present:
                for name in group:
                    if status.get(name) == _UNKNOWN:
                        status[name] = _PRESUMED
                        changed = True
            elif has_absent:
                for name in group:
                    if status.get(name) == _UNKNOWN:
                        status[name] = _ABSENT
                        changed = True
        return changed

    def _resolve_target(
        self,
        target: str,
        definitions: List[Tuple[Equation, str]],
        status: Dict[str, str],
        values: Dict[str, Any],
        instant: int,
        warnings: List[str],
    ) -> Tuple[bool, Any]:
        """Try to resolve *target* from its (possibly partial) definitions."""
        results: List[Tuple[str, Any, Equation]] = []
        for eq, key in definitions:
            st, value = self._eval(eq.expr, key, status, values, instant, warnings)
            if st in (_UNKNOWN, _PRESUMED):
                return False, ABSENT
            results.append((st, value, eq))

        present = [(value, eq) for st, value, eq in results if st == _PRESENT]
        consts = [(value, eq) for st, value, eq in results if st == _CONST]
        if not present:
            if consts and len(definitions) == 1:
                # A lone constant definition has no clock of its own; it is
                # absent unless constrained elsewhere — report it once.
                warnings.append(
                    f"signal {target!r} defined by a bare constant has no clock; treated as absent"
                )
            return True, ABSENT
        distinct = {repr(v) for v, _ in present}
        if len(distinct) > 1:
            message = (
                f"non-deterministic definition of {target!r} at instant {instant}: "
                + ", ".join(sorted(distinct))
            )
            if self.strict:
                raise NonDeterministicDefinition(message)
            warnings.append(message)
        return True, present[0][0]

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _eval(
        self,
        expr: Expression,
        path: str,
        status: Dict[str, str],
        values: Dict[str, Any],
        instant: int,
        warnings: List[str],
    ) -> Tuple[str, Any]:
        if isinstance(expr, SignalRef):
            st = status.get(expr.name, _ABSENT)
            if st in (_UNKNOWN, _PRESUMED):
                return st, ABSENT
            if st == _ABSENT:
                return _ABSENT, ABSENT
            return _PRESENT, values[expr.name]

        if isinstance(expr, Var):
            st = status.get(expr.name, _ABSENT)
            if st in (_UNKNOWN, _PRESUMED):
                return st, ABSENT
            if st == _PRESENT:
                return _PRESENT, values[expr.name]
            # Shared variable read: last written value (absent before the first write).
            if expr.name in self._var_memory:
                return _CONST, self._var_memory[expr.name]
            return _ABSENT, ABSENT

        if isinstance(expr, Const):
            return _CONST, expr.value

        if isinstance(expr, FunctionApp):
            sub = [
                self._eval(arg, f"{path}.{i}", status, values, instant, warnings)
                for i, arg in enumerate(expr.args)
            ]
            if any(st in (_UNKNOWN, _PRESUMED) for st, _ in sub):
                return _UNKNOWN, ABSENT
            statuses = {st for st, _ in sub}
            if _PRESENT in statuses and _ABSENT in statuses:
                message = (
                    f"clock violation at instant {instant}: operator {expr.op!r} "
                    "applied to operands that are not all present"
                )
                if self.strict:
                    raise ClockViolation(message)
                warnings.append(message)
                return _ABSENT, ABSENT
            if _PRESENT in statuses:
                return _PRESENT, apply_stepwise(expr.op, [v for _, v in sub])
            if statuses <= {_CONST}:
                return _CONST, apply_stepwise(expr.op, [v for _, v in sub])
            return _ABSENT, ABSENT

        if isinstance(expr, Delay):
            st, value = self._eval(expr.operand, f"{path}.d", status, values, instant, warnings)
            if st == _UNKNOWN:
                return _UNKNOWN, ABSENT
            if st in (_ABSENT, _CONST):
                return (_ABSENT, ABSENT) if st == _ABSENT else (_CONST, expr.init)
            # Present (or presumed present through a clock constraint): the
            # delay only needs the *presence* of its operand at this instant.
            buffer = self._state.get(path)
            if buffer is None:
                init = expr.init
                buffer = [init] * max(1, expr.depth)
                self._state[path] = buffer
            return _PRESENT, buffer[0]

        if isinstance(expr, When):
            cond_st, cond_val = self._eval(expr.condition, f"{path}.c", status, values, instant, warnings)
            if cond_st in (_UNKNOWN, _PRESUMED):
                return _UNKNOWN, ABSENT
            if cond_st == _ABSENT or (cond_st in (_PRESENT, _CONST) and not bool(cond_val)):
                return _ABSENT, ABSENT
            op_st, op_val = self._eval(expr.operand, f"{path}.w", status, values, instant, warnings)
            if op_st in (_UNKNOWN, _PRESUMED):
                return op_st, ABSENT
            if op_st == _ABSENT:
                return _ABSENT, ABSENT
            if op_st == _CONST:
                return _PRESENT, op_val
            return _PRESENT, op_val

        if isinstance(expr, WhenClock):
            cond_st, cond_val = self._eval(expr.condition, f"{path}.c", status, values, instant, warnings)
            if cond_st in (_UNKNOWN, _PRESUMED):
                return _UNKNOWN, ABSENT
            if cond_st in (_PRESENT, _CONST) and bool(cond_val):
                return _PRESENT, True
            return _ABSENT, ABSENT

        if isinstance(expr, Default):
            left_st, left_val = self._eval(expr.left, f"{path}.l", status, values, instant, warnings)
            if left_st == _UNKNOWN:
                return _UNKNOWN, ABSENT
            if left_st == _PRESENT:
                return _PRESENT, left_val
            if left_st == _PRESUMED:
                return _PRESUMED, ABSENT
            right_st, right_val = self._eval(expr.right, f"{path}.r", status, values, instant, warnings)
            if left_st == _CONST:
                # A constant left branch adapts to the clock of the right one.
                if right_st == _UNKNOWN:
                    return _UNKNOWN, ABSENT
                if right_st in (_PRESENT, _CONST):
                    return right_st, left_val
                if right_st == _PRESUMED:
                    return _PRESUMED, ABSENT
                return _CONST, left_val
            return right_st, right_val

        if isinstance(expr, Cell):
            op_st, op_val = self._eval(expr.operand, f"{path}.x", status, values, instant, warnings)
            cond_st, cond_val = self._eval(expr.condition, f"{path}.b", status, values, instant, warnings)
            if op_st == _UNKNOWN or cond_st in (_UNKNOWN, _PRESUMED):
                return _UNKNOWN, ABSENT
            if op_st == _PRESUMED:
                return _PRESUMED, ABSENT
            memory_key = f"{path}.cellmem"
            stored = self._state.get(memory_key, [expr.init])
            if op_st == _PRESENT:
                return _PRESENT, op_val
            if cond_st in (_PRESENT, _CONST) and bool(cond_val):
                return _PRESENT, stored[0]
            return _ABSENT, ABSENT

        if isinstance(expr, ClockOf):
            st, _ = self._eval(expr.operand, f"{path}.k", status, values, instant, warnings)
            if st == _UNKNOWN:
                return _UNKNOWN, ABSENT
            return (_PRESENT, True) if st in (_PRESENT, _PRESUMED) else (_ABSENT, ABSENT)

        if isinstance(expr, ClockUnion):
            l_st, _ = self._eval(expr.left, f"{path}.l", status, values, instant, warnings)
            r_st, _ = self._eval(expr.right, f"{path}.r", status, values, instant, warnings)
            if l_st in (_PRESENT, _PRESUMED) or r_st in (_PRESENT, _PRESUMED):
                return _PRESENT, True
            if _UNKNOWN in (l_st, r_st):
                return _UNKNOWN, ABSENT
            return _ABSENT, ABSENT

        if isinstance(expr, ClockIntersection):
            l_st, _ = self._eval(expr.left, f"{path}.l", status, values, instant, warnings)
            r_st, _ = self._eval(expr.right, f"{path}.r", status, values, instant, warnings)
            if l_st == _ABSENT or r_st == _ABSENT:
                return _ABSENT, ABSENT
            if _UNKNOWN in (l_st, r_st):
                return _UNKNOWN, ABSENT
            if l_st in (_PRESENT, _PRESUMED) and r_st in (_PRESENT, _PRESUMED):
                return _PRESENT, True
            return _ABSENT, ABSENT

        if isinstance(expr, ClockDifference):
            l_st, _ = self._eval(expr.left, f"{path}.l", status, values, instant, warnings)
            r_st, _ = self._eval(expr.right, f"{path}.r", status, values, instant, warnings)
            if l_st == _ABSENT:
                return _ABSENT, ABSENT
            if _UNKNOWN in (l_st, r_st):
                return _UNKNOWN, ABSENT
            if l_st in (_PRESENT, _PRESUMED) and r_st not in (_PRESENT, _PRESUMED):
                return _PRESENT, True
            return _ABSENT, ABSENT

        raise TypeError(f"cannot evaluate expression of type {type(expr).__name__}")

    # ------------------------------------------------------------------
    # state update (after the instant has been fully resolved)
    # ------------------------------------------------------------------
    def _update_state(
        self,
        expr: Expression,
        path: str,
        status: Dict[str, str],
        values: Dict[str, Any],
    ) -> None:
        if isinstance(expr, Delay):
            # Read the operand's value with the *old* state before recursing
            # into nested memories, so that chained delays shift correctly.
            st, value = self._final_value(expr.operand, f"{path}.d", status, values)
            self._update_state(expr.operand, f"{path}.d", status, values)
            if st == _PRESENT:
                buffer = self._state.get(path)
                if buffer is None:
                    buffer = [expr.init] * max(1, expr.depth)
                buffer = buffer[1:] + [value] if expr.depth > 1 else [value]
                self._state[path] = buffer
            return
        if isinstance(expr, Cell):
            st, value = self._final_value(expr.operand, f"{path}.x", status, values)
            self._update_state(expr.operand, f"{path}.x", status, values)
            self._update_state(expr.condition, f"{path}.b", status, values)
            if st == _PRESENT:
                self._state[f"{path}.cellmem"] = [value]
            return
        if isinstance(expr, FunctionApp):
            for i, arg in enumerate(expr.args):
                self._update_state(arg, f"{path}.{i}", status, values)
        elif isinstance(expr, When):
            self._update_state(expr.operand, f"{path}.w", status, values)
            self._update_state(expr.condition, f"{path}.c", status, values)
        elif isinstance(expr, WhenClock):
            self._update_state(expr.condition, f"{path}.c", status, values)
        elif isinstance(expr, Default):
            self._update_state(expr.left, f"{path}.l", status, values)
            self._update_state(expr.right, f"{path}.r", status, values)
        elif isinstance(expr, ClockOf):
            self._update_state(expr.operand, f"{path}.k", status, values)
        elif isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
            self._update_state(expr.left, f"{path}.l", status, values)
            self._update_state(expr.right, f"{path}.r", status, values)

    def _final_value(
        self,
        expr: Expression,
        path: str,
        status: Dict[str, str],
        values: Dict[str, Any],
    ) -> Tuple[str, Any]:
        """Re-evaluate an already-resolved sub-expression (no unknowns remain)."""
        return self._eval(expr, path, status, values, -1, [])


def simulate(
    process: ProcessModel,
    scenario: Scenario,
    record: Optional[Iterable[str]] = None,
    strict: bool = True,
    sinks: Optional[Sequence[Any]] = None,
    length: Optional[int] = None,
) -> Optional[SimulationTrace]:
    """One-shot helper: build a :class:`Simulator` and run *scenario*.

    With *sinks*, the run streams into them and returns ``None``; *length*
    overrides the scenario's default horizon (see :meth:`Simulator.run`).
    """
    return Simulator(process, strict=strict).run(
        scenario, record=record, sinks=sinks, length=length
    )
