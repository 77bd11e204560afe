"""Lowered (codegen) backend: straight-line Python source per equation.

The compiled plan (:mod:`repro.sig.engine.plan`) evaluates each equation
through a tree of nested closures — one Python call per expression node per
instant.  This module removes that dispatch: :func:`lower_plan_evaluators`
walks each equation's expression tree once and **emits flat Python source**
mirroring the plan's closures branch for branch (same status codes, same
warning and exception messages, same evaluation order), then
``exec``-compiles it into a single function per equation.  Operator
applications call the exact :data:`~repro.sig.expressions.STEPWISE_OPERATIONS`
callables and constants are bound by object into the generated module's
globals, so every produced value is the very object the closures would have
produced — bit-identical traces by construction.

:class:`LoweredExecutionPlan` swaps the generated evaluators into an
ordinary :class:`~repro.sig.engine.plan.ExecutionPlan`'s work items (memory
commits keep the plan's closures; they run once per instant, not once per
node).  Equations the generator declines — none of the core node types are
declined, but the generator degrades defensively when its state-slot
numbering cannot be proven to match the plan's — keep their interpreted
closures, so a codegen gap can only cost speed, never parity.

:class:`LoweredBackend` registers the plan in :data:`BACKENDS` under
``"lowered"``.

The vectorized backend (:mod:`repro.sig.engine.vectorized`) reuses
:func:`lower_plan_evaluators` for its ``lowered_residue`` option, swapping
generated evaluators into the residual sweep only.
"""

from __future__ import annotations

import warnings as _warnings_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..expressions import (
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
    STEPWISE_OPERATIONS,
    SignalRef,
    Var,
    When,
    WhenClock,
    apply_stepwise,
)
from ..process import ProcessModel
from ..simulator import ClockViolation
from ..values import ABSENT
from .backends import BACKENDS, CompiledBackend, SimulationBackend
from .plan import (
    EvalFn,
    ExecutionPlan,
    PURE_OPERATORS,
    TargetPlan,
    _NOWRITE,
)

#: Message of the :class:`RuntimeWarning` raised when the generator's
#: state-slot numbering does not reproduce the plan's — the whole lowering
#: is then abandoned and the plan keeps its interpreted closures.
STATE_MISMATCH_MESSAGE = (
    "lowered codegen state-slot numbering does not match the compiled plan; "
    "keeping the interpreted evaluators"
)


def _as_const(expr: Expression) -> Optional[Const]:
    """Mirror the plan compiler's constant folding.

    A pure stepwise application whose operands fold to constants folds to a
    constant; a failing fold returns ``None`` and the application is emitted
    for run-time evaluation, exactly like the interpreter falls through.
    """
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, FunctionApp) and expr.op in PURE_OPERATORS and expr.args:
        args = [_as_const(a) for a in expr.args]
        if all(a is not None for a in args):
            try:
                return Const(apply_stepwise(expr.op, [a.value for a in args]))
            except Exception:
                return None
    return None


def _count_state_slots(expr: Expression) -> int:
    """State slots the plan compiler allocates for *expr*'s subtree."""
    if isinstance(expr, Delay):
        return _count_state_slots(expr.operand) + 1
    if isinstance(expr, Cell):
        return (
            _count_state_slots(expr.operand)
            + _count_state_slots(expr.condition)
            + 1
        )
    if isinstance(expr, FunctionApp):
        return sum(_count_state_slots(a) for a in expr.args)
    if isinstance(expr, When):
        return _count_state_slots(expr.operand) + _count_state_slots(expr.condition)
    if isinstance(expr, WhenClock):
        return 0 if isinstance(expr.condition, Const) else _count_state_slots(expr.condition)
    if isinstance(expr, Default):
        return _count_state_slots(expr.left) + _count_state_slots(expr.right)
    if isinstance(expr, ClockOf):
        return 0 if isinstance(expr.operand, Const) else _count_state_slots(expr.operand)
    if isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
        return _count_state_slots(expr.left) + _count_state_slots(expr.right)
    return 0


def _user_op(op: str) -> Callable[..., Any]:
    """Late-bound application of a user-registered operator, like the plan's."""

    def call(*args: Any) -> Any:
        return apply_stepwise(op, list(args))

    return call


class _Emitter:
    """Emit flat Python statements mirroring one equation's closure tree.

    Status codes appear as integer literals (``0`` UNKNOWN, ``1`` PRESENT,
    ``2`` ABSENT, ``3`` CONST, ``4`` PRESUMED — the plan's codes); constants,
    operator callables and exception types are bound into ``env`` (the
    generated function's globals) by object, never re-created per instant.
    State slots are numbered exactly as the plan compiler numbers them:
    allocation happens at the same position of the same recursion.
    """

    def __init__(self, slot_of: Dict[str, int], state_base: int) -> None:
        self.slot_of = slot_of
        self.state_counter = state_base
        self.lines: List[str] = []
        self.env: Dict[str, Any] = {
            "ABSENT": ABSENT,
            "ClockViolation": ClockViolation,
            "_NOWRITE": _NOWRITE,
        }
        self._serial = 0

    # -- small helpers -------------------------------------------------
    def fresh(self) -> Tuple[str, str]:
        """A fresh ``(code, value)`` local-variable pair."""
        n = self._serial
        self._serial += 1
        return f"c{n}", f"v{n}"

    def bind(self, value: Any, prefix: str) -> str:
        """Bind *value* into the generated globals, returning its name."""
        name = f"_{prefix}{self._serial}"
        self._serial += 1
        self.env[name] = value
        return name

    def line(self, indent: int, text: str) -> None:
        """Append one statement at *indent* levels."""
        self.lines.append("    " * indent + text)

    # -- node emission -------------------------------------------------
    def emit(self, expr: Expression, indent: int) -> Tuple[str, str]:
        """Emit statements evaluating *expr*; return its (code, value) vars."""
        folded = _as_const(expr)
        if folded is not None:
            expr = folded
        if isinstance(expr, SignalRef):
            return self._emit_signal_ref(expr, indent)
        if isinstance(expr, Var):
            return self._emit_var(expr, indent)
        if isinstance(expr, Const):
            return self._emit_const(expr, indent)
        if isinstance(expr, FunctionApp):
            return self._emit_function(expr, indent)
        if isinstance(expr, Delay):
            return self._emit_delay(expr, indent)
        if isinstance(expr, When):
            return self._emit_when(expr, indent)
        if isinstance(expr, WhenClock):
            return self._emit_when_clock(expr, indent)
        if isinstance(expr, Default):
            return self._emit_default(expr, indent)
        if isinstance(expr, Cell):
            return self._emit_cell(expr, indent)
        if isinstance(expr, ClockOf):
            return self._emit_clock_of(expr, indent)
        if isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
            return self._emit_clock_binop(expr, indent)
        raise TypeError(f"cannot lower expression of type {type(expr).__name__}")

    def _emit_signal_ref(self, expr: SignalRef, indent: int) -> Tuple[str, str]:
        c, v = self.fresh()
        s = self.slot_of[expr.name]
        self.line(indent, f"{c} = st[{s}]")
        self.line(indent, f"{v} = vals[{s}] if {c} == 1 else ABSENT")
        return c, v

    def _emit_var(self, expr: Var, indent: int) -> Tuple[str, str]:
        c, v = self.fresh()
        s = self.slot_of[expr.name]
        self.line(indent, f"{c} = st[{s}]")
        self.line(indent, f"if {c} == 1:")
        self.line(indent + 1, f"{v} = vals[{s}]")
        self.line(indent, f"elif {c} == 0 or {c} == 4:")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, "else:")
        self.line(indent + 1, f"{v} = varmem[{s}]")
        self.line(indent + 1, f"if {v} is not _NOWRITE:")
        self.line(indent + 2, f"{c} = 3")
        self.line(indent + 1, "else:")
        self.line(indent + 2, f"{c} = 2")
        self.line(indent + 2, f"{v} = ABSENT")
        return c, v

    def _emit_const(self, expr: Const, indent: int) -> Tuple[str, str]:
        c, v = self.fresh()
        k = self.bind(expr.value, "k")
        self.line(indent, f"{c} = 3")
        self.line(indent, f"{v} = {k}")
        return c, v

    def _emit_function(self, expr: FunctionApp, indent: int) -> Tuple[str, str]:
        op = expr.op
        if op in PURE_OPERATORS:
            func = self.bind(STEPWISE_OPERATIONS[op], "f")
        else:
            func = self.bind(_user_op(op), "f")
        args = [self.emit(a, indent) for a in expr.args]
        c, v = self.fresh()
        if len(args) == 1:
            ac, av = args[0]
            self.line(indent, f"if {ac} == 1:")
            self.line(indent + 1, f"{c} = 1")
            self.line(indent + 1, f"{v} = {func}({av})")
            self.line(indent, f"elif {ac} == 2:")
            self.line(indent + 1, f"{c} = 2")
            self.line(indent + 1, f"{v} = ABSENT")
            self.line(indent, f"elif {ac} == 3:")
            self.line(indent + 1, f"{c} = 3")
            self.line(indent + 1, f"{v} = {func}({av})")
            self.line(indent, "else:")
            self.line(indent + 1, f"{c} = 0")
            self.line(indent + 1, f"{v} = ABSENT")
            return c, v
        suffix = self.bind(
            f": operator {op!r} applied to operands that are not all present",
            "m",
        )
        unknown = " or ".join(f"{ac} == 0 or {ac} == 4" for ac, _ in args)
        present = " or ".join(f"{ac} == 1" for ac, _ in args)
        absent = " or ".join(f"{ac} == 2" for ac, _ in args)
        values = ", ".join(av for _, av in args)
        self.line(indent, f"if {unknown}:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif ({present}) and ({absent}):")
        self.line(
            indent + 1,
            f'_m = "clock violation at instant " + str(instant) + {suffix}',
        )
        self.line(indent + 1, "if strict:")
        self.line(indent + 2, "raise ClockViolation(_m)")
        self.line(indent + 1, "warnings.append(_m)")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {present}:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = {func}({values})")
        self.line(indent, f"elif {absent}:")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, "else:")
        self.line(indent + 1, f"{c} = 3")
        self.line(indent + 1, f"{v} = {func}({values})")
        return c, v

    def _emit_delay(self, expr: Delay, indent: int) -> Tuple[str, str]:
        ac, _av = self.emit(expr.operand, indent)
        k = self.state_counter
        self.state_counter += 1
        init = self.bind(expr.init, "k")
        c, v = self.fresh()
        self.line(indent, f"if {ac} == 0:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {ac} == 2:")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {ac} == 3:")
        self.line(indent + 1, f"{c} = 3")
        self.line(indent + 1, f"{v} = {init}")
        self.line(indent, "else:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = state[{k}][0]")
        return c, v

    def _emit_when(self, expr: When, indent: int) -> Tuple[str, str]:
        cc, cv = self.emit(expr.condition, indent)
        c, v = self.fresh()
        self.line(indent, f"if {cc} == 0 or {cc} == 4:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {cc} == 2 or not {cv}:")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, "else:")
        oc, ov = self.emit(expr.operand, indent + 1)
        self.line(indent + 1, f"if {oc} == 0 or {oc} == 4:")
        self.line(indent + 2, f"{c} = {oc}")
        self.line(indent + 2, f"{v} = ABSENT")
        self.line(indent + 1, f"elif {oc} == 2:")
        self.line(indent + 2, f"{c} = 2")
        self.line(indent + 2, f"{v} = ABSENT")
        self.line(indent + 1, "else:")
        self.line(indent + 2, f"{c} = 1")
        self.line(indent + 2, f"{v} = {ov}")
        return c, v

    def _emit_when_clock(self, expr: WhenClock, indent: int) -> Tuple[str, str]:
        c, v = self.fresh()
        if isinstance(expr.condition, Const):
            if bool(expr.condition.value):
                self.line(indent, f"{c} = 1")
                self.line(indent, f"{v} = True")
            else:
                self.line(indent, f"{c} = 2")
                self.line(indent, f"{v} = ABSENT")
            return c, v
        cc, cv = self.emit(expr.condition, indent)
        self.line(indent, f"if {cc} == 0 or {cc} == 4:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif ({cc} == 1 or {cc} == 3) and {cv}:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = True")
        self.line(indent, "else:")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        return c, v

    def _emit_default(self, expr: Default, indent: int) -> Tuple[str, str]:
        lc, lv = self.emit(expr.left, indent)
        c, v = self.fresh()
        self.line(indent, f"if {lc} == 0:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {lc} == 1:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = {lv}")
        self.line(indent, f"elif {lc} == 4:")
        self.line(indent + 1, f"{c} = 4")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, "else:")
        rc, rv = self.emit(expr.right, indent + 1)
        self.line(indent + 1, f"if {lc} == 3:")
        self.line(indent + 2, f"if {rc} == 0:")
        self.line(indent + 3, f"{c} = 0")
        self.line(indent + 3, f"{v} = ABSENT")
        self.line(indent + 2, f"elif {rc} == 1 or {rc} == 3:")
        self.line(indent + 3, f"{c} = {rc}")
        self.line(indent + 3, f"{v} = {lv}")
        self.line(indent + 2, f"elif {rc} == 4:")
        self.line(indent + 3, f"{c} = 4")
        self.line(indent + 3, f"{v} = ABSENT")
        self.line(indent + 2, "else:")
        self.line(indent + 3, f"{c} = 3")
        self.line(indent + 3, f"{v} = {lv}")
        self.line(indent + 1, "else:")
        self.line(indent + 2, f"{c} = {rc}")
        self.line(indent + 2, f"{v} = {rv}")
        return c, v

    def _emit_cell(self, expr: Cell, indent: int) -> Tuple[str, str]:
        oc, ov = self.emit(expr.operand, indent)
        cc, cv = self.emit(expr.condition, indent)
        k = self.state_counter
        self.state_counter += 1
        c, v = self.fresh()
        self.line(indent, f"if {oc} == 0 or {cc} == 0 or {cc} == 4:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {oc} == 4:")
        self.line(indent + 1, f"{c} = 4")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {oc} == 1:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = {ov}")
        self.line(indent, f"elif ({cc} == 1 or {cc} == 3) and {cv}:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = state[{k}][0]")
        self.line(indent, "else:")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        return c, v

    def _emit_clock_of(self, expr: ClockOf, indent: int) -> Tuple[str, str]:
        c, v = self.fresh()
        if isinstance(expr.operand, Const):
            self.line(indent, f"{c} = 2")
            self.line(indent, f"{v} = ABSENT")
            return c, v
        oc, _ov = self.emit(expr.operand, indent)
        self.line(indent, f"if {oc} == 0:")
        self.line(indent + 1, f"{c} = 0")
        self.line(indent + 1, f"{v} = ABSENT")
        self.line(indent, f"elif {oc} == 1 or {oc} == 4:")
        self.line(indent + 1, f"{c} = 1")
        self.line(indent + 1, f"{v} = True")
        self.line(indent, "else:")
        self.line(indent + 1, f"{c} = 2")
        self.line(indent + 1, f"{v} = ABSENT")
        return c, v

    def _emit_clock_binop(self, expr: Expression, indent: int) -> Tuple[str, str]:
        lc, _lv = self.emit(expr.left, indent)
        rc, _rv = self.emit(expr.right, indent)
        c, v = self.fresh()
        if isinstance(expr, ClockUnion):
            self.line(
                indent,
                f"if {lc} == 1 or {lc} == 4 or {rc} == 1 or {rc} == 4:",
            )
            self.line(indent + 1, f"{c} = 1")
            self.line(indent + 1, f"{v} = True")
            self.line(indent, f"elif {lc} == 0 or {rc} == 0:")
            self.line(indent + 1, f"{c} = 0")
            self.line(indent + 1, f"{v} = ABSENT")
            self.line(indent, "else:")
            self.line(indent + 1, f"{c} = 2")
            self.line(indent + 1, f"{v} = ABSENT")
        elif isinstance(expr, ClockIntersection):
            self.line(indent, f"if {lc} == 2 or {rc} == 2:")
            self.line(indent + 1, f"{c} = 2")
            self.line(indent + 1, f"{v} = ABSENT")
            self.line(indent, f"elif {lc} == 0 or {rc} == 0:")
            self.line(indent + 1, f"{c} = 0")
            self.line(indent + 1, f"{v} = ABSENT")
            self.line(
                indent,
                f"elif ({lc} == 1 or {lc} == 4) and ({rc} == 1 or {rc} == 4):",
            )
            self.line(indent + 1, f"{c} = 1")
            self.line(indent + 1, f"{v} = True")
            self.line(indent, "else:")
            self.line(indent + 1, f"{c} = 2")
            self.line(indent + 1, f"{v} = ABSENT")
        else:  # ClockDifference
            self.line(indent, f"if {lc} == 2:")
            self.line(indent + 1, f"{c} = 2")
            self.line(indent + 1, f"{v} = ABSENT")
            self.line(indent, f"elif {lc} == 0 or {rc} == 0:")
            self.line(indent + 1, f"{c} = 0")
            self.line(indent + 1, f"{v} = ABSENT")
            self.line(
                indent,
                f"elif ({lc} == 1 or {lc} == 4) and not ({rc} == 1 or {rc} == 4):",
            )
            self.line(indent + 1, f"{c} = 1")
            self.line(indent + 1, f"{v} = True")
            self.line(indent, "else:")
            self.line(indent + 1, f"{c} = 2")
            self.line(indent + 1, f"{v} = ABSENT")
        return c, v


def lower_expression(
    expr: Expression, slot_of: Dict[str, int], state_base: int, target: str = "?"
) -> EvalFn:
    """Generate and compile one equation's flat evaluator.

    The returned function has the plan's :data:`~repro.sig.engine.plan.EvalFn`
    signature and carries its source on ``__lowered_source__`` for
    inspection.  *state_base* is the plan's state-slot counter at the point
    this equation was compiled.
    """
    emitter = _Emitter(slot_of, state_base)
    code_var, value_var = emitter.emit(expr, 1)
    emitter.line(1, f"return {code_var}, {value_var}")
    source = (
        "def _lowered(st, vals, state, varmem, instant, warnings, strict):\n"
        + "\n".join(emitter.lines)
        + "\n"
    )
    namespace = dict(emitter.env)
    exec(compile(source, f"<lowered:{target}>", "exec"), namespace)
    fn = namespace["_lowered"]
    fn.__lowered_source__ = source
    fn.__lowered_state_slots__ = emitter.state_counter - state_base
    return fn


def lower_plan_evaluators(plan: ExecutionPlan) -> Dict[str, List[EvalFn]]:
    """Generate lowered evaluators for every equation of *plan*.

    Returns ``{target_name: [evaluator, ...]}`` in the plan's per-target
    definition order, covering only targets with at least one successfully
    generated evaluator; a failed equation keeps the plan's interpreted
    closure in its list position.  Returns ``{}`` (with a
    :class:`RuntimeWarning`) if the generator's state-slot numbering cannot
    be proven identical to the plan's — the caller then keeps the plan
    untouched.
    """
    process = plan.process
    generated: Dict[str, List[Optional[EvalFn]]] = {}
    state_counter = 0
    consistent = True
    for eq in process.equations:
        base = state_counter
        expected = _count_state_slots(eq.expr)
        state_counter += expected
        fn: Optional[EvalFn] = None
        try:
            fn = lower_expression(eq.expr, plan.slot_of, base, eq.target)
        except Exception:
            fn = None
        if fn is not None and fn.__lowered_state_slots__ != expected:
            consistent = False
            fn = None
        generated.setdefault(eq.target, []).append(fn)
    if not consistent or state_counter != len(plan._state_init):
        _warnings_module.warn(STATE_MISMATCH_MESSAGE, RuntimeWarning, stacklevel=2)
        return {}
    result: Dict[str, List[EvalFn]] = {}
    for target in plan.targets:
        fns = generated.get(target.name)
        if fns is None or all(fn is None for fn in fns):
            continue
        if len(fns) != len(target.evaluators):
            continue
        result[target.name] = [
            fn if fn is not None else original
            for fn, original in zip(fns, target.evaluators)
        ]
    return result


class LoweredExecutionPlan(ExecutionPlan):
    """An execution plan whose evaluators are generated flat functions.

    Compiles the ordinary plan first (memory commits, sync groups, sweep
    order and the pure fallback all come from it), then swaps each target's
    evaluators for the generated ones.  ``lowered_targets`` /
    ``interpreted_targets`` count how the swap went.
    """

    def __init__(self, process: ProcessModel) -> None:
        super().__init__(process)
        lowered_map = lower_plan_evaluators(self)
        self.lowered_targets = 0
        self.interpreted_targets = 0
        new_work = []
        for slot, is_declared, _single, target in self._work:
            evaluators = lowered_map.get(target.name)
            if evaluators is None:
                self.interpreted_targets += 1
                new_work.append((slot, is_declared, _single, target))
                continue
            clone = TargetPlan(target.name, target.slot, target.declared, evaluators)
            single = evaluators[0] if len(evaluators) == 1 else None
            new_work.append((slot, is_declared, single, clone))
            self.lowered_targets += 1
        self._work = tuple(new_work)


def compile_lowered(process: ProcessModel) -> LoweredExecutionPlan:
    """Compile *process* into a plan with generated flat evaluators."""
    return LoweredExecutionPlan(process)


class LoweredBackend(CompiledBackend):
    """Codegen executor: the compiled plan with generated flat evaluators.

    Runs the plain generated Python, which is measurably faster than the
    closure interpreter on interpreter-dispatch-bound models.  Traces,
    warnings and errors are bit-identical to the ``compiled``/``reference``
    backends by construction.
    """

    name = "lowered"

    def __init__(self, process: ProcessModel, strict: bool = True, **options: Any) -> None:
        SimulationBackend.__init__(self, process, strict, **options)
        # Pickles like the compiled backend: the plan travels as its process
        # model and regenerates the lowered evaluators on arrival.
        self._plan = LoweredExecutionPlan(process)


#: Register in the backend registry (imported by ``repro.sig.engine``).
BACKENDS[LoweredBackend.name] = LoweredBackend


__all__ = [
    "LoweredBackend",
    "LoweredExecutionPlan",
    "STATE_MISMATCH_MESSAGE",
    "compile_lowered",
    "lower_expression",
    "lower_plan_evaluators",
]
