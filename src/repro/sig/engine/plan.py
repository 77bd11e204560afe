"""Lowering of a polychronous process into an executable plan.

The reference simulator (:mod:`repro.sig.simulator`) interprets the equation
set from scratch at every instant: statuses and values live in dictionaries
keyed by signal name, every expression node is re-dispatched through
``isinstance`` chains, and delay/cell memories are addressed by f-string
paths rebuilt at each evaluation.  That is fine as an executable semantics,
but it wastes most of its time in bookkeeping.

:func:`compile_plan` performs, once per process, the work the interpreter
redoes at every instant:

* every signal name is mapped to an **integer slot**; per-instant statuses
  and values are plain Python lists indexed by slot;
* every equation is compiled into a closure tree mirroring the reference
  evaluation rules exactly (same statuses, same warning/exception messages),
  with stepwise operators resolved and constant sub-expressions **folded**
  at compile time;
* static clock tests (``when`` over a constant, ``^`` of a constant) are
  **precomputed** into constant-presence closures;
* the bare signal operand of ``x $``, ``^x``, ``e when ^x``,
  ``e default x`` and ``x ^+ y`` is **read inline** from the status/value
  slots instead of through a closure call;
* delay and cell memories are allocated **integer state slots** instead of
  path-keyed dictionary entries, and the post-instant memory commit is
  compiled down to the equations that actually own memory (the reference
  walks every expression of every equation at every instant);
* the per-instant sweep keeps a **worklist** of still-unresolved targets,
  visited in the reference interpreter's declaration order with clock
  propagation after each sweep — the exact same fixed-point trajectory, so
  traces, warnings and errors are bit-identical by construction (resolution
  order interacts observably with ``^=`` constraint propagation, which is
  why a reordering "optimisation" is not semantics-preserving).  A ``^=``
  group whose members are all present or all absent can no longer change
  or warn, so (when every target is declared) it drops out of the rest of
  the instant's propagation.  The static dependency graph
  (:mod:`repro.sig.scheduler_graph`, the same graph the paper uses for code
  generation) is analysed at compile time to record whether the
  instantaneous dependencies are acyclic.

The resulting :class:`ExecutionPlan` is immutable with respect to the model:
one plan can run many scenarios, which is what the batched multi-scenario
API (:func:`repro.sig.engine.batch.simulate_batch`) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    SignalRef,
    STEPWISE_OPERATIONS,
    Var,
    When,
    WhenClock,
    apply_stepwise,
)
from ..process import ConstraintKind, Direction, ProcessModel
from ..scenario import InputRule, Sampler, Scenario
from ..scheduler_graph import build_dependency_graph
from ..simulator import (
    ClockViolation,
    InstantaneousCycle,
    NonDeterministicDefinition,
    SimulationTrace,
)
from ..sinks import TraceHeader, close_sinks, resolve_sinks
from ..values import ABSENT

# Status codes of the compiled executor.  They correspond one-to-one to the
# string statuses of the reference interpreter; integers compare faster.
UNKNOWN = 0
PRESENT = 1
_ABSENT_ST = 2
CONST = 3
PRESUMED = 4

#: Sentinel marking a shared-variable memory slot that was never written.
_NOWRITE = object()

#: Evaluation closure: ``(status, values, state, varmem, instant, warnings,
#: strict) -> (status_code, value)``.
EvalFn = Callable[..., Tuple[int, Any]]
#: Memory-commit closure: ``(status, values, state, varmem, strict) -> None``.
CommitFn = Callable[..., None]


class _Compiler:
    """Per-process compilation context: slot and state allocation."""

    def __init__(self, process: ProcessModel) -> None:
        self.process = process
        self.slot_of: Dict[str, int] = {}
        self.names: List[str] = []
        self.state_init: List[List[Any]] = []
        #: Set when any compiled expression reads a shared variable; a run
        #: without :class:`~repro.sig.expressions.Var` readers can skip the
        #: per-instant shared-memory commit entirely.
        self.uses_varmem = False

    def slot(self, name: str) -> int:
        index = self.slot_of.get(name)
        if index is None:
            index = len(self.names)
            self.slot_of[name] = index
            self.names.append(name)
        return index

    def state_slot(self, initial: List[Any]) -> int:
        self.state_init.append(initial)
        return len(self.state_init) - 1

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------
    def compile(self, expr: Expression) -> Tuple[EvalFn, Optional[CommitFn]]:
        """Compile *expr* into an evaluation closure plus an optional memory
        commit closure (``None`` when the subtree owns no delay/cell state)."""
        if isinstance(expr, SignalRef):
            s = self.slot(expr.name)

            def ev(st, vals, state, varmem, instant, warnings, strict, _s=s):
                code = st[_s]
                if code == PRESENT:
                    return PRESENT, vals[_s]
                return code, ABSENT

            return ev, None

        if isinstance(expr, Var):
            s = self.slot(expr.name)
            self.uses_varmem = True

            def ev(st, vals, state, varmem, instant, warnings, strict, _s=s):
                code = st[_s]
                if code == PRESENT:
                    return PRESENT, vals[_s]
                if code == UNKNOWN or code == PRESUMED:
                    return code, ABSENT
                stored = varmem[_s]
                if stored is not _NOWRITE:
                    return CONST, stored
                return _ABSENT_ST, ABSENT

            return ev, None

        if isinstance(expr, Const):
            value = expr.value

            def ev(st, vals, state, varmem, instant, warnings, strict, _v=value):
                return CONST, _v

            return ev, None

        if isinstance(expr, FunctionApp):
            return self._compile_function(expr)

        if isinstance(expr, Delay):
            return self._compile_delay(expr)

        if isinstance(expr, When):
            return self._compile_when(expr)

        if isinstance(expr, WhenClock):
            return self._compile_when_clock(expr)

        if isinstance(expr, Default):
            return self._compile_default(expr)

        if isinstance(expr, Cell):
            return self._compile_cell(expr)

        if isinstance(expr, ClockOf):
            return self._compile_clock_of(expr)

        if isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
            return self._compile_clock_binop(expr)

        raise TypeError(f"cannot compile expression of type {type(expr).__name__}")

    #: Built-in operators known to be pure, and therefore safe to fold over
    #: constant operands at compile time.  User functions registered through
    #: :func:`repro.sig.expressions.register_stepwise_operation` may be
    #: stateful, so they are always applied at run time like the interpreter
    #: does.
    PURE_OPERATORS = frozenset(
        ["+", "-", "*", "/", "%", "neg", "=", "/=", "<", "<=", ">", ">=",
         "and", "or", "xor", "not", "min", "max", "abs"]
    )

    def _compile_function(self, expr: FunctionApp) -> Tuple[EvalFn, Optional[CommitFn]]:
        # Constant folding: a *pure* stepwise application of constants is a
        # constant.
        if (
            expr.op in self.PURE_OPERATORS
            and expr.args
            and all(isinstance(a, Const) for a in expr.args)
        ):
            try:
                folded = apply_stepwise(expr.op, [a.value for a in expr.args])
            except Exception:
                pass  # fold failed: fall through and fail at run time, like the interpreter
            else:
                return self.compile(Const(folded))

        compiled = [self.compile(a) for a in expr.args]
        subs = tuple(ev for ev, _ in compiled)
        op = expr.op
        if op in self.PURE_OPERATORS:
            func = STEPWISE_OPERATIONS[op]
        else:
            # User-registered (or unknown) operator: resolve at application
            # time so late registration and re-registration behave exactly
            # like the reference interpreter.
            def func(*args, _op=op):
                return apply_stepwise(_op, list(args))

        if len(subs) == 1:
            sub = subs[0]

            def ev(st, vals, state, varmem, instant, warnings, strict):
                code, value = sub(st, vals, state, varmem, instant, warnings, strict)
                if code == PRESENT:
                    return PRESENT, func(value)
                if code == _ABSENT_ST:
                    return _ABSENT_ST, ABSENT
                if code == CONST:
                    return CONST, func(value)
                return UNKNOWN, ABSENT

        elif len(subs) == 2:
            left, right = subs

            def ev(st, vals, state, varmem, instant, warnings, strict):
                lc, lv = left(st, vals, state, varmem, instant, warnings, strict)
                rc, rv = right(st, vals, state, varmem, instant, warnings, strict)
                if lc == UNKNOWN or lc == PRESUMED or rc == UNKNOWN or rc == PRESUMED:
                    return UNKNOWN, ABSENT
                if lc == PRESENT or rc == PRESENT:
                    if lc == _ABSENT_ST or rc == _ABSENT_ST:
                        message = (
                            f"clock violation at instant {instant}: operator {op!r} "
                            "applied to operands that are not all present"
                        )
                        if strict:
                            raise ClockViolation(message)
                        warnings.append(message)
                        return _ABSENT_ST, ABSENT
                    return PRESENT, func(lv, rv)
                if lc == _ABSENT_ST or rc == _ABSENT_ST:
                    return _ABSENT_ST, ABSENT
                return CONST, func(lv, rv)

        else:

            def ev(st, vals, state, varmem, instant, warnings, strict):
                results = [sub(st, vals, state, varmem, instant, warnings, strict) for sub in subs]
                has_unknown = has_present = has_absent = False
                for code, _ in results:
                    if code == UNKNOWN or code == PRESUMED:
                        has_unknown = True
                    elif code == PRESENT:
                        has_present = True
                    elif code == _ABSENT_ST:
                        has_absent = True
                if has_unknown:
                    return UNKNOWN, ABSENT
                if has_present and has_absent:
                    message = (
                        f"clock violation at instant {instant}: operator {op!r} "
                        "applied to operands that are not all present"
                    )
                    if strict:
                        raise ClockViolation(message)
                    warnings.append(message)
                    return _ABSENT_ST, ABSENT
                if has_present:
                    return PRESENT, func(*[v for _, v in results])
                if not has_absent:  # every operand is a constant
                    return CONST, func(*[v for _, v in results])
                return _ABSENT_ST, ABSENT

        return ev, self._merge_commits([c for _, c in compiled])

    def _compile_delay(self, expr: Delay) -> Tuple[EvalFn, Optional[CommitFn]]:
        operand_ev, operand_commit = self.compile(expr.operand)
        init = expr.init
        depth = max(1, expr.depth)
        k = self.state_slot([init] * depth)
        shift = depth > 1

        if isinstance(expr.operand, SignalRef):
            # ``x $ k``: the operand's status and value are read inline.
            s = self.slot(expr.operand.name)

            def ev_ref(st, vals, state, varmem, instant, warnings, strict, _s=s, _k=k, _init=init):
                code = st[_s]
                if code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if code == _ABSENT_ST:
                    return _ABSENT_ST, ABSENT
                if code == CONST:
                    return CONST, _init
                return PRESENT, state[_k][0]

            def commit_ref(st, vals, state, varmem, strict, _s=s, _k=k):
                if st[_s] == PRESENT:
                    buffer = state[_k]
                    if shift:
                        buffer.pop(0)
                        buffer.append(vals[_s])
                    else:
                        buffer[0] = vals[_s]

            return ev_ref, commit_ref

        def ev(st, vals, state, varmem, instant, warnings, strict, _k=k, _init=init):
            code, _ = operand_ev(st, vals, state, varmem, instant, warnings, strict)
            if code == UNKNOWN:
                return UNKNOWN, ABSENT
            if code == _ABSENT_ST:
                return _ABSENT_ST, ABSENT
            if code == CONST:
                return CONST, _init
            # Present, or presumed present through a clock constraint: the
            # delay only needs the *presence* of its operand at this instant.
            return PRESENT, state[_k][0]

        def commit(st, vals, state, varmem, strict, _k=k):
            # Read the operand with the *old* nested state before recursing,
            # so that chained delays shift correctly.
            code, value = operand_ev(st, vals, state, varmem, -1, [], strict)
            if operand_commit is not None:
                operand_commit(st, vals, state, varmem, strict)
            if code == PRESENT:
                buffer = state[_k]
                if shift:
                    buffer.pop(0)
                    buffer.append(value)
                else:
                    buffer[0] = value

        return ev, commit

    def _compile_when(self, expr: When) -> Tuple[EvalFn, Optional[CommitFn]]:
        operand_ev, operand_commit = self.compile(expr.operand)
        cond = expr.condition
        if isinstance(cond, ClockOf) and isinstance(cond.operand, SignalRef):
            # ``e when ^y``: the condition is the presence of ``y``, tested
            # inline; ``^y`` owns no memory.
            c = self.slot(cond.operand.name)

            def ev_clock(st, vals, state, varmem, instant, warnings, strict, _c=c):
                cond_code = st[_c]
                if cond_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if not (cond_code == PRESENT or cond_code == PRESUMED):
                    return _ABSENT_ST, ABSENT
                op_code, op_val = operand_ev(st, vals, state, varmem, instant, warnings, strict)
                if op_code == UNKNOWN or op_code == PRESUMED:
                    return op_code, ABSENT
                if op_code == _ABSENT_ST:
                    return _ABSENT_ST, ABSENT
                return PRESENT, op_val

            return ev_clock, operand_commit

        cond_ev, cond_commit = self.compile(cond)

        def ev(st, vals, state, varmem, instant, warnings, strict):
            cond_code, cond_val = cond_ev(st, vals, state, varmem, instant, warnings, strict)
            if cond_code == UNKNOWN or cond_code == PRESUMED:
                return UNKNOWN, ABSENT
            if cond_code == _ABSENT_ST or not cond_val:
                return _ABSENT_ST, ABSENT
            op_code, op_val = operand_ev(st, vals, state, varmem, instant, warnings, strict)
            if op_code == UNKNOWN or op_code == PRESUMED:
                return op_code, ABSENT
            if op_code == _ABSENT_ST:
                return _ABSENT_ST, ABSENT
            return PRESENT, op_val

        # The reference walks the operand before the condition when it
        # advances memories; keep the same order.
        return ev, self._merge_commits([operand_commit, cond_commit])

    def _compile_when_clock(self, expr: WhenClock) -> Tuple[EvalFn, Optional[CommitFn]]:
        if isinstance(expr.condition, Const):
            # Static clock test: precomputed at compile time.
            if bool(expr.condition.value):
                def ev_true(st, vals, state, varmem, instant, warnings, strict):
                    return PRESENT, True

                return ev_true, None

            def ev_false(st, vals, state, varmem, instant, warnings, strict):
                return _ABSENT_ST, ABSENT

            return ev_false, None

        cond_ev, cond_commit = self.compile(expr.condition)

        def ev(st, vals, state, varmem, instant, warnings, strict):
            cond_code, cond_val = cond_ev(st, vals, state, varmem, instant, warnings, strict)
            if cond_code == UNKNOWN or cond_code == PRESUMED:
                return UNKNOWN, ABSENT
            if (cond_code == PRESENT or cond_code == CONST) and cond_val:
                return PRESENT, True
            return _ABSENT_ST, ABSENT

        return ev, cond_commit

    def _compile_default(self, expr: Default) -> Tuple[EvalFn, Optional[CommitFn]]:
        left_ev, left_commit = self.compile(expr.left)
        if isinstance(expr.right, SignalRef):
            # ``e default x``: the status and value of ``x`` are read inline.
            r = self.slot(expr.right.name)

            def ev_ref(st, vals, state, varmem, instant, warnings, strict, _r=r):
                left_code, left_val = left_ev(st, vals, state, varmem, instant, warnings, strict)
                if left_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if left_code == PRESENT:
                    return PRESENT, left_val
                if left_code == PRESUMED:
                    return PRESUMED, ABSENT
                right_code = st[_r]
                if left_code == CONST:
                    if right_code == UNKNOWN:
                        return UNKNOWN, ABSENT
                    if right_code == PRESENT or right_code == CONST:
                        return right_code, left_val
                    if right_code == PRESUMED:
                        return PRESUMED, ABSENT
                    return CONST, left_val
                if right_code == PRESENT:
                    return PRESENT, vals[_r]
                return right_code, ABSENT

            return ev_ref, left_commit

        right_ev, right_commit = self.compile(expr.right)

        def ev(st, vals, state, varmem, instant, warnings, strict):
            left_code, left_val = left_ev(st, vals, state, varmem, instant, warnings, strict)
            if left_code == UNKNOWN:
                return UNKNOWN, ABSENT
            if left_code == PRESENT:
                return PRESENT, left_val
            if left_code == PRESUMED:
                return PRESUMED, ABSENT
            right_code, right_val = right_ev(st, vals, state, varmem, instant, warnings, strict)
            if left_code == CONST:
                # A constant left branch adapts to the clock of the right one.
                if right_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if right_code == PRESENT or right_code == CONST:
                    return right_code, left_val
                if right_code == PRESUMED:
                    return PRESUMED, ABSENT
                return CONST, left_val
            return right_code, right_val

        return ev, self._merge_commits([left_commit, right_commit])

    def _compile_cell(self, expr: Cell) -> Tuple[EvalFn, Optional[CommitFn]]:
        operand_ev, operand_commit = self.compile(expr.operand)
        cond_ev, cond_commit = self.compile(expr.condition)
        k = self.state_slot([expr.init])

        def ev(st, vals, state, varmem, instant, warnings, strict, _k=k):
            op_code, op_val = operand_ev(st, vals, state, varmem, instant, warnings, strict)
            cond_code, cond_val = cond_ev(st, vals, state, varmem, instant, warnings, strict)
            if op_code == UNKNOWN or cond_code == UNKNOWN or cond_code == PRESUMED:
                return UNKNOWN, ABSENT
            if op_code == PRESUMED:
                return PRESUMED, ABSENT
            if op_code == PRESENT:
                return PRESENT, op_val
            if (cond_code == PRESENT or cond_code == CONST) and cond_val:
                return PRESENT, state[_k][0]
            return _ABSENT_ST, ABSENT

        def commit(st, vals, state, varmem, strict, _k=k):
            code, value = operand_ev(st, vals, state, varmem, -1, [], strict)
            if operand_commit is not None:
                operand_commit(st, vals, state, varmem, strict)
            if cond_commit is not None:
                cond_commit(st, vals, state, varmem, strict)
            if code == PRESENT:
                state[_k][0] = value

        return ev, commit

    def _compile_clock_of(self, expr: ClockOf) -> Tuple[EvalFn, Optional[CommitFn]]:
        if isinstance(expr.operand, Const):
            # The clock of a constant is empty in the reference interpreter.
            def ev_const(st, vals, state, varmem, instant, warnings, strict):
                return _ABSENT_ST, ABSENT

            return ev_const, None

        if isinstance(expr.operand, SignalRef):
            # ``^x``: the status slot is read inline.
            s = self.slot(expr.operand.name)

            def ev_ref(st, vals, state, varmem, instant, warnings, strict, _s=s):
                code = st[_s]
                if code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if code == PRESENT or code == PRESUMED:
                    return PRESENT, True
                return _ABSENT_ST, ABSENT

            return ev_ref, None

        operand_ev, operand_commit = self.compile(expr.operand)

        def ev(st, vals, state, varmem, instant, warnings, strict):
            code, _ = operand_ev(st, vals, state, varmem, instant, warnings, strict)
            if code == UNKNOWN:
                return UNKNOWN, ABSENT
            if code == PRESENT or code == PRESUMED:
                return PRESENT, True
            return _ABSENT_ST, ABSENT

        return ev, operand_commit

    def _compile_clock_binop(self, expr: Expression) -> Tuple[EvalFn, Optional[CommitFn]]:
        if (
            isinstance(expr, ClockUnion)
            and isinstance(expr.left, SignalRef)
            and isinstance(expr.right, SignalRef)
        ):
            # ``x ^+ y``: both statuses are read inline.
            l, r = self.slot(expr.left.name), self.slot(expr.right.name)

            def ev_refs(st, vals, state, varmem, instant, warnings, strict, _l=l, _r=r):
                left_code = st[_l]
                right_code = st[_r]
                if (
                    left_code == PRESENT
                    or left_code == PRESUMED
                    or right_code == PRESENT
                    or right_code == PRESUMED
                ):
                    return PRESENT, True
                if left_code == UNKNOWN or right_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                return _ABSENT_ST, ABSENT

            return ev_refs, None

        left_ev, left_commit = self.compile(expr.left)
        right_ev, right_commit = self.compile(expr.right)

        if isinstance(expr, ClockUnion):
            def ev(st, vals, state, varmem, instant, warnings, strict):
                left_code, _ = left_ev(st, vals, state, varmem, instant, warnings, strict)
                right_code, _ = right_ev(st, vals, state, varmem, instant, warnings, strict)
                if (
                    left_code == PRESENT
                    or left_code == PRESUMED
                    or right_code == PRESENT
                    or right_code == PRESUMED
                ):
                    return PRESENT, True
                if left_code == UNKNOWN or right_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                return _ABSENT_ST, ABSENT

        elif isinstance(expr, ClockIntersection):
            def ev(st, vals, state, varmem, instant, warnings, strict):
                left_code, _ = left_ev(st, vals, state, varmem, instant, warnings, strict)
                right_code, _ = right_ev(st, vals, state, varmem, instant, warnings, strict)
                if left_code == _ABSENT_ST or right_code == _ABSENT_ST:
                    return _ABSENT_ST, ABSENT
                if left_code == UNKNOWN or right_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if (left_code == PRESENT or left_code == PRESUMED) and (
                    right_code == PRESENT or right_code == PRESUMED
                ):
                    return PRESENT, True
                return _ABSENT_ST, ABSENT

        else:  # ClockDifference
            def ev(st, vals, state, varmem, instant, warnings, strict):
                left_code, _ = left_ev(st, vals, state, varmem, instant, warnings, strict)
                right_code, _ = right_ev(st, vals, state, varmem, instant, warnings, strict)
                if left_code == _ABSENT_ST:
                    return _ABSENT_ST, ABSENT
                if left_code == UNKNOWN or right_code == UNKNOWN:
                    return UNKNOWN, ABSENT
                if (left_code == PRESENT or left_code == PRESUMED) and not (
                    right_code == PRESENT or right_code == PRESUMED
                ):
                    return PRESENT, True
                return _ABSENT_ST, ABSENT

        return ev, self._merge_commits([left_commit, right_commit])

    @staticmethod
    def _merge_commits(commits: Sequence[Optional[CommitFn]]) -> Optional[CommitFn]:
        active = [c for c in commits if c is not None]
        if not active:
            return None
        if len(active) == 1:
            return active[0]

        def merged(st, vals, state, varmem, strict, _active=tuple(active)):
            for commit in _active:
                commit(st, vals, state, varmem, strict)

        return merged


#: Built-in pure stepwise operators (safe to fold at compile time and to
#: vectorise over instant blocks); re-exported for the vectorized backend.
PURE_OPERATORS = _Compiler.PURE_OPERATORS


class TargetPlan:
    """Pre-resolved definition set of one equation target."""

    __slots__ = ("name", "slot", "declared", "evaluators")

    def __init__(self, name: str, slot: int, declared: bool, evaluators: List[EvalFn]) -> None:
        self.name = name
        self.slot = slot
        self.declared = declared
        self.evaluators = evaluators

    def resolve(self, st, vals, state, varmem, instant, warnings, strict) -> Tuple[bool, Any]:
        """Resolve a multiply-defined target (partial definitions).

        Single-definition targets — the overwhelmingly common case — are
        inlined in :meth:`ExecutionPlan.run` and never reach this method.
        """
        results: List[Tuple[int, Any]] = []
        for evaluator in self.evaluators:
            code, value = evaluator(st, vals, state, varmem, instant, warnings, strict)
            if code == UNKNOWN or code == PRESUMED:
                return False, ABSENT
            results.append((code, value))
        present = [value for code, value in results if code == PRESENT]
        if not present:
            return True, ABSENT
        distinct = {repr(value) for value in present}
        if len(distinct) > 1:
            message = (
                f"non-deterministic definition of {self.name!r} at instant {instant}: "
                + ", ".join(sorted(distinct))
            )
            if strict:
                raise NonDeterministicDefinition(message)
            warnings.append(message)
        return True, present[0]


@dataclass
class PlanStatistics:
    """Compile-time shape of an execution plan (for reports and tests)."""

    signals: int
    targets: int
    equations: int
    state_slots: int
    sync_groups: int
    acyclic_dependencies: bool

    def summary(self) -> str:
        """One line describing the compiled plan's shape."""
        graph = "acyclic" if self.acyclic_dependencies else "cyclic"
        return (
            f"execution plan: {self.signals} signal slots, {self.targets} targets "
            f"({self.equations} equations, {graph} dependency graph), "
            f"{self.state_slots} memory slots, {self.sync_groups} synchronisation groups"
        )


class ExecutionPlan:
    """A process lowered to slot-indexed, topologically ordered instructions.

    Build one with :func:`compile_plan`; run scenarios with :meth:`run`.
    A plan holds no mutable per-run state: every run allocates its own
    status/value/memory arrays, so one plan can be shared freely across
    scenarios and batch worker processes.
    """

    def __init__(self, process: ProcessModel) -> None:
        if process.instances or process.submodels:
            process = process.flatten()
        self.process = process

        compiler = _Compiler(process)
        declared = process.signals

        # Declared signals claim the first slots, in declaration order, so
        # slot indices are stable and readable in debug dumps.
        for name in declared:
            compiler.slot(name)

        # Group equations by target in first-appearance order (the reference
        # interpreter's resolution units), compiling each definition once.
        grouped: Dict[str, List[EvalFn]] = {}
        commits: List[CommitFn] = []
        delay_candidates: Dict[str, Tuple[int, Any, str]] = {}
        delay_commit_candidates: Dict[str, int] = {}
        for eq in process.equations:
            state_base = len(compiler.state_init)
            evaluator, commit = compiler.compile(eq.expr)
            grouped.setdefault(eq.target, []).append(evaluator)
            compiler.slot(eq.target)
            if commit is not None:
                commits.append(commit)
            expr = eq.expr
            if (
                isinstance(expr, Delay)
                and isinstance(expr.operand, SignalRef)
                and max(1, expr.depth) == 1
            ):
                # A bare unit delay of a plain signal: its state slot is the
                # first one this equation allocated (the operand allocates
                # none), which is what the vectorized backend's recurrence
                # scan kernels need to seed and verify.
                delay_candidates[eq.target] = (state_base, expr.init, expr.operand.name)
                # A bare delay always produces exactly one commit, appended
                # just above: its position lets the recurrence scans replace
                # the per-instant state advance with one block-level write.
                delay_commit_candidates[eq.target] = len(commits) - 1
        self._commits = tuple(commits)
        #: ``target -> (state_slot, init, operand_name)`` for every
        #: single-definition target defined by a bare depth-1 delay of a
        #: plain signal reference.  The vectorized backend uses this map to
        #: detect delay recurrences (accumulators, counters) it can promote
        #: into scan kernels; everything else is opaque delay state.
        self.delay_memories: Dict[str, Tuple[int, Any, str]] = {
            target: info
            for target, info in delay_candidates.items()
            if len(grouped[target]) == 1
        }
        #: ``target -> index into the per-instant commit tuple`` for the
        #: same bare delays: a promoted scan advances the state slot once
        #: per block instead, so the vectorized executor drops the delay's
        #: per-instant commit from its vector path (the fallback path keeps
        #: the full tuple).
        self._delay_commit_index: Dict[str, int] = {
            target: index
            for target, index in delay_commit_candidates.items()
            if target in self.delay_memories
        }

        # Constraint operands may reference otherwise-unknown names.
        self._sync_groups = self._compile_sync_groups(process, compiler)

        # Resolution follows the reference interpreter's order (first
        # appearance of each target) so the fixed-point trajectory — and with
        # it every warning and error — is reproduced exactly.  The dependency
        # graph records whether the instantaneous dependencies are acyclic
        # (they are for well-formed models, making the sweep converge fast).
        graph = build_dependency_graph(process, include_clock_edges=False)
        self.acyclic_dependencies = graph.topological_order() is not None
        self.targets: List[TargetPlan] = [
            TargetPlan(name, compiler.slot(name), name in declared, grouped[name])
            for name in grouped
        ]

        self.names = compiler.names
        self.slot_of = compiler.slot_of
        self._state_init = compiler.state_init
        self._equation_count = len(process.equations)
        #: ``True`` when some expression reads a shared variable; without
        #: readers the per-instant ``varmem`` commit is dead code and skipped.
        self.uses_varmem = compiler.uses_varmem

        self._nowrite_template = [_NOWRITE] * len(self.names)

        # Per-instant status template.  Declared inputs are scenario-driven
        # even when equations define them (the reference interpreter gives
        # the scenario priority and never resolves such targets).
        template = [_ABSENT_ST] * len(self.names)
        self._input_slots: List[Tuple[int, str]] = []
        input_names = set()
        for name, decl in declared.items():
            if decl.direction is Direction.INPUT:
                input_names.add(name)
                self._input_slots.append((self.slot_of[name], name))
        for target in self.targets:
            if target.declared and target.name not in input_names:
                template[target.slot] = UNKNOWN
        self._status_template = template

        # Pre-resolved work items of the per-instant sweep, in resolution
        # order: (slot, declared, single-definition evaluator or None,
        # target).  Declared inputs are never resolved (scenario wins).
        self._work: Tuple[Tuple[int, bool, Optional[EvalFn], TargetPlan], ...] = tuple(
            (
                target.slot,
                target.declared,
                target.evaluators[0] if len(target.evaluators) == 1 else None,
                target,
            )
            for target in self.targets
            if not (target.declared and target.name in input_names)
        )

    # ------------------------------------------------------------------
    # pickling: a plan is a pure function of its (picklable) process model,
    # so it travels as the model and recompiles itself on arrival.  This is
    # what lets spawn-based multiprocessing workers receive a plan even
    # though the compiled closures themselves cannot be pickled.
    def __getstate__(self) -> Dict[str, Any]:
        return {"process": self.process}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["process"])

    # ------------------------------------------------------------------
    def statistics(self) -> PlanStatistics:
        """Compile-time shape of this plan (slot/target/memory counts)."""
        return PlanStatistics(
            signals=len(self.names),
            targets=len(self.targets),
            equations=self._equation_count,
            state_slots=len(self._state_init),
            sync_groups=len(self._sync_groups),
            acyclic_dependencies=self.acyclic_dependencies,
        )

    @staticmethod
    def _compile_sync_groups(
        process: ProcessModel, compiler: _Compiler
    ) -> List[Tuple[Tuple[int, ...], str]]:
        """``^=`` groups as slot tuples plus their pre-sorted name list."""
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
        return [
            (tuple(compiler.slot(name) for name in members), ", ".join(sorted(members)))
            for members in groups.values()
            if len(members) > 1
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        scenario: Scenario,
        record: Optional[Iterable[str]] = None,
        strict: bool = True,
        sinks: Optional[Sequence[Any]] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Execute *scenario* and record the requested signals.

        Semantics (flows, warnings of record, raised errors) match the
        reference interpreter; see :class:`repro.sig.simulator.Simulator`.

        Each resolved instant is pushed to the *sinks* (see
        :mod:`repro.sig.sinks`).  Without *sinks* the run drives one
        :class:`~repro.sig.sinks.MaterializeSink` and returns its trace;
        with *sinks* it returns ``None`` (an *empty* list runs the scenario
        for its effects — errors, warnings — only).

        *length* overrides the scenario's default horizon (required for
        unbounded scenarios).
        """
        length = scenario.run_length(length)
        recorded = list(record) if record is not None else list(self.process.signals)
        warnings: List[str] = []
        sink_list, materialize = resolve_sinks(sinks)

        declared = self.process.signals
        driven, driven_slots, scenario_only = self._bind_scenario(scenario)
        # One precompiled sampling closure per driven slot: the symbolic
        # rules are evaluated lazily, never expanded into per-instant lists.
        sampled = [(slot, rule.sampler()) for slot, rule in driven]

        # Scenario-driven undeclared targets are not resolved (scenario wins).
        base_work = [item for item in self._work if item[0] not in driven_slots]

        read_row = self._row_reader(self._build_record_plan(recorded, scenario_only))

        state = [list(template) for template in self._state_init]
        varmem = list(self._nowrite_template)
        status_template = self._status_template
        n_slots = len(self.names)
        finish_instant = self._finish_instant

        try:
            # Inside the guarded region: a sink raising in on_header must
            # not leave earlier sinks' file handles open.
            header = TraceHeader(
                process_name=self.process.name,
                length=length,
                signals=tuple(recorded),
                types={name: decl.type for name, decl in declared.items()},
                warnings=warnings,
            )
            for sink in sink_list:
                sink.on_header(header)
            from .supervisor import current_guard

            guard = current_guard()
            guard_check = guard.check if guard is not None else None
            for instant in range(length):
                if guard_check is not None:
                    guard_check(instant)
                st = list(status_template)
                vals: List[Any] = [ABSENT] * n_slots
                for slot, sample in sampled:
                    value = sample(instant)
                    st[slot] = _ABSENT_ST if value is ABSENT else PRESENT
                    vals[slot] = value

                self._resolve_instant(
                    st, vals, state, varmem, instant, warnings, strict, base_work
                )
                finish_instant(st, vals, state, varmem, strict)

                if sink_list:
                    row = read_row(instant, vals)
                    for sink in sink_list:
                        sink.on_instant(instant, row)
        finally:
            # Sinks close whatever happens, so file-backed sinks flush even
            # when the run aborts on a simulation error.
            close_sinks(sink_list)
        return materialize.trace if materialize is not None else None

    def _bind_scenario(
        self, scenario: Scenario
    ) -> Tuple[List[Tuple[int, InputRule]], set, Dict[str, InputRule]]:
        """Split a scenario's input program into slot-driven rules and
        scenario-only recorded fallbacks.

        Scenario rules drive declared inputs and undeclared-but-referenced
        names; rules for declared non-input signals are ignored, exactly as
        in the reference interpreter.  Shared by :meth:`run` and the
        vectorized executor so input precedence lives in one place.
        Returns ``(driven, driven_slots, scenario_only)``: the
        ``(slot, rule)`` pairs to drive, the *undeclared* driven slots
        (whose work items the sweep must skip — scenario wins), and the
        rules of recorded names that have no slot at all.
        """
        driven: List[Tuple[int, InputRule]] = []
        driven_slots: set = set()
        scenario_only: Dict[str, InputRule] = {}
        declared = self.process.signals
        slot_of = self.slot_of
        for slot, name in self._input_slots:
            rule = scenario.inputs.get(name)
            if rule is not None:
                driven.append((slot, rule))
        for name, rule in scenario.inputs.items():
            if name in declared:
                continue
            slot = slot_of.get(name)
            if slot is None:
                scenario_only[name] = rule
                continue
            driven.append((slot, rule))
            driven_slots.add(slot)
        return driven, driven_slots, scenario_only

    def _build_record_plan(
        self,
        recorded: List[str],
        scenario_only: Dict[str, InputRule],
    ) -> List[Tuple[Optional[int], Optional[Sampler]]]:
        """Per-recorded-name source: ``(slot, fallback sampler)``.

        A recorded name without a slot reads its scenario rule's sampler,
        and stays ⊥ when it has neither.  Shared by :meth:`run` and the
        vectorized executor.
        """
        record_plan: List[Tuple[Optional[int], Optional[Sampler]]] = []
        for name in recorded:
            slot = self.slot_of.get(name)
            fallback_rule = scenario_only.get(name) if slot is None else None
            record_plan.append(
                (slot, fallback_rule.sampler() if fallback_rule is not None else None)
            )
        return record_plan

    @staticmethod
    def _row_reader(
        record_plan: List[Tuple[Optional[int], Optional[Sampler]]]
    ) -> Callable[[int, List[Any]], Tuple[Any, ...]]:
        """``(instant, vals) -> row``: the recorded values of one instant."""

        def read(instant: int, vals: List[Any]) -> Tuple[Any, ...]:
            return tuple([
                vals[slot]
                if slot is not None
                else (fallback(instant) if fallback is not None else ABSENT)
                for slot, fallback in record_plan
            ])

        return read

    def _finish_instant(self, st, vals, state, varmem, strict) -> None:
        """Advance the delay/cell memories and the shared-variable
        write-through after one resolved instant.

        Shared by :meth:`run` and the vectorized executor's hybrid and
        fallback loops, so commit ordering and the ``uses_varmem`` skip live
        in exactly one place.
        """
        for commit in self._commits:
            commit(st, vals, state, varmem, strict)
        if self.uses_varmem:
            for slot, code in enumerate(st):
                if code == PRESENT:
                    varmem[slot] = vals[slot]

    _BARE_CONSTANT = (
        "signal {name!r} defined by a bare constant has no clock; treated as absent"
    )

    def _resolve_instant(
        self, st, vals, state, varmem, instant, warnings, strict, work
    ) -> None:
        """Resolve one instant's statuses and values in place.

        Sweeps the *work* targets in the reference interpreter's order,
        keeping only the unresolved ones for the next sweep, with ``^=``
        clock propagation after each sweep — the same trajectory (and hence
        the same warnings and errors) as the reference fixed point.  Shared
        by :meth:`run` and the vectorized backend's residual sweep
        (:mod:`repro.sig.engine.vectorized`).
        """
        unresolved = self._sweep_worklist(
            st, vals, state, varmem, instant, warnings, strict, work, self._sync_groups
        )
        if unresolved:
            self._raise_blocked(st, unresolved, instant)

    def _sweep_worklist(
        self, st, vals, state, varmem, instant, warnings, strict, work, groups
    ) -> List[Tuple[int, bool, Optional[EvalFn], TargetPlan]]:
        """Run one worklist to its fixed point, propagating only *groups*.

        The body of :meth:`_resolve_instant`, parameterised over the ``^=``
        groups so the vectorized backend's residue *clusters* can sweep an
        independent sub-worklist with propagation confined to the groups
        that touch it.  Returns the targets still unresolved at the fixed
        point (the caller decides whether that is an instantaneous cycle).
        """
        propagate_sync = self._propagate_sync_groups
        bare_constant = self._BARE_CONSTANT
        unresolved = work
        progress = True
        while progress:
            progress = False
            still: List[Tuple[int, bool, Optional[EvalFn], TargetPlan]] = []
            for item in unresolved:
                slot, is_declared, single, target = item
                if is_declared:
                    code = st[slot]
                    if code == PRESENT or code == _ABSENT_ST:
                        # Settled by a synchronisation group: drop the item,
                        # but (like the reference) this is not resolution
                        # progress.
                        continue
                if single is not None:
                    code, value = single(st, vals, state, varmem, instant, warnings, strict)
                    if code == UNKNOWN or code == PRESUMED:
                        still.append(item)
                        continue
                    if code == PRESENT:
                        st[slot] = PRESENT
                        vals[slot] = value
                    else:
                        if code == CONST:
                            # A lone constant definition has no clock of its
                            # own; report it once per instant.
                            warnings.append(bare_constant.format(name=target.name))
                        st[slot] = _ABSENT_ST
                else:
                    resolved, value = target.resolve(
                        st, vals, state, varmem, instant, warnings, strict
                    )
                    if not resolved:
                        still.append(item)
                        continue
                    if value is ABSENT:
                        st[slot] = _ABSENT_ST
                    else:
                        st[slot] = PRESENT
                        vals[slot] = value
                progress = True
            unresolved = still
            if propagate_sync(st, instant, warnings, strict, groups):
                progress = True
        return unresolved

    def _raise_blocked(self, st, unresolved, instant) -> None:
        """Raise :class:`InstantaneousCycle` for still-blocked declared targets.

        Reports unresolved *declared* signals in declaration order, as the
        reference interpreter's status dictionary does.  No-op when every
        leftover is undeclared (those stay absent, like the reference).
        """
        blocked_slots = {
            item[0]
            for item in unresolved
            if item[1] and st[item[0]] in (UNKNOWN, PRESUMED)
        }
        if blocked_slots:
            slot_of = self.slot_of
            blocked = [
                name for name in self.process.signals if slot_of[name] in blocked_slots
            ]
            raise InstantaneousCycle(instant, blocked)

    def _propagate_sync(self, st, instant, warnings, strict) -> bool:
        return self._propagate_sync_groups(st, instant, warnings, strict, self._sync_groups)

    @staticmethod
    def _propagate_sync_groups(st, instant, warnings, strict, groups) -> bool:
        changed = False
        for slots, names in groups:
            has_present = has_absent = False
            for slot in slots:
                code = st[slot]
                if code == PRESENT or code == PRESUMED:
                    has_present = True
                elif code == _ABSENT_ST:
                    has_absent = True
            if has_present and has_absent:
                message = (
                    f"clock constraint violation at instant {instant}: signals "
                    f"{names} are declared synchronous but disagree"
                )
                if strict:
                    raise ClockViolation(message)
                warnings.append(message)
                continue
            if has_present:
                for slot in slots:
                    if st[slot] == UNKNOWN:
                        st[slot] = PRESUMED
                        changed = True
            elif has_absent:
                for slot in slots:
                    if st[slot] == UNKNOWN:
                        st[slot] = _ABSENT_ST
                        changed = True
        return changed


def compile_plan(process: ProcessModel) -> ExecutionPlan:
    """Lower *process* (flattened on the fly if needed) to an :class:`ExecutionPlan`."""
    return ExecutionPlan(process)


__all__ = [
    "CommitFn",
    "EvalFn",
    "ExecutionPlan",
    "PlanStatistics",
    "TargetPlan",
    "compile_plan",
]
