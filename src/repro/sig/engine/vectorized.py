"""Vectorized block-execution backend: numpy kernels over instant blocks.

The compiled execution plan (:mod:`repro.sig.engine.plan`) removed the
per-instant *bookkeeping* of the reference interpreter, but it still pays
one Python closure tree per equation per instant, so simulation cost stays
``O(instants x equations)`` in interpreter dispatch.  This module removes
that dispatch for the part of the model that does not need it.

A :func:`compile_vectorized` pass partitions the plan's equations into
four strata.  *Vectorisable* targets are single-definition *declared*
targets whose expressions are built only from pure stepwise operators,
sampling (``when``), merge (``default``), clock operators, constants and
signal reads; they are compiled to columnar numpy kernels — native
float64/bool ufuncs where the operand columns are runtime-validated to hold
exactly Python ``float``/``bool`` values, ``np.frompyfunc`` over the exact
:data:`~repro.sig.expressions.STEPWISE_OPERATIONS` callables otherwise —
and evaluated for a whole **instant block** at once:

* the **pre-sweep stratum** reads only scenario inputs, non-target signals
  and other pre-stratum targets, and runs before any per-instant work;
* the **recurrence stratum** holds delay/feedback pairs ``z = y $ 1``,
  ``y = f(z, ...)`` whose step is a pure value expression over z and
  block-available operands, or that step sampled, ``y = f(z, ...) when
  ^c`` (the scheduler's event counters ``index := (zindex + 1) when
  ^tick``): they are executed as **scan kernels** over the
  block (an ``np.add.accumulate`` prefix scan for affine steps
  ``y = z ± e``, a tight generated scalar loop otherwise), unblocking the
  pre-sweep targets that read them; promotion requires a synchronisation
  group proving the pair's clock, and any run-time clock disagreement —
  ``c`` included — falls back to the interpreted sweep for the block;
* the **residual sweep** is everything stateful or order-sensitive —
  delays, cells, shared variables, multi-definition targets, undeclared
  targets, user-registered operators, instantaneous cycles — and runs
  through the plan's ordinary per-instant sweep, reading the pre-filled
  vectorised columns.  With ``cluster_residue=True`` (default) the sweep
  is partitioned into independent **residue clusters** (connected
  components of the read/synchronisation graph), each swept separately
  with its own worklist; a stateless cluster whose external inputs are
  unchanged from the previous instant is **skipped** by copying its
  previous row;
* the **post-sweep stratum** holds vectorisable targets that nothing in
  the residue observes (no readers outside the stratum, no ``^=``
  membership, no shared-variable reads); it runs block-wise after the
  residual sweep, over the written-back residual columns.

Bit-identity with the ``compiled``/``reference`` backends is guaranteed by
construction on the warning-free path (both compute the same unique fixed
point) and by **fallback** everywhere else: the block executor detects every
situation in which the reference trajectory is observable — a clock
violation inside a vectorised expression, a bare-constant definition, any
warning or simulation error raised by the residual sweep — rewinds the
block to its entry state and replays it through the pure per-instant sweep,
which reproduces warnings, errors and partial sink output in exact
reference order.  A replayed block reaches the sinks instant by instant.
A block that validates reaches a run's *only* sink in one
:meth:`~repro.sig.sinks.TraceSink.on_block` call with a column per
recorded name when that sink overrides ``on_block`` (the materialising
sink extends its flows column-wise); every other run gets the block
instant by instant, so each sink sees instant *t* before any sink sees
*t + 1* and a sink that aborts the run leaves the same partial output as
on the compiled backend.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..expressions import (
    ClockDifference,
    ClockIntersection,
    ClockOf,
    ClockUnion,
    Const,
    Default,
    Expression,
    FunctionApp,
    STEPWISE_OPERATIONS,
    SignalRef,
    Var,
    When,
    WhenClock,
    free_signals,
)
from ..process import ProcessModel
from ..scenario import Scenario
from ..simulator import SimulationTrace
from ..sinks import TraceHeader, TraceSink, close_sinks, resolve_sinks
from ..values import ABSENT, SignalKind
from .backends import BACKENDS, SimulationBackend, SinkOrSinks
from .plan import (
    CONST,
    ExecutionPlan,
    PRESENT,
    PRESUMED,
    PURE_OPERATORS,
    UNKNOWN,
    _ABSENT_ST,
    compile_plan,
)

#: Default number of instants evaluated per block.
DEFAULT_BLOCK_SIZE = 1024


class _FallbackBlock(Exception):
    """Internal signal: this block must be replayed through the pure sweep."""


#: The ``frompyfunc(bool)`` kernel used for sampling conditions.
_BOOL_KERNEL = _np.frompyfunc(bool, 1, 1)


#: Runtime *kind* of a value column: generic Python objects, native float64
#: (every present value is exactly a Python ``float``) or native bool (every
#: present value is exactly a Python ``bool`` — or ``True`` for events).
#: Typed columns run native numpy kernels; ``.tolist()`` at the conversion
#: boundary turns their entries back into the exact Python objects the
#: interpreter would have produced, so traces stay bit-identical.
_OBJ, _FLT, _BOOL = 0, 1, 2


def _np_min(a, b):
    """Python ``min(a, b)`` over float64 columns, NaN ordering included."""
    return _np.where(b < a, b, a)


def _np_max(a, b):
    """Python ``max(a, b)`` over float64 columns, NaN ordering included."""
    return _np.where(b > a, b, a)


#: One object-dtype ufunc per stepwise callable and arity, shared by kernels.
_ufunc = functools.lru_cache(maxsize=256)(lambda func, arity: _np.frompyfunc(func, arity, 1))


#: ``op -> (numpy impl, operand kind, result kind)`` for the native kernels
#: whose results are element-for-element identical to the Python stepwise
#: operators (``/`` and ``%`` are excluded: they raise on zero divisors
#: where numpy would not).
_TYPED_OPS: Dict[str, Tuple[Any, int, int]] = {
    "+": (_np.add, _FLT, _FLT),
    "-": (_np.subtract, _FLT, _FLT),
    "*": (_np.multiply, _FLT, _FLT),
    "neg": (_np.negative, _FLT, _FLT),
    "abs": (_np.absolute, _FLT, _FLT),
    "min": (_np_min, _FLT, _FLT),
    "max": (_np_max, _FLT, _FLT),
    "<": (_np.less, _FLT, _BOOL),
    "<=": (_np.less_equal, _FLT, _BOOL),
    ">": (_np.greater, _FLT, _BOOL),
    ">=": (_np.greater_equal, _FLT, _BOOL),
    "=": (_np.equal, _FLT, _BOOL),
    "/=": (_np.not_equal, _FLT, _BOOL),
    "and": (_np.logical_and, _BOOL, _BOOL),
    "or": (_np.logical_or, _BOOL, _BOOL),
    "xor": (_np.logical_xor, _BOOL, _BOOL),
    "not": (_np.logical_not, _BOOL, _BOOL),
}


def _object_column(values, kind):
    """Coerce a typed column to object dtype holding plain Python values."""
    if kind == _OBJ:
        return values
    return _np.array(values.tolist(), dtype=object)


class _BlockContext:
    """Per-block evaluation state shared by all vector kernels.

    ``st``/``vals`` are the ``(block, slots)`` status / value arrays of the
    block being evaluated; statuses are small integers (the plan's codes),
    values are *object*-dtype so every produced value stays the exact Python
    object the interpreter would have produced.  ``typed`` additionally maps
    a slot to its native float64/bool column when one exists (validated
    inputs, typed kernel results) — entries are only meaningful where the
    slot's status is present.
    """

    __slots__ = ("st", "vals", "size", "typed", "_true_bool", "_status_cache")

    def __init__(self, st, vals, size: int) -> None:
        self.st = st
        self.vals = vals
        self.size = size
        self.typed: Dict[int, Any] = {}
        self._true_bool = None
        self._status_cache: Dict[int, Any] = {}

    def true_bool(self):
        """Shared read-only native bool column holding ``True`` everywhere."""
        if self._true_bool is None:
            self._true_bool = _np.ones(self.size, dtype=bool)
        return self._true_bool

    def full_status(self, code: int):
        """Shared read-only status column holding *code* everywhere."""
        cached = self._status_cache.get(code)
        if cached is None:
            cached = _np.full(self.size, code, dtype=_np.int64)
            self._status_cache[code] = cached
        return cached

    def absent_values(self):
        """A fresh object column pre-filled with ``ABSENT``."""
        col = _np.empty(self.size, dtype=object)
        col.fill(ABSENT)
        return col

    def truthy(self, values, kind, mask):
        """Boolean column: ``bool(values[i])`` where *mask*, ``False`` elsewhere."""
        if kind == _BOOL:
            return mask & values
        if kind == _FLT:
            # bool(x) for a float is x != 0; NaN is truthy in both worlds.
            return mask & (values != 0.0)
        out = _np.zeros(self.size, dtype=bool)
        idx = mask.nonzero()[0]
        if idx.size:
            out[idx] = _BOOL_KERNEL(values[idx]).astype(bool)
        return out


#: A compiled vector node: ``(ctx, eval_mask) -> (status_col, value_col,
#: kind)``.  ``eval_mask`` marks the instants at which the reference closure
#: would be *evaluated* (short-circuiting of ``when``/``default`` narrows
#: it); the returned status column is meaningful within that mask, the value
#: column wherever the status is present or constant within it.
VectorFn = Callable[[Any, Any], Tuple[Any, Any, int]]


def _structurally_vectorizable(expr: Expression) -> bool:
    """Shape check: no state, no user operators, no shared variables."""
    if isinstance(expr, (SignalRef, Const)):
        return True
    if isinstance(expr, FunctionApp):
        return (
            bool(expr.args)
            and expr.op in PURE_OPERATORS
            and all(_structurally_vectorizable(a) for a in expr.args)
        )
    if isinstance(expr, When):
        return _structurally_vectorizable(expr.operand) and _structurally_vectorizable(
            expr.condition
        )
    if isinstance(expr, WhenClock):
        return _structurally_vectorizable(expr.condition)
    if isinstance(expr, Default):
        return _structurally_vectorizable(expr.left) and _structurally_vectorizable(
            expr.right
        )
    if isinstance(expr, ClockOf):
        return _structurally_vectorizable(expr.operand)
    if isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
        return _structurally_vectorizable(expr.left) and _structurally_vectorizable(
            expr.right
        )
    # Delay, Cell, Var and anything unknown stay in the residual sweep.
    return False


def _may_be_const(expr: Expression) -> bool:
    """Can this (vectorisable) expression evaluate to a *constant* status?

    A top-level constant status makes the plan emit the bare-constant
    warning at that instant, which would force a fallback on every block
    containing one; such targets are cheaper to keep in the residual sweep
    from the start.  Conservative over-approximation.
    """
    if isinstance(expr, Const):
        return True
    if isinstance(expr, SignalRef):
        return False
    if isinstance(expr, FunctionApp):
        return all(_may_be_const(a) for a in expr.args)
    if isinstance(expr, Default):
        return _may_be_const(expr.left) or _may_be_const(expr.right)
    # When / WhenClock / ClockOf / clock set operators are present-or-absent.
    return False


class _VectorCompiler:
    """Compile vectorisable expressions into columnar numpy kernels.

    Each kernel mirrors the corresponding closure of
    :class:`~repro.sig.engine.plan._Compiler` over a whole instant block,
    including the exact short-circuit structure (the ``eval_mask``), and
    raises :class:`_FallbackBlock` whenever the closure would have emitted a
    warning — the block is then replayed through the pure sweep.

    Kernels dispatch on the runtime *kind* of their operand columns:
    float64/bool columns (validated scenario inputs, earlier typed results)
    run native numpy ufuncs, everything else runs ``frompyfunc`` over the
    exact :data:`~repro.sig.expressions.STEPWISE_OPERATIONS` callables.
    """

    def __init__(self, slot_of: Dict[str, int]) -> None:
        self.slot_of = slot_of

    def compile(self, expr: Expression) -> VectorFn:
        if isinstance(expr, SignalRef):
            s = self.slot_of[expr.name]

            def ev_ref(ctx, em, _s=s):
                typed = ctx.typed.get(_s)
                if typed is None:
                    return ctx.st[:, _s], ctx.vals[:, _s], _OBJ
                return ctx.st[:, _s], typed[0], typed[1]

            return ev_ref

        if isinstance(expr, Const):
            value = expr.value
            # NaN stays on the object path: the closure hands out the *same*
            # object every instant, and a typed column would re-materialise
            # it through ``.tolist()``, breaking ``==``-comparability of the
            # produced flows (NaN compares equal only by identity).
            if type(value) is float and value == value:
                def ev_const_f(ctx, em, _v=value):
                    return ctx.full_status(CONST), _np.full(ctx.size, _v), _FLT

                return ev_const_f
            if type(value) is bool:
                def ev_const_b(ctx, em, _v=value):
                    return (
                        ctx.full_status(CONST),
                        _np.full(ctx.size, _v, dtype=bool),
                        _BOOL,
                    )

                return ev_const_b

            def ev_const(ctx, em, _v=value):
                vals = _np.empty(ctx.size, dtype=object)
                vals.fill(_v)
                return ctx.full_status(CONST), vals, _OBJ

            return ev_const

        if isinstance(expr, FunctionApp):
            return self._compile_function(expr)
        if isinstance(expr, When):
            return self._compile_when(expr)
        if isinstance(expr, WhenClock):
            return self._compile_when_clock(expr)
        if isinstance(expr, Default):
            return self._compile_default(expr)
        if isinstance(expr, ClockOf):
            return self._compile_clock_of(expr)
        if isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
            return self._compile_clock_binop(expr)
        raise TypeError(f"cannot vectorise expression of type {type(expr).__name__}")

    def _compile_function(self, expr: FunctionApp) -> VectorFn:
        # Constant operands travel as Python scalars (ufuncs and frompyfunc
        # broadcast them), so ``x * 0.6``-style stages cost one kernel
        # application and no constant columns.  A constant operand has
        # status CONST at every instant, so it never participates in
        # presence conflicts either.
        func = STEPWISE_OPERATIONS[expr.op]
        kernel = _ufunc(func, len(expr.args))
        args: List[Tuple[bool, Any]] = [
            (True, a.value) if isinstance(a, Const) else (False, self.compile(a))
            for a in expr.args
        ]
        dynamic = [index for index, (is_const, _) in enumerate(args) if not is_const]

        typed = _TYPED_OPS.get(expr.op)
        if typed is not None and len(expr.args) <= 2:
            typed_impl, operand_kind, result_kind = typed
            const_type = float if operand_kind == _FLT else bool
            if any(
                is_const and type(value) is not const_type for is_const, value in args
            ):
                typed_impl = None  # a constant of the wrong type: object path
        else:
            typed_impl = operand_kind = result_kind = None

        if not dynamic:
            # All-constant application (the plan folds these, the closure
            # applies them anew every instant): constant status, one shared
            # application per block.  A raising application propagates and
            # falls the block back, exactly like the closure would raise.
            values = tuple(value for _, value in args)

            def ev_folded(ctx, em, _values=values):
                if not bool(em.any()):
                    return ctx.full_status(CONST), ctx.absent_values(), _OBJ
                out = _np.empty(ctx.size, dtype=object)
                out.fill(func(*_values))
                return ctx.full_status(CONST), out, _OBJ

            return ev_folded

        if len(dynamic) == 1:
            # One dynamic operand: its status *is* the result status (the
            # constants contribute neither presence nor absence, so no
            # conflict is possible) and the kernel maps over it directly.
            dyn_index = dynamic[0]
            dyn_fn = args[dyn_index][1]
            arg_spec = tuple(value for _, value in args)

            def ev_single(ctx, em, _dyn=dyn_index, _spec=arg_spec):
                status, values, kind = dyn_fn(ctx, em)
                if typed_impl is not None and kind == operand_kind:
                    applied = [
                        values if i == _dyn else _spec[i] for i in range(len(_spec))
                    ]
                    return status, typed_impl(*applied), result_kind
                idx = (em & (status != _ABSENT_ST)).nonzero()[0]
                obj_values = _object_column(values, kind)
                if idx.size == ctx.size:
                    applied = [
                        obj_values if i == _dyn else _spec[i]
                        for i in range(len(_spec))
                    ]
                    return status, kernel(*applied), _OBJ
                out = ctx.absent_values()
                if idx.size:
                    applied = [
                        obj_values[idx] if i == _dyn else _spec[i]
                        for i in range(len(_spec))
                    ]
                    out[idx] = kernel(*applied)
                return status, out, _OBJ

            return ev_single

        dynamic_set = frozenset(dynamic)

        def ev_multi(ctx, em):
            columns: List[Any] = []
            kinds: List[int] = []
            has_present = has_absent = None
            for is_const, value in args:
                if is_const:
                    columns.append(value)
                    kinds.append(-1)
                    continue
                status, values, kind = value(ctx, em)
                columns.append(values)
                kinds.append(kind)
                present = status == PRESENT
                absent = status == _ABSENT_ST
                has_present = present if has_present is None else (has_present | present)
                has_absent = absent if has_absent is None else (has_absent | absent)
            if bool((em & has_present & has_absent).any()):
                # The closure would warn (or raise) about operands that are
                # not all present: replay the block in reference order.
                raise _FallbackBlock("stepwise operands not all present")
            status = _np.where(
                has_present, PRESENT, _np.where(has_absent, _ABSENT_ST, CONST)
            )
            if typed_impl is not None and all(
                kinds[i] == operand_kind for i in dynamic_set
            ):
                return status, typed_impl(*columns), result_kind
            columns = [
                _object_column(column, kinds[i]) if i in dynamic_set else column
                for i, column in enumerate(columns)
            ]
            idx = (em & ~has_absent).nonzero()[0]
            if idx.size == ctx.size:
                return status, kernel(*columns), _OBJ
            out = ctx.absent_values()
            if idx.size:
                out[idx] = kernel(
                    *[
                        column[idx] if i in dynamic_set else column
                        for i, column in enumerate(columns)
                    ]
                )
            return status, out, _OBJ

        return ev_multi

    def _compile_when(self, expr: When) -> VectorFn:
        operand = self.compile(expr.operand)
        condition = self.compile(expr.condition)

        def ev(ctx, em):
            cond_status, cond_vals, cond_kind = condition(ctx, em)
            candidates = em & (cond_status != _ABSENT_ST)
            sampled = ctx.truthy(cond_vals, cond_kind, candidates)
            op_status, op_vals, op_kind = operand(ctx, sampled)
            status = _np.where(
                sampled & (op_status != _ABSENT_ST), PRESENT, _ABSENT_ST
            )
            return status, op_vals, op_kind

        return ev

    def _compile_when_clock(self, expr: WhenClock) -> VectorFn:
        if isinstance(expr.condition, Const):
            if bool(expr.condition.value):
                def ev_true(ctx, em):
                    return ctx.full_status(PRESENT), ctx.true_bool(), _BOOL

                return ev_true

            def ev_false(ctx, em):
                return ctx.full_status(_ABSENT_ST), ctx.true_bool(), _BOOL

            return ev_false

        condition = self.compile(expr.condition)

        def ev(ctx, em):
            cond_status, cond_vals, cond_kind = condition(ctx, em)
            candidates = em & (cond_status != _ABSENT_ST)
            sampled = ctx.truthy(cond_vals, cond_kind, candidates)
            return _np.where(sampled, PRESENT, _ABSENT_ST), ctx.true_bool(), _BOOL

        return ev

    def _compile_default(self, expr: Default) -> VectorFn:
        left = self.compile(expr.left)
        right = self.compile(expr.right)

        def ev(ctx, em):
            left_status, left_vals, left_kind = left(ctx, em)
            left_present = left_status == PRESENT
            right_status, right_vals, right_kind = right(ctx, em & ~left_present)
            left_const = left_status == CONST
            status = _np.where(
                left_present,
                PRESENT,
                _np.where(
                    left_const & (right_status == _ABSENT_ST), CONST, right_status
                ),
            )
            if left_kind != right_kind:
                left_vals = _object_column(left_vals, left_kind)
                right_vals = _object_column(right_vals, right_kind)
                left_kind = _OBJ
            values = _np.where(left_present | left_const, left_vals, right_vals)
            return status, values, left_kind

        return ev

    def _compile_clock_of(self, expr: ClockOf) -> VectorFn:
        if isinstance(expr.operand, Const):
            def ev_const(ctx, em):
                return ctx.full_status(_ABSENT_ST), ctx.true_bool(), _BOOL

            return ev_const

        operand = self.compile(expr.operand)

        def ev(ctx, em):
            status, _values, _kind = operand(ctx, em)
            return (
                _np.where(status == PRESENT, PRESENT, _ABSENT_ST),
                ctx.true_bool(),
                _BOOL,
            )

        return ev

    def _compile_clock_binop(self, expr: Expression) -> VectorFn:
        left = self.compile(expr.left)
        right = self.compile(expr.right)

        if isinstance(expr, ClockUnion):
            def ev(ctx, em):
                left_status, _lv, _lk = left(ctx, em)
                right_status, _rv, _rk = right(ctx, em)
                present = (left_status == PRESENT) | (right_status == PRESENT)
                return _np.where(present, PRESENT, _ABSENT_ST), ctx.true_bool(), _BOOL

        elif isinstance(expr, ClockIntersection):
            def ev(ctx, em):
                left_status, _lv, _lk = left(ctx, em)
                right_status, _rv, _rk = right(ctx, em)
                present = (left_status == PRESENT) & (right_status == PRESENT)
                return _np.where(present, PRESENT, _ABSENT_ST), ctx.true_bool(), _BOOL

        else:  # ClockDifference
            def ev(ctx, em):
                left_status, _lv, _lk = left(ctx, em)
                right_status, _rv, _rk = right(ctx, em)
                present = (left_status == PRESENT) & (right_status != PRESENT)
                return _np.where(present, PRESENT, _ABSENT_ST), ctx.true_bool(), _BOOL

        return ev


def _pure_value_expr(expr: Expression) -> bool:
    """Shape check for recurrence steps: a pure stepwise value tree.

    Only plain signal reads, constants and pure built-in operators — no
    sampling/merge/clock structure, so the step is a total function of its
    operand *values* whenever all operands are present (which the scan
    kernel verifies at run time before trusting it).
    """
    if isinstance(expr, (SignalRef, Const)):
        return True
    if isinstance(expr, FunctionApp):
        return (
            bool(expr.args)
            and expr.op in PURE_OPERATORS
            and all(_pure_value_expr(a) for a in expr.args)
        )
    return False


def _affine_shape(expr, z_name, y_name, operand_names):
    """Detect the plain-accumulator shapes ``y = z + e`` / ``y = z - e``.

    *e* must be a single other signal or a finite float constant; returns
    ``(sign, operand_index, const)`` for :class:`_RecurrenceScan`'s
    ``np.add.accumulate`` fast path, or ``None``.  Subtraction maps to
    adding the negation, which is exact in IEEE-754.
    """
    if not (isinstance(expr, FunctionApp) and len(expr.args) == 2):
        return None
    left, right = expr.args

    def is_z(node):
        return isinstance(node, SignalRef) and node.name == z_name

    if expr.op == "+" and is_z(left):
        sign, other = 1, right
    elif expr.op == "+" and is_z(right):
        sign, other = 1, left
    elif expr.op == "-" and is_z(left):
        sign, other = -1, right
    else:
        return None
    if (
        isinstance(other, SignalRef)
        and other.name not in (z_name, y_name)
        and other.name in operand_names
    ):
        return (sign, operand_names.index(other.name), None)
    if (
        isinstance(other, Const)
        and type(other.value) is float
        and other.value == other.value
        and other.value not in (float("inf"), float("-inf"))
    ):
        return (sign, None, other.value)
    return None


def _compile_value_step(expr: Expression, arg_of: Dict[str, str]):
    """Compile a pure value tree into ``step(<args>) -> value`` source.

    *arg_of* maps each referenced signal name to its parameter name.  Every
    operator application calls the exact
    :data:`~repro.sig.expressions.STEPWISE_OPERATIONS` callable (bound into
    the generated module's globals), and constants are bound as globals too,
    so the produced values are the very objects the plan's closures would
    compute — bit-identical by construction, without per-instant status
    dispatch around them.
    """
    env: Dict[str, Any] = {}

    def emit(node: Expression) -> str:
        if isinstance(node, SignalRef):
            return arg_of[node.name]
        if isinstance(node, Const):
            key = f"_k{len(env)}"
            env[key] = node.value
            return key
        op_key = f"_f{len(env)}"
        env[op_key] = STEPWISE_OPERATIONS[node.op]
        return f"{op_key}({', '.join(emit(a) for a in node.args)})"

    params = ", ".join(arg_of[name] for name in arg_of)
    source = f"def _step({params}):\n    return {emit(expr)}\n"
    namespace: Dict[str, Any] = dict(env)
    exec(_step_code(source), namespace)
    return namespace["_step"]


#: Step sources depend only on the tree's shape (values are bound as
#: globals), so the scheduler's many ``zindex + 1`` counters share one code
#: object.
_step_code = functools.lru_cache(maxsize=256)(
    lambda source: compile(source, "<recurrence-step>", "exec")
)


@dataclass(eq=False)
class _RecurrenceScan:
    """One promoted delay recurrence: ``z := delay(y); y := f(z, inputs)``.

    Executes the pair for a whole block: the presence mask comes from a
    block-available ``^=`` clock source, every other available sync member
    and every step operand is verified to share that exact mask (any
    mismatch falls the block back to the pure sweep), and the value
    sequence is produced either by ``np.add.accumulate`` (plain ``y = z ± e``
    accumulators over float64 columns — bit-identical to the sequential
    fold) or by a tight generated-scalar loop calling the exact stepwise
    callables.  Delay state is advanced **once per block** (the last
    present ``y`` of the block is exactly what the sequential per-instant
    commits would leave behind); the pair's per-instant commit is dropped
    from the vector path, and the fallback path — which rewinds the state
    snapshot first — still runs the plan's full commit tuple.
    """

    y_slot: int
    z_slot: int
    state_slot: int
    mask_slot: int
    verify_slots: Tuple[int, ...]
    operand_slots: Tuple[int, ...]
    step: Callable[..., Any]
    #: ``(sign, operand_index, const)`` when the step is a plain
    #: ``y = z + e`` / ``y = z - e`` accumulation eligible for the
    #: ``np.add.accumulate`` fast path; ``None`` otherwise.
    affine: Optional[Tuple[int, Optional[int], Optional[float]]]
    #: Index of the pair's delay commit in ``plan._commits`` — dropped
    #: from the vector path's per-instant finish (see class docstring).
    commit_index: int

    def execute(self, ctx: "_BlockContext", st_block, val_block, state) -> None:
        """Fill the pair's status/value columns for one block."""
        mask = st_block[:, self.mask_slot] == PRESENT
        watched = st_block[:, self.verify_slots + self.operand_slots] == PRESENT
        if not (watched == mask[:, None]).all():
            raise _FallbackBlock("recurrence clock mismatch")
        status = _np.where(mask, PRESENT, _ABSENT_ST)
        st_block[:, self.y_slot] = status
        st_block[:, self.z_slot] = status
        idx = mask.nonzero()[0]
        if not idx.size:
            return
        seed = state[self.state_slot][0]

        typed_cols: List[Optional[Any]] = []
        for slot in self.operand_slots:
            typed = ctx.typed.get(slot)
            typed_cols.append(typed[0] if typed is not None and typed[1] == _FLT else None)

        ys, zs, all_float = self._scan(idx, seed, typed_cols, val_block)

        y_col = _np.empty(idx.size, dtype=object)
        y_col[:] = ys
        z_col = _np.empty(idx.size, dtype=object)
        z_col[:] = zs
        val_block[idx, self.y_slot] = y_col
        val_block[idx, self.z_slot] = z_col
        # Block-level state advance: the sequential commits would store the
        # present y of each instant in turn, leaving the last one.
        state[self.state_slot][0] = ys[-1]
        if all_float is None:
            all_float = all(type(value) is float for value in ys) and all(
                type(value) is float for value in zs
            )
        if all_float:
            y_typed = _np.zeros(ctx.size)
            y_typed[idx] = ys
            z_typed = _np.zeros(ctx.size)
            z_typed[idx] = zs
            ctx.typed[self.y_slot] = (y_typed, _FLT)
            ctx.typed[self.z_slot] = (z_typed, _FLT)

    def _scan(self, idx, seed, typed_cols, val_block):
        """Produce ``(ys, zs, all_float)`` present-instant value sequences.

        ``all_float`` is ``True`` on the accumulate path (``ndarray.tolist``
        of a float64 array yields Python floats by construction) and
        ``None`` on the generated-loop path, where the caller still has to
        type-check the step outputs.
        """
        if self.affine is not None and type(seed) is float and seed == seed:
            sign, operand_index, const = self.affine
            if operand_index is None:
                increment = _np.full(idx.size, const)
            elif typed_cols[operand_index] is not None:
                increment = typed_cols[operand_index][idx]
            else:
                increment = None
            if increment is not None:
                if sign < 0:
                    increment = -increment
                acc = _np.add.accumulate(
                    _np.concatenate((_np.array([seed]), increment))
                )
                return acc[1:].tolist(), acc[:-1].tolist(), True
        columns = [
            typed_cols[i][idx].tolist()
            if typed_cols[i] is not None
            else val_block[idx, slot].tolist()
            for i, slot in enumerate(self.operand_slots)
        ]
        step = self.step
        cur = seed
        ys: List[Any] = []
        zs: List[Any] = []
        if columns:
            for row in zip(*columns):
                zs.append(cur)
                cur = step(cur, *row)
                ys.append(cur)
        else:
            for _ in range(idx.size):
                zs.append(cur)
                cur = step(cur)
                ys.append(cur)
        return ys, zs, None


def _peel(order, deps, stall=None):
    """Yield the nodes of *order*, each after every node in its *deps*.

    The order is exactly that of repeated in-order passes over *order* that
    each take every node whose dependencies are done, found in linear time:
    indegree counting (Kahn) with ready nodes keyed by ``(round, pass,
    position)``.  A dependency outside *order* is done only once
    ``stall()`` — called whenever nothing is ready — returns it among the
    nodes it has just resolved, which starts a new round; a stall that
    resolves nothing ends the peel.  Nodes on a cycle, or waiting on a
    dependency nothing resolves, are never yielded.
    """
    position = {node: index for index, node in enumerate(order)}
    waiting = {node: len(deps[node]) for node in order}
    readers: Dict[Any, List[Any]] = {}
    for node in order:
        for dep in deps[node]:
            readers.setdefault(dep, []).append(node)
    done = set()
    heap = [(0, 0, position[node], node) for node in order if not waiting[node]]
    round_ = 0

    def release(dep, pass_, at) -> None:
        for reader in readers.get(dep, ()):
            waiting[reader] -= 1
            if not waiting[reader] and reader not in done:
                index = position[reader]
                heapq.heappush(heap, (round_, pass_ + (index < at), index, reader))

    while True:
        while heap:
            _round, pass_, index, node = heapq.heappop(heap)
            done.add(node)
            yield node
            release(node, pass_, index)
        resolved = stall() if stall is not None else ()
        if not resolved:
            return
        round_ += 1
        done.update(resolved)
        for node in resolved:
            release(node, 0, -1)


def _signature_unchanged(slots, st, vals, prev_st, prev_vals) -> bool:
    """Did every watched slot keep its status — and, where present, an
    equal value of the same type — since the previous instant?

    Type identity guards the ``1 == 1.0`` hazard (repr-observable in trace
    output); a raising or non-boolean ``==`` conservatively reports a
    change, which merely costs the skip.
    """
    try:
        for slot in slots:
            code = st[slot]
            if code != prev_st[slot]:
                return False
            if code == PRESENT:
                a, b = vals[slot], prev_vals[slot]
                if a is not b and not (type(a) is type(b) and bool(a == b)):
                    return False
    except Exception:
        return False
    return True


class _ResidueCluster:
    """One independent partition of the residual sweep.

    Holds the cluster's work items (in plan order), the ``^=`` groups that
    touch it, and — when every member is a stateless pure-shape definition —
    the *external* slots whose per-instant ``(status, value)`` signature
    decides whether the previous instant's resolution can be copied
    verbatim (the cluster-level skip).
    """

    __slots__ = ("work", "groups", "target_slots", "skippable", "external_slots")

    def __init__(self, work, groups, target_slots, skippable, external_slots) -> None:
        self.work = work
        self.groups = groups
        self.target_slots = target_slots
        self.skippable = skippable
        self.external_slots = external_slots

    def without(self, driven_slots) -> "_ResidueCluster":
        """A copy with scenario-driven targets removed (scenario wins).

        A driven member's column is scenario-filled, which changes what the
        cluster's sweep observes, so the skip signature is disabled for the
        run rather than recomputed.
        """
        return _ResidueCluster(
            tuple(item for item in self.work if item[0] not in driven_slots),
            self.groups,
            tuple(slot for slot in self.target_slots if slot not in driven_slots),
            False,
            self.external_slots,
        )


@dataclass
class VectorPlanStatistics:
    """Compile-time shape of a vectorized plan (for reports and tests)."""

    signals: int
    targets: int
    vectorized: int
    pre_stratum: int
    post_stratum: int
    residual: int
    block_size: int
    recurrence: int = 0
    clusters: int = 0

    def summary(self) -> str:
        """One line describing the stratum partition."""
        residue = f"{self.residual} residual"
        if self.clusters:
            residue += f" in {self.clusters} cluster(s)"
        return (
            f"vectorized plan: {self.vectorized}/{self.targets} targets in numpy "
            f"strata ({self.pre_stratum} pre-sweep + {self.recurrence} "
            f"recurrence + {self.post_stratum} post-sweep), {residue}, blocks "
            f"of {self.block_size} instants over {self.signals} signal slots"
        )


class VectorExecutionPlan:
    """An :class:`~repro.sig.engine.plan.ExecutionPlan` plus its vector strata.

    Build one with :func:`compile_vectorized`.  :meth:`run` executes a
    scenario in instant blocks: numpy kernels fill the vectorisable columns
    of the block, the residual equations run through the plan's ordinary
    per-instant sweep, and the finished block is delivered to the sinks
    (in one :meth:`~repro.sig.sinks.TraceSink.on_block` call when the run
    drives a single sink that overrides it).  Any warning
    or error anywhere in a block rewinds it and replays it through the
    pure per-instant sweep, so traces, warnings and errors are
    bit-identical to the compiled backend by construction.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scan_recurrences: bool = True,
        cluster_residue: bool = True,
    ) -> None:
        self.plan = plan
        self.block_size = max(1, int(block_size))
        self.scan_recurrences = scan_recurrences
        self.cluster_residue = cluster_residue
        #: Blocks executed through the numpy strata / replayed through the
        #: pure sweep, across every run of this plan (for tests and reports).
        self.vector_blocks = 0
        self.fallback_blocks = 0
        #: Instant-level cluster resolutions answered by copying the
        #: previous instant (the cluster-level skip), across every run.
        self.skipped_clusters = 0
        #: Why blocks fell back, keyed by ``ExceptionType: message`` — the
        #: broad fallback catch is a semantics safety net, so this is how a
        #: coding bug masquerading as a slow path stays diagnosable.
        self.fallback_reasons: Dict[str, int] = {}

        process = plan.process
        grouped: Dict[str, List[Expression]] = {}
        for eq in process.equations:
            grouped.setdefault(eq.target, []).append(eq.expr)

        work_slots = {item[0] for item in plan._work}
        work_by_name = {item[3].name: item for item in plan._work}
        pending: Dict[int, Tuple[Any, Expression]] = {}
        for item in plan._work:
            slot, is_declared, single, target = item
            if single is None or not is_declared:
                # Multi-definition targets need the reference's repr-based
                # arbitration; undeclared targets are read as absent *until*
                # they resolve, which makes their resolution order
                # observable — both stay in the per-instant sweep.
                continue
            expr = grouped[target.name][0]
            if _structurally_vectorizable(expr) and not _may_be_const(expr):
                pending[slot] = (item, expr)

        # Unified stage peel.  Stateless targets whose reads are all inputs,
        # non-target signals or already-promoted targets become columnar
        # kernels; when the peel stalls, one delay recurrence is promoted
        # into a scan stage (its outputs then count as available, which can
        # unblock further kernels — the "mid" stratum of alarms over
        # accumulators).  Stage order, :func:`_peel`'s, is a topological
        # order, which is the block execution order.
        compiler = _VectorCompiler(plan.slot_of)
        promoted: Dict[int, None] = {}
        #: Ordered block stages: ``("kernel", slot, VectorFn)`` columnar
        #: evaluations interleaved with ``("scan", _RecurrenceScan, None)``
        #: delay-recurrence scans, in dependency order.
        self._stages: List[Tuple[str, Any, Any]] = []

        recurrences = self._recurrences(
            plan, grouped, work_by_name, work_slots, promoted
        )

        def promote_recurrence() -> Tuple[int, ...]:
            scan = next(recurrences, None) if scan_recurrences else None
            if scan is None:
                return ()
            promoted[scan.y_slot] = promoted[scan.z_slot] = None
            pending.pop(scan.y_slot, None)
            self._stages.append(("scan", scan, None))
            return scan.y_slot, scan.z_slot

        kernel_deps = {
            slot: {plan.slot_of[name] for name in free_signals(expr)} & work_slots
            for slot, (_item, expr) in pending.items()
        }
        for slot in _peel(list(pending), kernel_deps, promote_recurrence):
            promoted[slot] = None
            self._stages.append(("kernel", slot, compiler.compile(pending.pop(slot)[1])))

        # Post-stratum: vectorisable targets that *nothing else observes
        # during the sweep* — not read by any equation outside the stratum
        # (delay/cell commits re-evaluate their equations' subtrees, so any
        # reader counts), not members of a ``^=`` group (clock propagation
        # reads their status mid-sweep), not read through a shared variable
        # (the varmem write-through would be skipped).  They evaluate after
        # the block's residual sweep, over the written-back residual
        # columns; an unresolved dependency (a would-be instantaneous
        # cycle) forces the pure replay instead.
        sync_slots = set()
        for slots, _names in plan._sync_groups:
            sync_slots.update(slots)
        readers: Dict[str, set] = {}
        var_read: set = set()
        for eq in process.equations:
            stack = [eq.expr]
            while stack:
                node = stack.pop()
                if isinstance(node, SignalRef):
                    readers.setdefault(node.name, set()).add(eq.target)
                elif isinstance(node, Var):
                    var_read.add(node.name)
                elif not isinstance(node, Const):
                    stack.extend(getattr(node, "args", ()))
                    for attr in ("operand", "condition", "left", "right"):
                        child = getattr(node, attr, None)
                        if isinstance(child, Expression):
                            stack.append(child)

        eligible = {
            item[3].name: (slot, expr)
            for slot, (item, expr) in pending.items()
            if slot not in sync_slots and item[3].name not in var_read
        }
        # A target joins once all its readers have, so the stratum holds no
        # cycle (a self-reader never joins); its kernels then run in their
        # dependency order within the stratum.
        post_set = set(
            _peel(list(eligible), {name: readers.get(name, ()) for name in eligible})
        )
        post_names = [name for name in eligible if name in post_set]
        within = {
            name: post_set.intersection(free_signals(eligible[name][1]))
            for name in post_names
        }
        post_order = [eligible[name] for name in _peel(post_names, within)]
        post_slots = {slot for slot, _ in post_order}
        self._post_kernels: List[Tuple[int, VectorFn]] = [
            (slot, compiler.compile(expr)) for slot, expr in post_order
        ]
        # Promoted scans advance their delay state once per block, so their
        # per-instant commits are dead weight on the vector path; the
        # fallback path (which rewinds the state snapshot) keeps the plan's
        # full commit tuple.
        suppressed = {scan.commit_index for kind, scan, _ in self._stages if kind == "scan"}
        self._vector_commits = tuple(
            commit
            for index, commit in enumerate(plan._commits)
            if index not in suppressed
        )
        vector_slots = set(promoted) | post_slots
        self._residual_work = tuple(
            item for item in plan._work if item[0] not in vector_slots
        )
        residual_slots = {item[0] for item in self._residual_work}
        if cluster_residue:
            self._clusters, self._global_groups = self._build_clusters(
                plan, grouped, self._residual_work
            )
        else:
            self._clusters, self._global_groups = None, []
        # Residual columns the post kernels read, to copy back into the
        # block arrays after the sweep.
        post_deps: set = set()
        for _slot, expr in post_order:
            for name in free_signals(expr):
                post_deps.add(plan.slot_of[name])
        self._post_writeback = tuple(sorted(post_deps & residual_slots))

        # Declared input slots whose scenario columns may ride the native
        # kernels — validated value by value at block-fill time (a REAL
        # input fed Python ints, say, silently keeps the object path).
        self._typed_input_kinds: Dict[int, int] = {}
        for slot, name in plan._input_slots:
            kind = process.signals[name].type.kind
            if kind is SignalKind.REAL:
                self._typed_input_kinds[slot] = _FLT
            elif kind is SignalKind.BOOLEAN or kind is SignalKind.EVENT:
                self._typed_input_kinds[slot] = _BOOL

        self._template_row = _np.array(plan._status_template, dtype=_np.int64)

    # ------------------------------------------------------------------
    @staticmethod
    def _recurrences(plan, grouped, work_by_name, work_slots, promoted):
        """Yield promotable delay recurrences ``z := delay(y); y := f(z, ...)``,
        one per ``next()``, as :class:`_RecurrenceScan` stages.

        Both halves must be declared, single-definition targets; ``f`` must
        be a pure value expression over ``z`` and block-available operands
        (and must not read ``y`` itself), optionally sampled as ``y := f(z,
        ...) when ^c`` with ``c`` block-available (``c`` then joins the
        verified slots, so a block where its presence differs from the mask
        falls back); and some ``^=`` group containing ``y`` must have a
        block-available member to serve as the clock mask — without one the
        reference sweep would deadlock on the pair, a trajectory the scan
        cannot reproduce.  The shapes are checked once; availability, which
        grows as stages are promoted, at each ``next()``.
        """

        def available(slot: int) -> bool:
            return slot not in work_slots or slot in promoted

        shapes = []
        for z_name, (state_slot, _init, y_name) in plan.delay_memories.items():
            z_item = work_by_name.get(z_name)
            y_item = work_by_name.get(y_name)
            if z_item is None or y_item is None or z_item[0] == y_item[0]:
                continue
            if not (z_item[1] and y_item[1]):  # both declared
                continue
            if z_item[2] is None or y_item[2] is None:  # both single-def
                continue
            z_slot, y_slot = z_item[0], y_item[0]
            y_expr = grouped[y_name][0]
            sample: List[int] = []  # the ``c`` of a sampled step
            if (
                isinstance(y_expr, When)
                and isinstance(y_expr.condition, ClockOf)
                and isinstance(y_expr.condition.operand, SignalRef)
            ):
                sample.append(plan.slot_of[y_expr.condition.operand.name])
                y_expr = y_expr.operand
                if sample[0] in (y_slot, z_slot):
                    continue
            if not _pure_value_expr(y_expr):
                continue
            refs = free_signals(y_expr)
            if y_name in refs or z_name not in refs:
                continue
            operands = [name for name in refs if name != z_name]
            shapes.append((z_name, y_name, state_slot, y_expr, sample, operands))
        while True:
            for index, (z_name, y_name, state_slot, y_expr, sample, operands) in (
                enumerate(shapes)
            ):
                z_slot, y_slot = plan.slot_of[z_name], plan.slot_of[y_name]
                operand_slots = [plan.slot_of[name] for name in operands]
                if y_slot in promoted or not all(
                    available(slot) for slot in operand_slots + sample
                ):
                    continue
                # Clock mask + verification slots from the pair's sync groups.
                mask_slot = None
                verify: List[int] = []
                for slots, _names in plan._sync_groups:
                    has_y = y_slot in slots
                    if not has_y and z_slot not in slots:
                        continue
                    for slot in slots:
                        if slot in (y_slot, z_slot) or not available(slot):
                            continue
                        verify.append(slot)
                        if mask_slot is None and has_y:
                            mask_slot = slot
                if mask_slot is not None:
                    break
            else:
                return
            del shapes[index]
            arg_of = {z_name: "_p0"}
            for position, name in enumerate(operands):
                arg_of[name] = f"_p{position + 1}"
            yield _RecurrenceScan(
                y_slot=y_slot,
                z_slot=z_slot,
                state_slot=state_slot,
                mask_slot=mask_slot,
                verify_slots=tuple(
                    slot for slot in dict.fromkeys(verify + sample) if slot != mask_slot
                ),
                operand_slots=tuple(operand_slots),
                step=_compile_value_step(y_expr, arg_of),
                affine=_affine_shape(y_expr, z_name, y_name, operands),
                commit_index=plan._delay_commit_index[z_name],
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _build_clusters(plan, grouped, residual_work):
        """Partition the residual work into independent clusters.

        Returns ``(clusters, global_groups)`` where *clusters* is a list of
        :class:`_ResidueCluster` (or ``None`` when clustering is
        pointless — fewer than two clusters) and *global_groups* are the
        ``^=`` groups with no residual member, which still need one
        propagation pass per instant for their disagreement diagnostics.
        """
        residual_slots = {item[0] for item in residual_work}
        if len(residual_slots) < 2:
            return None, []
        parent = {slot: slot for slot in residual_slots}

        def find(slot: int) -> int:
            root = slot
            while parent[root] != root:
                root = parent[root]
            while parent[slot] != root:
                parent[slot], slot = root, parent[slot]
            return root

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        residual_items = list(residual_work)
        reads_of: Dict[int, set] = {}
        for item in residual_items:
            slot, name = item[0], item[3].name
            reads = set()
            for expr in grouped[name]:
                reads.update(plan.slot_of[ref] for ref in free_signals(expr))
            reads_of.setdefault(slot, set()).update(reads)
            for dep in reads:
                if dep in residual_slots:
                    union(slot, dep)
        for slots, _names in plan._sync_groups:
            members = [slot for slot in slots if slot in residual_slots]
            for a, b in zip(members, members[1:]):
                union(a, b)

        ordered_roots: List[int] = []
        members_of: Dict[int, List[Any]] = {}
        for item in residual_items:
            root = find(item[0])
            if root not in members_of:
                members_of[root] = []
                ordered_roots.append(root)
            members_of[root].append(item)
        global_groups = []
        groups_of: Dict[int, List[Any]] = {}
        for group in plan._sync_groups:
            members = [slot for slot in group[0] if slot in residual_slots]
            if members:
                groups_of.setdefault(find(members[0]), []).append(group)
            else:
                global_groups.append(group)
        if len(ordered_roots) < 2:
            return None, []

        clusters = []
        for root in ordered_roots:
            items = members_of[root]
            cluster_slots = {item[0] for item in items}
            groups = groups_of.get(root, [])
            skippable = all(
                item[1]
                and item[2] is not None
                and all(
                    _structurally_vectorizable(expr)
                    for expr in grouped[item[3].name]
                )
                for item in items
            )
            external: set = set()
            for item in items:
                external.update(reads_of[item[0]])
            for slots, _names in groups:
                external.update(slots)
            external -= cluster_slots
            clusters.append(
                _ResidueCluster(
                    work=tuple(items),
                    groups=tuple(groups),
                    target_slots=tuple(sorted(cluster_slots)),
                    skippable=skippable,
                    external_slots=tuple(sorted(external)),
                )
            )
        return clusters, global_groups

    # ------------------------------------------------------------------
    def statistics(self) -> VectorPlanStatistics:
        """Compile-time shape of the stratum partition."""
        pre = sum(1 for kind, _a, _b in self._stages if kind == "kernel")
        recurrence = 2 * sum(1 for kind, _a, _b in self._stages if kind == "scan")
        return VectorPlanStatistics(
            signals=len(self.plan.names),
            targets=len(self.plan._work),
            vectorized=pre + recurrence + len(self._post_kernels),
            pre_stratum=pre,
            post_stratum=len(self._post_kernels),
            residual=len(self._residual_work),
            block_size=self.block_size,
            recurrence=recurrence,
            clusters=len(self._clusters) if self._clusters else 0,
        )

    # ------------------------------------------------------------------
    def _new_block(self, size: int) -> Tuple[Any, Any]:
        """Allocate a reset ``(status, value)`` block pair."""
        st_block = _np.empty((size, len(self.plan.names)), dtype=_np.int64)
        st_block[:] = self._template_row
        val_block = _np.empty((size, len(self.plan.names)), dtype=object)
        val_block.fill(ABSENT)
        return st_block, val_block

    # ------------------------------------------------------------------
    def run(
        self,
        scenario: Scenario,
        record=None,
        strict: bool = True,
        sinks: Optional[SinkOrSinks] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Execute *scenario* in instant blocks.

        Semantics, arguments and the streaming (``sinks=``) contract are
        exactly those of :meth:`repro.sig.engine.plan.ExecutionPlan.run`.
        Periodic/constant/sparse input rules are synthesised into numpy
        columns arithmetically (:meth:`~repro.sig.scenario.InputRule.block_columns`);
        explicit and generator rules are sampled instant by instant.
        """
        plan = self.plan
        length = scenario.run_length(length)
        recorded = list(record) if record is not None else list(plan.process.signals)
        warnings: List[str] = []
        sink_list, materialize = resolve_sinks(sinks)

        declared = plan.process.signals
        bound, driven_slots, scenario_only = plan._bind_scenario(scenario)
        # Each driven slot carries its rule (for the block-level column
        # synthesis) plus one precompiled sampler (for the per-instant
        # fallback paths).
        driven = [(slot, rule, rule.sampler()) for slot, rule in bound]

        pure_work = [item for item in plan._work if item[0] not in driven_slots]
        residual_work = [
            item for item in self._residual_work if item[0] not in driven_slots
        ]
        # Stage and post-kernel targets are declared, and only undeclared
        # names can be scenario-driven, so the strata never need filtering.
        clusters = self._clusters
        if clusters is not None and driven_slots:
            clusters = [
                cluster.without(driven_slots)
                if any(slot in driven_slots for slot in cluster.target_slots)
                else cluster
                for cluster in clusters
            ]

        record_plan = plan._build_record_plan(recorded, scenario_only)
        read_row = plan._row_reader(record_plan)
        # Columns only go to a lone sink that consumes them as columns: with
        # several sinks, block delivery would hand the earlier ones instants
        # past one at which a later sink aborts the run.
        block_sink = (
            sink_list[0]
            if record_plan
            and len(sink_list) == 1
            and type(sink_list[0]).on_block is not TraceSink.on_block
            else None
        )

        def deliver(instant: int, vals: List[Any]) -> None:
            """Hand one finished instant of a replayed block to the sinks."""
            if sink_list:
                row = read_row(instant, vals)
                for sink in sink_list:
                    sink.on_instant(instant, row)

        state = [list(template) for template in plan._state_init]
        varmem = list(plan._nowrite_template)
        block_size = self.block_size
        try:
            header = TraceHeader(
                process_name=plan.process.name,
                length=length,
                signals=tuple(recorded),
                types={name: decl.type for name, decl in declared.items()},
                warnings=warnings,
            )
            for sink in sink_list:
                sink.on_header(header)
            from .supervisor import current_guard

            guard = current_guard()
            start = 0
            while start < length:
                size = min(block_size, length - start)
                if guard is not None:
                    guard.check_block(start, size)
                val_rows = self._run_block(
                    start,
                    size,
                    driven,
                    state,
                    varmem,
                    warnings,
                    strict,
                    pure_work,
                    residual_work,
                    clusters,
                    deliver,
                )
                if val_rows is not None:
                    if block_sink is not None:
                        block_sink.on_block(
                            start,
                            self._record_columns(record_plan, val_rows, start, size),
                        )
                    else:
                        for i in range(size):
                            deliver(start + i, val_rows[i])
                start += size
        finally:
            close_sinks(sink_list)
        return materialize.trace if materialize is not None else None

    @staticmethod
    def _record_columns(record_plan, val_rows, start, size) -> List[Sequence[Any]]:
        """One column of values per recorded name for a vector-executed
        block (scenario-only names sample their rule, unknown names are ⊥)."""
        by_slot = list(zip(*val_rows))
        return [
            by_slot[slot]
            if slot is not None
            else (
                [fallback(start + i) for i in range(size)]
                if fallback is not None
                else (ABSENT,) * size
            )
            for slot, fallback in record_plan
        ]

    # ------------------------------------------------------------------
    def _run_block(
        self,
        start: int,
        size: int,
        driven,
        state,
        varmem,
        warnings: List[str],
        strict: bool,
        pure_work,
        residual_work,
        clusters,
        deliver,
    ) -> Optional[List[List[Any]]]:
        """Execute one instant block, replaying it purely on any anomaly.

        Returns the per-instant value rows of a vector-executed block (the
        caller delivers them), or ``None`` when the block fell back to the
        pure sweep, which delivers through *deliver* itself.
        """
        # Snapshot the only mutable cross-instant state so a fallback can
        # rewind to the block's entry point.
        state_snapshot = [list(buffer) for buffer in state]
        varmem_snapshot = list(varmem)
        try:
            val_rows = self._run_vector_block(
                start, size, driven, state, varmem, strict, residual_work, clusters
            )
        except Exception as error:
            # Anything observable happened (a warning, a simulation error, a
            # raising stepwise operator...): rewind and replay this block
            # through the pure per-instant sweep, which reproduces values,
            # warnings, errors and partial sink output in reference order.
            for buffer, snapshot in zip(state, state_snapshot):
                buffer[:] = snapshot
            varmem[:] = varmem_snapshot
            self.fallback_blocks += 1
            reason = f"{type(error).__name__}: {error}"
            self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1
            self._run_pure_block(
                start, size, driven, state, varmem, warnings, strict, pure_work, deliver
            )
            return None
        self.vector_blocks += 1
        return val_rows

    def _run_vector_block(
        self, start, size, driven, state, varmem, strict, residual_work, clusters
    ) -> List[List[Any]]:
        """The optimistic hybrid executor: numpy strata + residual sweep.

        Raises (:class:`_FallbackBlock` or whatever the residual closures
        raise) whenever the block cannot be proven observation-identical to
        the reference trajectory; returns the per-instant value rows
        otherwise.
        """
        st_block, val_block = self._new_block(size)
        plan = self.plan
        ctx = _BlockContext(st_block, val_block, size)

        typed_input_kinds = self._typed_input_kinds
        for slot, rule, sample in driven:
            kind = typed_input_kinds.get(slot)
            # Symbolic fast path: periodic/constant/sparse rules synthesise
            # their presence mask and value column arithmetically — no
            # Python list (and no per-instant loop) in the hot path.
            columns = rule.block_columns(
                start,
                start + size,
                typed=float if kind == _FLT else bool if kind == _BOOL else None,
            )
            if columns is not None:
                mask, values, typed_values = columns
                st_block[:, slot] = _np.where(mask, PRESENT, _ABSENT_ST)
                val_block[:, slot] = values
                if typed_values is not None and kind is not None:
                    ctx.typed[slot] = (typed_values, kind)
                continue
            # Explicit/generator rules: sample instant by instant, exactly
            # like the pre-symbolic list slicing did.
            status_col = st_block[:, slot]
            value_col = val_block[:, slot]
            typed_buf: Optional[List[Any]] = (
                None if kind is None else [0.0 if kind == _FLT else False] * size
            )
            for i in range(size):
                value = sample(start + i)
                if value is ABSENT:
                    status_col[i] = _ABSENT_ST
                else:
                    status_col[i] = PRESENT
                    value_col[i] = value
                    if typed_buf is not None:
                        if kind == _FLT:
                            # NaN keeps the whole column on the object path:
                            # the typed round-trip would replace the caller's
                            # NaN object, and NaN compares equal only by
                            # identity, breaking flow ``==`` against the
                            # compiled backend's passed-through object.
                            if type(value) is float and value == value:
                                typed_buf[i] = value
                            else:
                                typed_buf = None
                        elif value is True or value is False:
                            typed_buf[i] = value
                        else:
                            typed_buf = None
            if typed_buf is not None:
                ctx.typed[slot] = (
                    _np.array(typed_buf, dtype=float if kind == _FLT else bool),
                    kind,
                )

        full = _np.ones(size, dtype=bool)
        with _np.errstate(all="ignore"):
            for kind_tag, payload, kernel in self._stages:
                if kind_tag == "scan":
                    payload.execute(ctx, st_block, val_block, state)
                    continue
                slot = payload
                status, values, kind = kernel(ctx, full)
                if bool((status == CONST).any()):
                    raise _FallbackBlock("bare-constant definition")
                present = status == PRESENT
                st_block[:, slot] = _np.where(present, PRESENT, _ABSENT_ST)
                obj_values = _object_column(values, kind)
                val_block[present, slot] = obj_values[present]
                if kind != _OBJ:
                    ctx.typed[slot] = (values, kind)

        # Block-level verification of the residue-free ``^=`` groups: when
        # every member's presence is decided (no UNKNOWN anywhere in the
        # block) and all members share the same presence mask, the
        # per-instant propagation is a provable no-op — nothing to fill,
        # nothing to diagnose.  Groups that cannot be verified block-wide
        # stay on the per-instant path for their exact diagnostics.
        global_groups = self._global_groups
        if global_groups and clusters is not None:
            unverified = []
            for group in global_groups:
                base_mask = None
                for slot in group[0]:
                    column = st_block[:, slot]
                    present = column == PRESENT
                    if not bool((present | (column == _ABSENT_ST)).all()):
                        unverified.append(group)
                        break
                    if base_mask is None:
                        base_mask = present
                    elif not _np.array_equal(base_mask, present):
                        unverified.append(group)
                        break
            global_groups = unverified

        st_rows = st_block.tolist()
        val_rows = val_block.tolist()

        block_warnings: List[str] = []
        resolve = plan._resolve_instant
        # The plan's `_finish_instant` minus the commits of scan-promoted
        # delays, whose state the scans advanced block-level already.
        vector_commits = self._vector_commits
        uses_varmem = plan.uses_varmem
        prev_st = prev_vals = None
        for i in range(size):
            instant = start + i
            st = st_rows[i]
            vals = val_rows[i]
            if clusters is None:
                resolve(
                    st, vals, state, varmem, instant, block_warnings, strict,
                    residual_work,
                )
            else:
                self._resolve_clustered(
                    st, vals, state, varmem, instant, block_warnings, strict,
                    clusters, global_groups, prev_st, prev_vals,
                )
            if block_warnings:
                raise _FallbackBlock("residual warning")
            for commit in vector_commits:
                commit(st, vals, state, varmem, strict)
            if uses_varmem:
                for slot_index, code in enumerate(st):
                    if code == PRESENT:
                        varmem[slot_index] = vals[slot_index]
            prev_st, prev_vals = st, vals

        post_kernels = self._post_kernels
        if post_kernels:
            # Copy the residual columns the post stratum reads back into the
            # block arrays.  An unresolved status (the reference would raise
            # an instantaneous cycle through the post target) aborts the
            # block so the pure replay can report it exactly.
            for slot in self._post_writeback:
                status_col = st_block[:, slot]
                value_col = val_block[:, slot]
                for i in range(size):
                    code = st_rows[i][slot]
                    if code == UNKNOWN or code == PRESUMED:
                        raise _FallbackBlock("unresolved post-stratum dependency")
                    status_col[i] = code
                    if code == PRESENT:
                        value_col[i] = val_rows[i][slot]
            with _np.errstate(all="ignore"):
                for slot, kernel in post_kernels:
                    status, values, kind = kernel(ctx, full)
                    if bool((status == CONST).any()):
                        raise _FallbackBlock("bare-constant definition")
                    present = status == PRESENT
                    st_block[:, slot] = _np.where(present, PRESENT, _ABSENT_ST)
                    obj_values = _object_column(values, kind)
                    value_col = val_block[:, slot]
                    value_col[present] = obj_values[present]
                    if kind != _OBJ:
                        ctx.typed[slot] = (values, kind)
                    for i, value in enumerate(value_col.tolist()):
                        val_rows[i][slot] = value
        return val_rows

    def _resolve_clustered(
        self, st, vals, state, varmem, instant, warnings, strict, clusters,
        global_groups, prev_st, prev_vals,
    ) -> None:
        """One instant's residual resolution, cluster by cluster.

        Clusters are independent (no cross-cluster reads or shared ``^=``
        groups), so sweeping them separately reaches the same fixed point as
        the reference's joint sweep; *global_groups* — the residue-free
        groups the caller could not verify block-wide — are propagated once
        up front for their diagnostics.  A *skippable* cluster (stateless,
        single-definition, declared members) whose external
        ``(status, value)`` signature matches the previous instant copies
        that instant's resolution instead of sweeping.  Blocked targets are
        collected across clusters so the instantaneous-cycle report matches
        the reference's.
        """
        plan = self.plan
        if global_groups:
            plan._propagate_sync_groups(
                st, instant, warnings, strict, global_groups
            )
        blocked: List[Any] = []
        for cluster in clusters:
            if (
                prev_st is not None
                and cluster.skippable
                and _signature_unchanged(
                    cluster.external_slots, st, vals, prev_st, prev_vals
                )
            ):
                for slot in cluster.target_slots:
                    code = prev_st[slot]
                    st[slot] = code
                    if code == PRESENT:
                        vals[slot] = prev_vals[slot]
                self.skipped_clusters += 1
                continue
            unresolved = plan._sweep_worklist(
                st, vals, state, varmem, instant, warnings, strict,
                cluster.work, cluster.groups,
            )
            if unresolved:
                blocked.extend(unresolved)
        if blocked:
            plan._raise_blocked(st, blocked, instant)

    def _run_pure_block(
        self, start, size, driven, state, varmem, warnings, strict, pure_work, deliver
    ) -> None:
        """Replay one block through the plan's exact per-instant sweep."""
        plan = self.plan
        template = plan._status_template
        n_slots = len(plan.names)
        resolve = plan._resolve_instant
        finish_instant = plan._finish_instant
        for i in range(size):
            instant = start + i
            st = list(template)
            vals: List[Any] = [ABSENT] * n_slots
            for slot, _rule, sample in driven:
                value = sample(instant)
                st[slot] = _ABSENT_ST if value is ABSENT else PRESENT
                vals[slot] = value
            resolve(st, vals, state, varmem, instant, warnings, strict, pure_work)
            finish_instant(st, vals, state, varmem, strict)
            deliver(instant, vals)


def compile_vectorized(
    process: ProcessModel,
    block_size: int = DEFAULT_BLOCK_SIZE,
    scan_recurrences: bool = True,
    cluster_residue: bool = True,
) -> VectorExecutionPlan:
    """Compile *process* into a plan plus its vector strata."""
    return VectorExecutionPlan(
        compile_plan(process),
        block_size=block_size,
        scan_recurrences=scan_recurrences,
        cluster_residue=cluster_residue,
    )


class VectorizedBackend(SimulationBackend):
    """Block-vectorized executor: numpy strata over the compiled plan.

    Construction options: ``block_size`` (instants per block, default
    :data:`DEFAULT_BLOCK_SIZE`), ``scan_recurrences`` (promote delay
    recurrences into scan stages, default ``True``) and ``cluster_residue``
    (partition the residual sweep into independent clusters with a
    per-instant skip, default ``True``).  Any other keyword is a
    :class:`TypeError`.
    """

    name = "vectorized"

    def __init__(
        self,
        process: ProcessModel,
        strict: bool = True,
        block_size: int = DEFAULT_BLOCK_SIZE,
        scan_recurrences: bool = True,
        cluster_residue: bool = True,
    ) -> None:
        super().__init__(process, strict)
        self.block_size = max(1, int(block_size))
        self.scan_recurrences = scan_recurrences
        self.cluster_residue = cluster_residue
        self._plan = compile_plan(process)
        self._vector = VectorExecutionPlan(
            self._plan,
            block_size=self.block_size,
            scan_recurrences=scan_recurrences,
            cluster_residue=cluster_residue,
        )

    @property
    def process(self) -> ProcessModel:
        """The flattened process model the plan was compiled from."""
        return self._plan.process

    @property
    def plan(self) -> ExecutionPlan:
        """The underlying compiled :class:`~repro.sig.engine.plan.ExecutionPlan`."""
        return self._plan

    @property
    def vector_plan(self) -> VectorExecutionPlan:
        """The vector strata the runs execute."""
        return self._vector

    def run(
        self,
        scenario: Scenario,
        record=None,
        sinks: Optional[SinkOrSinks] = None,
        length: Optional[int] = None,
    ) -> Optional[SimulationTrace]:
        """Execute one scenario in instant blocks (see :meth:`SimulationBackend.run`)."""
        return self._vector.run(
            scenario, record=record, strict=self.strict, sinks=sinks, length=length
        )

    # ------------------------------------------------------------------
    # pickling: like ExecutionPlan, the backend travels as its (picklable)
    # process model plus options and recompiles on arrival, so spawn-based
    # batch workers can receive it; fork-based workers inherit the compiled
    # kernels directly.
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "process": self._plan.process,
            "strict": self.strict,
            "block_size": self.block_size,
            "scan_recurrences": self.scan_recurrences,
            "cluster_residue": self.cluster_residue,
        }

    def __setstate__(self, payload: Dict[str, Any]) -> None:
        self.__init__(
            payload["process"],
            strict=payload["strict"],
            block_size=payload["block_size"],
            scan_recurrences=payload["scan_recurrences"],
            cluster_residue=payload["cluster_residue"],
        )


#: Register in the backend registry (imported by ``repro.sig.engine``).
BACKENDS[VectorizedBackend.name] = VectorizedBackend


__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "VectorExecutionPlan",
    "VectorPlanStatistics",
    "VectorizedBackend",
    "compile_vectorized",
]
