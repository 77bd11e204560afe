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
* every target is compiled into **one straight-line Python function**: the
  equation tree is flattened into a *shape* (a prefix tuple of node-kind
  tokens) plus the values it is parameterised over (signal and state slots,
  constants, operators), and the shape is turned into source once — every
  node inlined, each operand's status kept in a local, branches the shape
  makes impossible pruned — then cached, so the plan's many equations of one
  shape share one code object and binding an equation is one function
  construction.  The generated code follows the reference evaluation rules
  exactly (operand order, laziness, statuses, warning and exception
  messages); stepwise operators are resolved at compile time (user-registered
  ones at application time), and pure applications of constants, static
  clock tests (``when`` over a constant, ``^`` of a constant) are **folded**;
  a subtree nested deeper than ``_MAX_NESTING`` ``when`` operands or
  ``default`` right branches is bound as its own generated function;
* delay and cell memories are allocated **integer state slots** instead of
  path-keyed dictionary entries, and the post-instant memory commit is
  compiled down to the equations that actually own memory (the reference
  walks every expression of every equation at every instant);
* the per-instant sweep keeps a **worklist** of still-unresolved targets,
  visited in the reference interpreter's declaration order with clock
  propagation after each sweep — the exact same fixed-point trajectory, so
  traces, warnings and errors are bit-identical by construction (resolution
  order interacts observably with ``^=`` constraint propagation, which is
  why a reordering "optimisation" is not semantics-preserving).

The resulting :class:`ExecutionPlan` is immutable with respect to the model:
one plan can run many scenarios, which is what the batched multi-scenario
API (:func:`repro.sig.engine.batch.simulate_batch`) builds on.
"""

from __future__ import annotations

import builtins
import functools
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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
# Status *slots* only ever hold UNKNOWN, PRESENT, _ABSENT_ST or PRESUMED:
# CONST is the status of an expression, never of a signal.
UNKNOWN = 0
PRESENT = 1
_ABSENT_ST = 2
CONST = 3
PRESUMED = 4

#: Sentinel marking a shared-variable memory slot that was never written.
_NOWRITE = object()

#: Evaluation function: ``(status, values, state, varmem, instant, warnings,
#: strict) -> (status_code, value)``.
EvalFn = Callable[..., Tuple[int, Any]]
#: Memory-commit closure: ``(status, values, state, varmem, strict) -> None``.
CommitFn = Callable[..., None]

#: Built-in operators known to be pure, and therefore safe to fold over
#: constant operands at compile time (and to vectorise over instant blocks).
#: User functions registered through
#: :func:`repro.sig.expressions.register_stepwise_operation` may be stateful,
#: so they are always applied at run time like the interpreter does.
PURE_OPERATORS = frozenset(
    ["+", "-", "*", "/", "%", "neg", "=", "/=", "<", "<=", ">", ">=",
     "and", "or", "xor", "not", "min", "max", "abs"]
)


def _late_operator(op: str) -> Callable[..., Any]:
    """A user-registered (or unknown) operator, resolved at application time
    so late registration and re-registration behave exactly like the
    reference interpreter."""

    def apply(*args: Any) -> Any:
        return apply_stepwise(op, list(args))

    return apply


def _operator_violation(op: str, instant: int, warnings: List[str], strict: bool) -> None:
    """Report an operator applied to operands that are not all present."""
    message = (
        f"clock violation at instant {instant}: operator {op!r} "
        "applied to operands that are not all present"
    )
    if strict:
        raise ClockViolation(message)
    warnings.append(message)


def _resolve_multi(
    present: List[Any], name: str, instant: int, warnings: List[str], strict: bool
) -> Tuple[int, Any]:
    """Arbitrate the present values of a multiply-defined target.

    Partial definitions that all resolved: absent when none is present,
    otherwise the first present value, with a non-determinism report when
    the present values differ.
    """
    if not present:
        return _ABSENT_ST, ABSENT
    distinct = {repr(value) for value in present}
    if len(distinct) > 1:
        message = (
            f"non-deterministic definition of {name!r} at instant {instant}: "
            + ", ".join(sorted(distinct))
        )
        if strict:
            raise NonDeterministicDefinition(message)
        warnings.append(message)
    value = present[0]
    return (_ABSENT_ST if value is ABSENT else PRESENT), value


# ----------------------------------------------------------------------
# shapes: the walk that flattens an equation
# ----------------------------------------------------------------------

#: Shape tokens with a fixed arity: ``token -> (own parameters, children)``.
#: ``F<n>`` (a stepwise application of *n* operands; parameters: the
#: operator callable and its name) and ``M<n>`` (a target with *n* partial
#: definitions; parameter: the target name) carry their child count.
_ARITY = {
    "R": (1, 0),   # signal reference: slot
    "V": (1, 0),   # shared variable: slot
    "K": (1, 0),   # constant: value
    "T": (0, 0),   # static clock test that holds: present, True
    "A": (0, 0),   # static clock test that fails: absent
    "D": (2, 1),   # delay: state slot, init; operand
    "CK": (0, 1),  # ^e
    "WC": (0, 1),  # when e
    "W": (0, 2),   # e when c: operand, condition
    "DF": (0, 2),  # l default r
    "C": (1, 2),   # cell: state slot; operand, condition
    "CU": (0, 2),  # ^+
    "CI": (0, 2),  # ^*
    "CD": (0, 2),  # ^-
    "E": (1, 0),   # subtree past the nesting bound: its own evaluator
}
#: Token and child fields of the nodes walked generically.
_STRUCTURE = {
    When: ("W", ("operand", "condition")),
    WhenClock: ("WC", ("condition",)),
    ClockOf: ("CK", ("operand",)),
    Default: ("DF", ("left", "right")),
    ClockUnion: ("CU", ("left", "right")),
    ClockIntersection: ("CI", ("left", "right")),
    ClockDifference: ("CD", ("left", "right")),
}
#: Children that a generated body emits one indentation level deeper than
#: their parent (inside an ``else:``): a ``when``'s operand and a
#: ``default``'s right branch.
_NESTED = {(When, "operand"), (Default, "right")}
#: Nesting depth past which a subtree is bound as its own generated
#: evaluator (token ``E``), keeping every body well inside CPython's 100
#: indentation levels.
_MAX_NESTING = 32


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

    def walk(
        self, expr: Expression, tokens: List[str], params: List[Any], depth: int = 0
    ) -> Optional[CommitFn]:
        """Append *expr*'s shape tokens and parameters (prefix order: a node's
        own parameters, then its children) and return its memory commit
        (``None`` when the subtree owns no delay/cell state).

        Slots and state slots are allocated children first, in operand
        order — the allocation order of the reference's evaluation — so a
        node whose own slot must follow its children's reserves a parameter
        and fills it in afterwards.  *depth* counts the ``_NESTED`` edges
        above *expr*.
        """
        if depth > _MAX_NESTING:
            sub_tokens: List[str] = []
            sub_params: List[Any] = []
            commit = self.walk(expr, sub_tokens, sub_params)
            tokens.append("E")
            params.append(_evaluator(tuple(sub_tokens), sub_params, "subexpression"))
            return commit
        kind = type(expr)
        if kind is SignalRef or kind is Var:
            tokens.append("R" if kind is SignalRef else "V")
            params.append(self.slot(expr.name))
            self.uses_varmem = self.uses_varmem or kind is Var
            return None
        if kind is Const:
            tokens.append("K")
            params.append(expr.value)
            return None
        if kind is FunctionApp:
            return self._walk_function(expr, tokens, params, depth)
        if kind is Delay or kind is Cell:
            return self._walk_memory(expr, tokens, params, depth)
        if kind is WhenClock and type(expr.condition) is Const:
            # Static clock test: decided at compile time.
            tokens.append("T" if bool(expr.condition.value) else "A")
            return None
        if kind is ClockOf and type(expr.operand) is Const:
            # The clock of a constant is empty in the reference interpreter.
            tokens.append("A")
            return None
        token, fields = _STRUCTURE.get(kind, (None, ()))
        if token is None:
            raise TypeError(f"cannot compile expression of type {kind.__name__}")
        tokens.append(token)
        # Commits run in field order (a ``when``'s operand before its
        # condition), as the reference advances memories.
        return self._merge_commits([
            self.walk(getattr(expr, f), tokens, params, depth + ((kind, f) in _NESTED))
            for f in fields
        ])

    def _walk_function(
        self, expr: FunctionApp, tokens: List[str], params: List[Any], depth: int
    ) -> Optional[CommitFn]:
        op, args = expr.op, expr.args
        pure = op in PURE_OPERATORS
        # Constant folding: a *pure* stepwise application of constants is a
        # constant.
        if pure and args and all(isinstance(a, Const) for a in args):
            try:
                folded = apply_stepwise(op, [a.value for a in args])
            except Exception:
                pass  # fold failed: fall through and fail at run time, like the interpreter
            else:
                tokens.append("K")
                params.append(folded)
                return None
        tokens.append(f"F{len(args)}")
        params.append(STEPWISE_OPERATIONS[op] if pure else _late_operator(op))
        params.append(op)
        return self._merge_commits([self.walk(a, tokens, params, depth) for a in args])

    def _walk_memory(self, expr: Any, tokens: List[str], params: List[Any], depth: int) -> CommitFn:
        """A delay or a cell.  Its commit reads the operand with the *old*
        nested state, advances the nested memories, then stores the operand's
        value when present — so that chained delays shift correctly."""
        delay = type(expr) is Delay
        tokens.append("D" if delay else "C")
        at = len(params)
        params.extend((None, expr.init) if delay else (None,))
        start = (len(tokens), len(params))
        nested = [self.walk(expr.operand, tokens, params, depth)]
        operand = (tuple(tokens[start[0]:]), params[start[1]:])
        if not delay:
            nested.append(self.walk(expr.condition, tokens, params, depth))
        depth = max(1, expr.depth) if delay else 1
        k = params[at] = self.state_slot([expr.init] * depth)
        shift = depth > 1

        if delay and type(expr.operand) is SignalRef:
            # ``x $ k``: the commit reads the operand's slots directly.
            s = self.slot(expr.operand.name)

            def commit_ref(st, vals, state, varmem, strict, _s=s, _k=k):
                if st[_s] == PRESENT:
                    buffer = state[_k]
                    if shift:
                        buffer.pop(0)
                        buffer.append(vals[_s])
                    else:
                        buffer[0] = vals[_s]

            return commit_ref

        operand_ev = _evaluator(operand[0], operand[1], "memory_operand")
        nested_commit = self._merge_commits(nested)

        def commit(st, vals, state, varmem, strict, _k=k):
            code, value = operand_ev(st, vals, state, varmem, -1, [], strict)
            if nested_commit is not None:
                nested_commit(st, vals, state, varmem, strict)
            if code == PRESENT:
                buffer = state[_k]
                if shift:
                    buffer.pop(0)
                    buffer.append(value)
                else:
                    buffer[0] = value

        return commit

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


def _target_evaluator(name: str, definitions: List[Tuple[List[str], List[Any]]]) -> EvalFn:
    """One evaluation function for a target and its walked definitions."""
    if len(definitions) == 1:
        tokens, params = definitions[0]
        return _evaluator(tuple(tokens), params, name)
    shape = [f"M{len(definitions)}"]
    bound: List[Any] = [name]
    for tokens, params in definitions:
        shape.extend(tokens)
        bound.extend(params)
    return _evaluator(tuple(shape), bound, name)


#: Globals of every generated evaluator.
_EVAL_GLOBALS: Dict[str, Any] = {
    "__builtins__": builtins,
    "ABSENT": ABSENT,
    "_NOWRITE": _NOWRITE,
    "_operator_violation": _operator_violation,
    "_resolve_multi": _resolve_multi,
}


def _evaluator(shape: Tuple[str, ...], params: Sequence[Any], name: str) -> EvalFn:
    """Bind *params* to the generated function of *shape*."""
    return types.FunctionType(_shape_code(shape), _EVAL_GLOBALS, name, tuple(params))


@functools.lru_cache(maxsize=1024)
def _shape_code(shape: Tuple[str, ...]) -> types.CodeType:
    """The code object of *shape*'s evaluator (source generated on a miss)."""
    namespace: Dict[str, Any] = {}
    exec(compile(_ShapeSource(shape).source, "<plan-evaluator>", "exec"), namespace)
    return namespace["_eval"].__code__


# ----------------------------------------------------------------------
# shapes: the generated source
# ----------------------------------------------------------------------
#
# Inside a generated body, a subtree's result is an ``_Out``: the local
# holding a *raw* status (``None`` when the result is static), the map from
# each raw value that local can take to the subtree's status, and the Python
# expression of the subtree's value under PRESENT/CONST.  Signal reads,
# delays and clocks are *views* — a new status map over their operand's
# local, with no code of their own — and every other node is an if/elif
# chain assigning a fresh status local (or returning, at the root).
#
# Chains track, per raw local, the values still possible on the current
# path (``feasible``): a condition that cannot hold is dropped, one that
# must hold becomes the final ``else``, and what remains is tested on the
# raw local directly.  Conditions are small trees:
#   ("t", var, raws)               the raw local ``var`` is one of ``raws``;
#   ("v", out, codes, negate)      truthiness of ``out``'s value (status in
#                                  ``codes``), negated when ``negate``;
#   ("or", parts) / ("and", parts);
# plus the static ``True``/``False``.

_ANY_STATUS = {UNKNOWN: UNKNOWN, PRESENT: PRESENT, _ABSENT_ST: _ABSENT_ST, PRESUMED: PRESUMED}
_VALUED = (PRESENT, CONST)
#: Status maps of the view nodes: a delay is present with its operand
#: (presumed included) and a constant with a constant; a clock is present
#: with its operand and absent for a constant.
_DELAY_MAP = {UNKNOWN: UNKNOWN, PRESENT: PRESENT, PRESUMED: PRESENT, _ABSENT_ST: _ABSENT_ST, CONST: CONST}
_CLOCK_MAP = {UNKNOWN: UNKNOWN, PRESENT: PRESENT, PRESUMED: PRESENT, _ABSENT_ST: _ABSENT_ST, CONST: _ABSENT_ST}


class _Out:
    __slots__ = ("var", "codes", "values")

    def __init__(self, var: Optional[str], codes: Dict[Any, int], values: Dict[int, str]) -> None:
        self.var = var
        self.codes = codes
        self.values = values


def _static(code: int, value: Optional[str] = None) -> _Out:
    return _Out(None, {None: code}, {code: value} if value is not None else {})


def _view(out: _Out, table: Dict[int, int], values: Dict[int, str]) -> _Out:
    return _Out(out.var, {raw: table[code] for raw, code in out.codes.items()}, values)


def _term(out: _Out, codes: Iterable[int]) -> Any:
    """Condition: the status of *out* is one of *codes*."""
    codes = frozenset(codes)
    if out.var is None:
        return out.codes[None] in codes
    return ("t", out.var, frozenset(raw for raw, code in out.codes.items() if code in codes))


def _value(out: _Out, codes: Iterable[int], feasible: Dict[str, FrozenSet[int]]) -> str:
    """*out*'s value expression, its status being one of *codes*."""
    if out.var is None:
        return out.values[out.codes[None]]
    live = feasible[out.var]
    wanted = [c for c in _VALUED if c in codes and any(out.codes[r] == c for r in live)]
    if not wanted:
        return "ABSENT"  # only on a path the shape cannot take
    if len(wanted) == 1 or out.values[wanted[0]] == out.values[wanted[1]]:
        return out.values[wanted[0]]
    both = frozenset(r for r in live if out.codes[r] in _VALUED)
    present = frozenset(r for r in both if out.codes[r] == PRESENT)
    test = _render(("t", out.var, present), {out.var: both})
    return f"({out.values[PRESENT]} if {test} else {out.values[CONST]})"


def _simplify(cond: Any, feasible: Dict[str, FrozenSet[int]]) -> Any:
    if cond is True or cond is False:
        return cond
    kind = cond[0]
    if kind == "t":
        live = feasible[cond[1]]
        hit = cond[2] & live
        if not hit:
            return False
        return True if hit == live else ("t", cond[1], hit)
    if kind == "v":
        if _value(cond[1], cond[2], feasible) == "True":
            return not cond[3]
        return cond
    is_or = kind == "or"
    parts: List[Any] = []
    merged: Dict[str, FrozenSet[int]] = {}
    for part in cond[1]:
        part = _simplify(part, feasible)
        if part is is_or:
            return is_or
        if part is (not is_or):
            continue
        if part[0] == "t":
            var = part[1]
            if var in merged:
                merged[var] = merged[var] | part[2] if is_or else merged[var] & part[2]
                continue
            merged[var] = part[2]
            part = var
        parts.append(part)
    result = []
    for part in parts:
        if isinstance(part, str):
            part = _simplify(("t", part, merged[part]), feasible)
            if part is is_or:
                return is_or
            if part is (not is_or):
                continue
        result.append(part)
    if not result:
        return not is_or
    return result[0] if len(result) == 1 else (kind, tuple(result))


def _render(cond: Any, feasible: Dict[str, FrozenSet[int]]) -> str:
    kind = cond[0]
    if kind == "t":
        var, hit = cond[1], cond[2]
        miss = feasible[var] - hit
        if len(hit) == 1:
            return f"{var} == {next(iter(hit))}"
        if len(miss) == 1:
            return f"{var} != {next(iter(miss))}"
        if len(miss) < len(hit):
            return f"{var} not in {tuple(sorted(miss))}"
        return f"{var} in {tuple(sorted(hit))}"
    if kind == "v":
        value = _value(cond[1], cond[2], feasible)
        return f"not {value}" if cond[3] else value
    return (" or " if kind == "or" else " and ").join(
        f"({_render(part, feasible)})" if part[0] in ("or", "and") else _render(part, feasible)
        for part in cond[1]
    )


def _narrow(cond: Any, feasible: Dict[str, FrozenSet[int]], holds: bool) -> Dict[str, FrozenSet[int]]:
    """*feasible* once *cond* is known to hold (or to fail)."""
    kind = cond[0]
    if kind == "t":
        narrowed = dict(feasible)
        narrowed[cond[1]] = feasible[cond[1]] & cond[2] if holds else feasible[cond[1]] - cond[2]
        return narrowed
    if kind == "v" or (kind == "and") != holds:
        return feasible
    # Every conjunct holds, or every disjunct fails.
    for part in cond[1]:
        feasible = _narrow(part, feasible, holds)
    return feasible


class _Dest:
    """Where a chain node's outcomes go: a status local plus a value local
    (*fixed* maps the statuses whose value is a known expression)."""

    __slots__ = ("code", "value", "fixed", "codes")

    def __init__(self, code: str, value: str, fixed: Dict[int, str]) -> None:
        self.code = code
        self.value = value
        self.fixed = fixed
        self.codes: set = set()


class _ShapeSource:
    """The source of one shape's evaluator: ``def _eval(st, vals, state,
    varmem, instant, warnings, strict, _p0, _p1, ...)``."""

    def __init__(self, shape: Tuple[str, ...]) -> None:
        tokens = iter(shape)
        count = 0

        def parse() -> Tuple[str, Tuple[str, ...], Tuple[Any, ...]]:
            nonlocal count
            token = next(tokens)
            if token[0] in "FM":
                kind, own, kids = token[0], (2 if token[0] == "F" else 1), int(token[1:])
            else:
                kind, (own, kids) = token, _ARITY[token]
            params = tuple(f"_p{count + i}" for i in range(own))
            count += own
            return kind, params, tuple(parse() for _ in range(kids))

        tree = parse()
        self.lines = [
            "def _eval(st, vals, state, varmem, instant, warnings, strict"
            + "".join(f", _p{i}" for i in range(count)) + "):"
        ]
        self.locals = 0
        self.emit(tree, 1, {}, ret=True)
        self.source = "\n".join(self.lines) + "\n"

    # -- plumbing -------------------------------------------------------
    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def local(self, prefix: str) -> str:
        self.locals += 1
        return f"{prefix}{self.locals}"

    def emit(self, node, indent, feasible, ret=False) -> Optional[_Out]:
        """Emit *node*; return its result, or (``ret``) return it from the
        generated function on every path."""
        kind = node[0]
        if kind in ("R", "V", "K", "T", "A", "D", "CK", "E"):
            out = getattr(self, "_" + kind)(node, indent, feasible)
            if not ret:
                return out
            branches = [
                (_term(out, (code,)), self.result(None, code, (out, (code,))))
                for code in _VALUED
            ]
            branches.append((True, self.forward(None, out)))
            self.chain(indent, feasible, None, branches)
            return None
        fixed = {PRESENT: "True"} if kind in ("WC", "CU", "CI", "CD") else {}
        dest = None if ret else _Dest(self.local("c"), self.local("v"), fixed)
        getattr(self, "_" + kind)(node, indent, feasible, dest)
        if dest is None:
            return None
        feasible[dest.code] = frozenset(dest.codes)
        return _Out(
            dest.code,
            {code: code for code in dest.codes},
            {code: fixed.get(code, dest.value) for code in dest.codes if code in _VALUED},
        )

    def chain(self, indent, feasible, dest, branches) -> None:
        """Emit ``(condition, action)`` branches as one if/elif/else chain;
        the last condition is ``True``."""
        first = True
        for cond, action in branches:
            cond = _simplify(cond, feasible)
            if cond is False:
                continue
            if cond is True:
                if not first:
                    self.line(indent, "else:")
                    indent += 1
                action(indent, feasible)
                return
            self.line(indent, f"{'if' if first else 'elif'} {_render(cond, feasible)}:")
            action(indent + 1, _narrow(cond, feasible, True))
            feasible = _narrow(cond, feasible, False)
            first = False
        raise AssertionError("chain without a final branch")

    def result(self, dest, code, value=None):
        """Action: the node's status is *code* with *value* (a string, or
        ``(out, codes)`` for an operand's value)."""

        def act(indent, feasible):
            text = _value(value[0], value[1], feasible) if isinstance(value, tuple) else value
            if dest is None:
                self.line(indent, f"return {code}, {text if code in _VALUED else 'ABSENT'}")
                return
            self.line(indent, f"{dest.code} = {code}")
            dest.codes.add(code)
            if code in _VALUED and code not in dest.fixed:
                self.line(indent, f"{dest.value} = {text}")

        return act

    def forward(self, dest, out):
        """Action: the node takes *out*'s (valueless) status."""

        def act(indent, feasible):
            live = feasible.get(out.var, frozenset([None]))
            codes = sorted({out.codes[raw] for raw in live})
            if len(codes) == 1:
                self.result(dest, codes[0])(indent, feasible)
            elif all(out.codes[raw] == raw for raw in live):
                if dest is None:
                    self.line(indent, f"return {out.var}, ABSENT")
                else:
                    self.line(indent, f"{dest.code} = {out.var}")
                    dest.codes.update(codes)
            else:
                self.chain(indent, feasible, dest, [
                    (_term(out, (code,)) if code != codes[-1] else True, self.result(dest, code))
                    for code in codes
                ])

        return act

    def nested(self, dest, branches):
        """Action: a further chain (its conditions built on entry)."""

        def act(indent, feasible):
            self.chain(indent, feasible, dest, branches())

        return act

    # -- views ----------------------------------------------------------
    def _R(self, node, indent, feasible) -> _Out:
        slot = node[1][0]
        code = self.local("c")
        self.line(indent, f"{code} = st[{slot}]")
        feasible[code] = frozenset(_ANY_STATUS)
        return _Out(code, dict(_ANY_STATUS), {PRESENT: f"vals[{slot}]"})

    def _V(self, node, indent, feasible) -> _Out:
        slot = node[1][0]
        code, value = self.local("c"), self.local("v")
        self.line(indent, f"{code} = st[{slot}]")
        self.line(indent, f"if {code} == {PRESENT}:")
        self.line(indent + 1, f"{value} = vals[{slot}]")
        self.line(indent, f"elif {code} == {_ABSENT_ST}:")
        self.line(indent + 1, f"{value} = varmem[{slot}]")
        self.line(indent + 1, f"if {value} is not _NOWRITE:")
        self.line(indent + 2, f"{code} = {CONST}")
        return self._any(code, value, feasible)

    def _E(self, node, indent, feasible) -> _Out:
        code, value = self.local("c"), self.local("v")
        self.line(
            indent,
            f"{code}, {value} = {node[1][0]}(st, vals, state, varmem, instant, warnings, strict)",
        )
        return self._any(code, value, feasible)

    @staticmethod
    def _any(code: str, value: str, feasible) -> _Out:
        """A status local that may hold any status, CONST included."""
        codes = dict(_ANY_STATUS)
        codes[CONST] = CONST
        feasible[code] = frozenset(codes)
        return _Out(code, codes, {PRESENT: value, CONST: value})

    def _K(self, node, indent, feasible) -> _Out:
        return _static(CONST, node[1][0])

    def _T(self, node, indent, feasible) -> _Out:
        return _static(PRESENT, "True")

    def _A(self, node, indent, feasible) -> _Out:
        return _static(_ABSENT_ST)

    def _D(self, node, indent, feasible) -> _Out:
        state_slot, init = node[1]
        operand = self.emit(node[2][0], indent, feasible)
        return _view(operand, _DELAY_MAP, {PRESENT: f"state[{state_slot}][0]", CONST: init})

    def _CK(self, node, indent, feasible) -> _Out:
        return _view(self.emit(node[2][0], indent, feasible), _CLOCK_MAP, {PRESENT: "True"})

    # -- chains ---------------------------------------------------------
    def _F(self, node, indent, feasible, dest) -> None:
        func, op = node[1]
        outs = [self.emit(kid, indent, feasible) for kid in node[2]]
        present = ("or", tuple(_term(out, (PRESENT,)) for out in outs))
        absent = ("or", tuple(_term(out, (_ABSENT_ST,)) for out in outs))

        def call(code):
            def act(indent, feasible):
                args = ", ".join(_value(out, _VALUED, feasible) for out in outs)
                if dest is None:
                    self.line(indent, f"return {code}, {func}({args})")
                    return
                self.line(indent, f"{dest.value} = {func}({args})")
                self.line(indent, f"{dest.code} = {code}")
                dest.codes.add(code)

            return act

        def violation(indent, feasible):
            self.line(indent, f"_operator_violation({op}, instant, warnings, strict)")
            self.result(dest, _ABSENT_ST)(indent, feasible)

        self.chain(indent, feasible, dest, [
            (("or", tuple(_term(out, (UNKNOWN, PRESUMED)) for out in outs)),
             self.result(dest, UNKNOWN)),
            (("and", (present, absent)), violation),
            (present, call(PRESENT)),
            (absent, self.result(dest, _ABSENT_ST)),
            (True, call(CONST)),
        ])

    def _W(self, node, indent, feasible, dest) -> None:
        operand_node, cond_node = node[2]
        cond = self.emit(cond_node, indent, feasible)

        def operand(indent, feasible):
            out = self.emit(operand_node, indent, feasible)
            self.chain(indent, feasible, dest, [
                (_term(out, (UNKNOWN, PRESUMED)), self.forward(dest, out)),
                (_term(out, (_ABSENT_ST,)), self.result(dest, _ABSENT_ST)),
                (True, self.result(dest, PRESENT, (out, _VALUED))),
            ])

        self.chain(indent, feasible, dest, [
            (_term(cond, (UNKNOWN, PRESUMED)), self.result(dest, UNKNOWN)),
            (_term(cond, (_ABSENT_ST,)), self.result(dest, _ABSENT_ST)),
            (("v", cond, _VALUED, True), self.result(dest, _ABSENT_ST)),
            (True, operand),
        ])

    def _WC(self, node, indent, feasible, dest) -> None:
        cond = self.emit(node[2][0], indent, feasible)
        self.chain(indent, feasible, dest, [
            (_term(cond, (UNKNOWN, PRESUMED)), self.result(dest, UNKNOWN)),
            (("and", (_term(cond, _VALUED), ("v", cond, _VALUED, False))),
             self.result(dest, PRESENT, "True")),
            (True, self.result(dest, _ABSENT_ST)),
        ])

    def _DF(self, node, indent, feasible, dest) -> None:
        left_node, right_node = node[2]
        left = self.emit(left_node, indent, feasible)
        left_value = (left, (CONST,))

        def right(indent, feasible):
            out = self.emit(right_node, indent, feasible)
            # A constant left branch adapts to the clock of the right one.
            self.chain(indent, feasible, dest, [
                (_term(left, (CONST,)), self.nested(dest, lambda: [
                    (_term(out, (UNKNOWN,)), self.result(dest, UNKNOWN)),
                    (_term(out, (PRESENT,)), self.result(dest, PRESENT, left_value)),
                    (_term(out, (CONST,)), self.result(dest, CONST, left_value)),
                    (_term(out, (PRESUMED,)), self.result(dest, PRESUMED)),
                    (True, self.result(dest, CONST, left_value)),
                ])),
                (True, self.nested(dest, lambda: [
                    (_term(out, (PRESENT,)), self.result(dest, PRESENT, (out, (PRESENT,)))),
                    (_term(out, (CONST,)), self.result(dest, CONST, (out, (CONST,)))),
                    (True, self.forward(dest, out)),
                ])),
            ])

        self.chain(indent, feasible, dest, [
            (_term(left, (UNKNOWN,)), self.result(dest, UNKNOWN)),
            (_term(left, (PRESENT,)), self.result(dest, PRESENT, (left, (PRESENT,)))),
            (_term(left, (PRESUMED,)), self.result(dest, PRESUMED)),
            (True, right),
        ])

    def _C(self, node, indent, feasible, dest) -> None:
        operand = self.emit(node[2][0], indent, feasible)
        cond = self.emit(node[2][1], indent, feasible)
        self.chain(indent, feasible, dest, [
            (("or", (_term(operand, (UNKNOWN,)), _term(cond, (UNKNOWN, PRESUMED)))),
             self.result(dest, UNKNOWN)),
            (_term(operand, (PRESUMED,)), self.result(dest, PRESUMED)),
            (_term(operand, (PRESENT,)), self.result(dest, PRESENT, (operand, (PRESENT,)))),
            (("and", (_term(cond, _VALUED), ("v", cond, _VALUED, False))),
             self.result(dest, PRESENT, f"state[{node[1][0]}][0]")),
            (True, self.result(dest, _ABSENT_ST)),
        ])

    def _clock(self, node, indent, feasible, dest) -> None:
        # ^+, ^* and ^-: both operands first, then their statuses.
        left = self.emit(node[2][0], indent, feasible)
        right = self.emit(node[2][1], indent, feasible)
        occurs = (PRESENT, PRESUMED)
        present = self.result(dest, PRESENT, "True")
        absent = self.result(dest, _ABSENT_ST)
        unknown = (("or", (_term(left, (UNKNOWN,)), _term(right, (UNKNOWN,)))),
                   self.result(dest, UNKNOWN))
        branches = {
            "CU": [(("or", (_term(left, occurs), _term(right, occurs))), present), unknown],
            "CI": [
                (("or", (_term(left, (_ABSENT_ST,)), _term(right, (_ABSENT_ST,)))), absent),
                unknown,
                (("and", (_term(left, occurs), _term(right, occurs))), present),
            ],
            "CD": [
                (_term(left, (_ABSENT_ST,)), absent),
                unknown,
                (("and", (_term(left, occurs), _term(right, (_ABSENT_ST, CONST)))), present),
            ],
        }[node[0]]
        self.chain(indent, feasible, dest, branches + [(True, absent)])

    _CU = _CI = _CD = _clock

    def _M(self, node, indent, feasible, dest) -> None:
        # Partial definitions, evaluated in order; the first one still
        # unknown (or presumed) leaves the whole target unresolved.
        outs = []
        for kid in node[2]:
            out = self.emit(kid, indent, feasible)
            unknown = _simplify(_term(out, (UNKNOWN, PRESUMED)), feasible)
            if unknown is True:
                self.line(indent, "return 0, ABSENT")
                return
            if unknown is not False:
                self.line(indent, f"if {_render(unknown, feasible)}:")
                self.line(indent + 1, "return 0, ABSENT")
                feasible = _narrow(unknown, feasible, False)
            outs.append(out)
        self.line(indent, "present = []")
        for out in outs:
            present = _simplify(_term(out, (PRESENT,)), feasible)
            if present is False:
                continue
            append = f"present.append({_value(out, (PRESENT,), feasible)})"
            if present is True:
                self.line(indent, append)
            else:
                self.line(indent, f"if {_render(present, feasible)}:")
                self.line(indent + 1, append)
        self.line(indent, f"return _resolve_multi(present, {node[1][0]}, instant, warnings, strict)")


class TargetPlan:
    """Pre-resolved definition set of one equation target.

    ``evaluate`` is the target's generated evaluation function: for a
    multiply-defined target (``definitions > 1``) it resolves the partial
    definitions together and returns UNKNOWN until every one resolved,
    then the arbitrated present value or absent.
    """

    __slots__ = ("name", "slot", "declared", "definitions", "evaluate")

    def __init__(
        self, name: str, slot: int, declared: bool, definitions: int, evaluate: EvalFn
    ) -> None:
        self.name = name
        self.slot = slot
        self.declared = declared
        self.definitions = definitions
        self.evaluate = evaluate


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
        # interpreter's resolution units), walking each definition once.
        grouped: Dict[str, List[Tuple[List[str], List[Any]]]] = {}
        commits: List[CommitFn] = []
        delay_candidates: Dict[str, Tuple[int, Any, str]] = {}
        delay_commit_candidates: Dict[str, int] = {}
        for eq in process.equations:
            state_base = len(compiler.state_init)
            tokens: List[str] = []
            params: List[Any] = []
            commit = compiler.walk(eq.expr, tokens, params)
            grouped.setdefault(eq.target, []).append((tokens, params))
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
        # it every warning and error — is reproduced exactly.
        self.targets: List[TargetPlan] = [
            TargetPlan(
                name,
                compiler.slot(name),
                name in declared,
                len(definitions),
                _target_evaluator(name, definitions),
            )
            for name, definitions in grouped.items()
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
        # order: (slot, declared, evaluator, target).  Declared inputs are
        # never resolved (scenario wins).
        self._work: Tuple[Tuple[int, bool, EvalFn, TargetPlan], ...] = tuple(
            (target.slot, target.declared, target.evaluate, target)
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
    @functools.cached_property
    def acyclic_dependencies(self) -> bool:
        """Whether the instantaneous dependency graph is acyclic (it is for
        well-formed models).  Built on first use: the static dependency
        graph (:mod:`repro.sig.scheduler_graph`, the same graph the paper
        uses for code generation) is only read by reports, so a compile
        does not pay for it."""
        graph = build_dependency_graph(self.process, include_clock_edges=False)
        return graph.topological_order() is not None

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
        sync_groups = self._sync_groups

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
                    st, vals, state, varmem, instant, warnings, strict, base_work,
                    sync_groups,
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
        self, st, vals, state, varmem, instant, warnings, strict, work, groups
    ) -> None:
        """Resolve one instant's statuses and values in place.

        Sweeps the *work* targets in the reference interpreter's order,
        keeping only the unresolved ones for the next sweep, with ``^=``
        clock propagation over *groups* after each sweep — the same
        trajectory (and hence the same warnings and errors) as the
        reference fixed point.  :meth:`run` passes every group; the
        vectorized backend's residual sweep
        (:mod:`repro.sig.engine.vectorized`) passes the groups with a
        residual member.
        """
        propagate_sync = self._propagate_sync_groups
        bare_constant = self._BARE_CONSTANT
        unresolved = work
        progress = True
        while progress:
            progress = False
            still: List[Tuple[int, bool, EvalFn, TargetPlan]] = []
            for item in unresolved:
                slot, is_declared, evaluate, target = item
                if is_declared:
                    code = st[slot]
                    if code == PRESENT or code == _ABSENT_ST:
                        # Settled by a synchronisation group: drop the item,
                        # but (like the reference) this is not resolution
                        # progress.
                        continue
                code, value = evaluate(st, vals, state, varmem, instant, warnings, strict)
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
                progress = True
            unresolved = still
            if propagate_sync(st, instant, warnings, strict, groups):
                progress = True
        if unresolved:
            # Still-blocked *declared* targets are an instantaneous cycle,
            # reported in declaration order as the reference's status
            # dictionary does; undeclared leftovers stay absent.
            blocked = {
                item[0]
                for item in unresolved
                if item[1] and st[item[0]] in (UNKNOWN, PRESUMED)
            }
            if blocked:
                slot_of = self.slot_of
                raise InstantaneousCycle(instant, [
                    name for name in self.process.signals if slot_of[name] in blocked
                ])

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
