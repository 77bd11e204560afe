"""Symbolic scenario programs: constant-memory input flows.

A :class:`Scenario` used to store one Python list entry per instant for
every driven input — the last O(instants) memory wall of the simulation
pipeline (the output side streams through :mod:`repro.sig.sinks`, the
compute side runs in blocks).  This module replaces the eager lists with a
**symbolic input program**: each driven signal is described by a small
:class:`InputRule` — :class:`PeriodicRule`, :class:`SparseRule`,
:class:`ConstantRule`, :class:`ExplicitRule` (the backward-compatible eager
list), or the :class:`GeneratorRule` escape hatch — evaluated lazily per
instant.  A million-instant periodic scenario is now a few dozen bytes,
ships to multiprocessing workers as a few bytes of pickle, and lets the
vectorized backend synthesise whole input columns arithmetically
(:meth:`InputRule.block_columns`) instead of slicing Python lists.

The rule contract is small:

* :meth:`InputRule.value` — the value at one instant (``ABSENT`` when the
  signal does not occur);
* :meth:`InputRule.sampler` — a precompiled closure ``instant -> value``
  for hot per-instant loops (what the execution engines call);
* :meth:`InputRule.column` — an eager Python-list window, for
  materialisation and the explicit-rule fallbacks;
* :meth:`InputRule.block_columns` — an optional numpy fast path producing
  presence/value columns for a whole instant block arithmetically;
  ``None`` (the default) means "no fast path, sample per instant".

Rules compose: :meth:`Scenario.set_at` overlays a :class:`SparseRule` on
whatever rule already drives the signal, so ``set_periodic`` + ``set_at``
builds a periodic flow with pointwise exceptions without materialising
either.

A scenario may be **unbounded** (``Scenario()`` / ``length=None``): the run
horizon is then supplied at simulate time (``simulate(..., length=N)``) or
decided by the consuming sink, and one symbolic scenario can be reused
across many horizons (the CLI ``--scenario-length`` sweep does exactly
that).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .values import ABSENT, is_absent

#: Precompiled per-signal sampling closure: ``instant -> value-or-ABSENT``.
Sampler = Callable[[int], Any]

#: Internal sentinel distinguishing "no entry" from an explicit ``ABSENT``.
_MISSING = object()


class InputRule:
    """One symbolic rule describing the flow of a driven input signal.

    A rule is conceptually an *unbounded* flow: :meth:`value` must answer
    for any non-negative instant (``ABSENT`` where the signal does not
    occur).  Rules are immutable once built, cheap to pickle (they travel
    to multiprocessing workers in place of the old per-instant lists) and
    composable (see :class:`SparseRule`).
    """

    def value(self, instant: int) -> Any:
        """The value at *instant* (``ABSENT`` when the signal is absent)."""
        raise NotImplementedError

    def sampler(self) -> Sampler:
        """A precompiled ``instant -> value`` closure for hot loops.

        The default binds :meth:`value`; subclasses return tighter closures
        over their own fields so the per-instant engines pay one call and
        no attribute lookups.
        """
        return self.value

    def column(self, start: int, stop: int) -> List[Any]:
        """Materialise the half-open instant window ``[start, stop)``."""
        sample = self.sampler()
        return [sample(instant) for instant in range(start, stop)]

    def block_columns(self, start: int, stop: int, typed: Optional[type] = None):
        """Synthesise numpy presence/value columns for ``[start, stop)``.

        Returns ``(mask, values, typed_values)`` where ``mask`` is a bool
        array of presence, ``values`` an object array holding the exact
        Python value at present instants (``ABSENT`` elsewhere), and
        ``typed_values`` either ``None`` or a native float64/bool array
        whose entries are meaningful at present instants — produced only
        when *typed* (``float`` or ``bool``) is requested and every present
        value is exactly of that type (NaN floats stay on the object path,
        preserving value identity).  Returning ``None`` (the base default)
        means "no arithmetic fast path": the vectorized backend then falls
        back to sampling this rule instant by instant.
        """
        return None

    def finite_support(self) -> Optional[int]:
        """The first instant after which the rule is always absent.

        ``None`` means the rule has unbounded support (periodic, constant,
        generator).  Used for diagnostics only; engines never rely on it.
        """
        return None


class ConstantRule(InputRule):
    """The signal is present with the same value at every instant."""

    __slots__ = ("fill",)

    def __init__(self, fill: Any = True) -> None:
        self.fill = fill

    def __repr__(self) -> str:
        """Debug form showing the constant fill value."""
        return f"ConstantRule({self.fill!r})"

    def value(self, instant: int) -> Any:
        """The fill value at every non-negative instant."""
        return self.fill if instant >= 0 else ABSENT

    def sampler(self) -> Sampler:
        """Closure returning the fill value unconditionally."""
        fill = self.fill

        def sample(instant: int, _fill=fill) -> Any:
            return _fill

        return sample

    def column(self, start: int, stop: int) -> List[Any]:
        """A window of the constant value."""
        return [self.fill] * max(0, stop - start)

    def block_columns(self, start: int, stop: int, typed: Optional[type] = None):
        """Full-presence columns of one shared fill value."""
        size = max(0, stop - start)
        fill = self.fill
        if is_absent(fill):
            mask = np.zeros(size, dtype=bool)
            values = np.empty(size, dtype=object)
            values.fill(ABSENT)
            return mask, values, None
        mask = np.ones(size, dtype=bool)
        values = np.empty(size, dtype=object)
        values.fill(fill)
        return mask, values, _typed_fill(size, fill, typed)


class PeriodicRule(InputRule):
    """Present every *period* instants starting at *phase*, same value."""

    __slots__ = ("period", "phase", "fill")

    def __init__(self, period: int, phase: int = 0, fill: Any = True) -> None:
        if period <= 0:
            raise ValueError("period must be strictly positive")
        self.period = period
        self.phase = phase
        self.fill = fill

    def __repr__(self) -> str:
        """Debug form showing period, phase and fill."""
        return f"PeriodicRule(period={self.period}, phase={self.phase}, fill={self.fill!r})"

    def value(self, instant: int) -> Any:
        """Present at ``phase + k*period`` (k >= 0), absent elsewhere."""
        if instant >= self.phase and (instant - self.phase) % self.period == 0:
            return self.fill
        return ABSENT

    def sampler(self) -> Sampler:
        """Closure over the modular presence test."""
        period, phase, fill = self.period, self.phase, self.fill

        def sample(instant: int) -> Any:
            if instant >= phase and (instant - phase) % period == 0:
                return fill
            return ABSENT

        return sample

    def block_columns(self, start: int, stop: int, typed: Optional[type] = None):
        """Arithmetic presence mask: ``(arange - phase) % period == 0``."""
        size = max(0, stop - start)
        index = np.arange(start, start + size)
        mask = (index >= self.phase) & ((index - self.phase) % self.period == 0)
        values = np.empty(size, dtype=object)
        values.fill(ABSENT)
        # Assign the fill through a 0-d object array: a bare sequence fill
        # would otherwise be *broadcast* element-wise across the masked
        # slots instead of stored as one object per instant.
        boxed = np.empty((), dtype=object)
        boxed[()] = self.fill
        values[mask] = boxed
        return mask, values, _typed_fill(size, self.fill, typed)


class SparseRule(InputRule):
    """Pointwise values at selected instants, overlaid on an optional base.

    Where the mapping has an entry, it wins (an explicit ``ABSENT`` entry
    *masks* the base); everywhere else the base rule answers (absent when
    there is no base).  This is the composition node ``Scenario.set_at``
    builds, so periodic-with-exceptions flows stay symbolic.
    """

    __slots__ = ("entries", "base", "_sorted_instants")

    def __init__(self, entries: Mapping[int, Any], base: Optional[InputRule] = None) -> None:
        bad = sorted(instant for instant in entries if instant < 0)
        if bad:
            raise ValueError(f"sparse rule instants must be non-negative, got {bad}")
        self.entries: Dict[int, Any] = dict(entries)
        # Flatten sparse-on-sparse composition (the overlay entries win over
        # the base's, which is exactly what nesting would compute): repeated
        # ``set_at`` calls therefore stay O(1) deep instead of building an
        # unbounded rule chain whose sampler recurses per level.
        while isinstance(base, SparseRule):
            merged = dict(base.entries)
            merged.update(self.entries)
            self.entries = merged
            base = base.base
        self.base = base
        self._sorted_instants: Optional[List[int]] = None

    def __repr__(self) -> str:
        """Debug form showing entry count and base rule."""
        return f"SparseRule({len(self.entries)} entries, base={self.base!r})"

    def __getstate__(self) -> Tuple[Dict[int, Any], Optional[InputRule]]:
        """Pickle without the lazily built instant index."""
        return (self.entries, self.base)

    def __setstate__(self, state: Tuple[Dict[int, Any], Optional[InputRule]]) -> None:
        """Restore entries/base; the instant index rebuilds on demand."""
        self.entries, self.base = state
        self._sorted_instants = None

    def value(self, instant: int) -> Any:
        """The overlay entry when present, else the base rule's value."""
        hit = self.entries.get(instant, _MISSING)
        if hit is not _MISSING:
            return hit
        if self.base is not None:
            return self.base.value(instant)
        return ABSENT

    def sampler(self) -> Sampler:
        """Closure over the overlay dict and the base sampler."""
        entries = self.entries
        if self.base is None:

            def sample(instant: int) -> Any:
                return entries.get(instant, ABSENT)

            return sample
        base_sample = self.base.sampler()

        def sample_over(instant: int) -> Any:
            hit = entries.get(instant, _MISSING)
            if hit is not _MISSING:
                return hit
            return base_sample(instant)

        return sample_over

    def _instants_in(self, start: int, stop: int) -> List[int]:
        """The overlay instants falling in ``[start, stop)`` (sorted)."""
        index = self._sorted_instants
        if index is None:
            index = self._sorted_instants = sorted(self.entries)
        return index[bisect_left(index, start):bisect_right(index, stop - 1)]

    def block_columns(self, start: int, stop: int, typed: Optional[type] = None):
        """The base's columns with the overlay entries patched in."""
        size = max(0, stop - start)
        if self.base is None:
            mask = np.zeros(size, dtype=bool)
            values = np.empty(size, dtype=object)
            values.fill(ABSENT)
            typed_values = (
                np.zeros(size, dtype=float if typed is float else bool)
                if typed in (float, bool)
                else None
            )
        else:
            base_columns = self.base.block_columns(start, stop, typed)
            if base_columns is None:
                return None
            mask, values, typed_values = base_columns
        for instant in self._instants_in(start, stop):
            offset = instant - start
            entry = self.entries[instant]
            if is_absent(entry):
                mask[offset] = False
                values[offset] = ABSENT
                continue
            mask[offset] = True
            values[offset] = entry
            if typed_values is not None:
                if typed is float and type(entry) is float and entry == entry:
                    typed_values[offset] = entry
                elif typed is bool and (entry is True or entry is False):
                    typed_values[offset] = entry
                else:
                    typed_values = None
        return mask, values, typed_values

    def finite_support(self) -> Optional[int]:
        """Bounded when the base is bounded (or missing)."""
        own = max(self.entries) + 1 if self.entries else 0
        if self.base is None:
            return own
        base_support = self.base.finite_support()
        return None if base_support is None else max(own, base_support)


class ExplicitRule(InputRule):
    """Backward-compatible eager rule: one stored value per instant.

    This is what assigning a plain list into ``scenario.inputs`` (or
    calling :meth:`Scenario.set_flow`) builds; instants beyond the stored
    list are absent.  It has no arithmetic fast path — the vectorized
    backend falls back to slicing, exactly as it did before the symbolic
    representation existed.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Any]) -> None:
        self.values: List[Any] = list(values)

    def __repr__(self) -> str:
        """Debug form showing the stored length."""
        return f"ExplicitRule({len(self.values)} values)"

    def __len__(self) -> int:
        """Number of stored instants (legacy list-compatibility)."""
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        """Indexed access into the stored window (legacy list-compatibility)."""
        return self.values[index]

    def __iter__(self) -> Iterator[Any]:
        """Iterate the stored window (legacy list-compatibility)."""
        return iter(self.values)

    def value(self, instant: int) -> Any:
        """The stored value, absent outside the stored window."""
        if 0 <= instant < len(self.values):
            return self.values[instant]
        return ABSENT

    def sampler(self) -> Sampler:
        """Closure over the stored list with a bounds check."""
        values = self.values
        limit = len(values)

        def sample(instant: int) -> Any:
            if 0 <= instant < limit:
                return values[instant]
            return ABSENT

        return sample

    def column(self, start: int, stop: int) -> List[Any]:
        """Slice of the stored window, absent-padded past its end."""
        values = self.values
        limit = len(values)
        if stop <= limit and start >= 0:
            return values[start:stop]
        return [
            values[instant] if 0 <= instant < limit else ABSENT
            for instant in range(start, stop)
        ]

    def finite_support(self) -> Optional[int]:
        """The stored length."""
        return len(self.values)


class GeneratorRule(InputRule):
    """Escape hatch: an arbitrary ``instant -> value`` function.

    The function must be pure per instant (engines may evaluate instants
    in blocks, replay them on fallback, or re-evaluate them in worker
    processes) and return ``ABSENT`` where the signal does not occur.  For
    ``workers=N`` batches it must be picklable — a top-level function, not
    a lambda.  There is no arithmetic fast path: the vectorized backend
    samples it instant by instant.
    """

    __slots__ = ("function",)

    def __init__(self, function: Callable[[int], Any]) -> None:
        self.function = function

    def __repr__(self) -> str:
        """Debug form naming the wrapped function."""
        name = getattr(self.function, "__name__", repr(self.function))
        return f"GeneratorRule({name})"

    def value(self, instant: int) -> Any:
        """Whatever the wrapped function answers."""
        return self.function(instant)

    def sampler(self) -> Sampler:
        """The wrapped function itself."""
        return self.function


def as_rule(flow: Any) -> InputRule:
    """Coerce a ``scenario.inputs`` assignment into an :class:`InputRule`.

    Rules pass through; plain sequences (the legacy eager representation)
    wrap into an :class:`ExplicitRule`; callables wrap into a
    :class:`GeneratorRule`.
    """
    if isinstance(flow, InputRule):
        return flow
    if isinstance(flow, (list, tuple)):
        return ExplicitRule(flow)
    if callable(flow):
        return GeneratorRule(flow)
    raise TypeError(
        f"cannot interpret {type(flow).__name__!r} as an input rule; "
        "pass an InputRule, a list/tuple of per-instant values, or a callable"
    )


class InputProgram(dict):
    """``signal name -> InputRule`` mapping with legacy-list coercion.

    Assigning a plain list (the pre-symbolic idiom
    ``scenario.inputs["u"] = [...]``) transparently wraps it into an
    :class:`ExplicitRule`, so existing call sites keep working unchanged.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """Build the mapping, coercing any initial entries through :func:`as_rule`."""
        super().__init__()
        if args or kwargs:
            self.update(*args, **kwargs)

    def __setitem__(self, name: str, flow: Any) -> None:
        """Store *flow* coerced through :func:`as_rule`."""
        super().__setitem__(name, as_rule(flow))

    def copy(self) -> "InputProgram":
        """A shallow :class:`InputProgram` copy (not a plain ``dict``)."""
        clone = InputProgram()
        for name, rule in self.items():
            dict.__setitem__(clone, name, rule)
        return clone

    def setdefault(self, name: str, flow: Any = None) -> InputRule:
        """Coercing counterpart of ``dict.setdefault``."""
        if name not in self:
            self[name] = flow
        return self[name]

    def update(self, *args: Any, **kwargs: Any) -> None:
        """Coercing counterpart of ``dict.update``."""
        merged: Dict[str, Any] = dict(*args, **kwargs)
        for name, flow in merged.items():
            self[name] = flow


class Scenario:
    """Input scenario: a symbolic program of rules per driven signal.

    ``length`` is the *default* simulation horizon: ``run(scenario)``
    simulates that many instants.  It may be ``None`` (an **unbounded**
    scenario), in which case the horizon must be supplied at simulate time
    (``length=`` on ``simulate``/``run``) — rules are unbounded flows, so
    one symbolic scenario can be reused across any number of horizons.

    The builder methods *record rules* instead of expanding lists:
    :meth:`set_periodic`, :meth:`set_always` and :meth:`set_at` cost O(1) /
    O(entries) memory whatever the horizon; :meth:`set_flow` keeps the
    explicit eager representation for callers that genuinely have one value
    per instant.
    """

    def __init__(self, length: Optional[int] = None) -> None:
        if length is not None and length < 0:
            raise ValueError("scenario length must be non-negative")
        self.length = length
        self.inputs: InputProgram = InputProgram()

    def __repr__(self) -> str:
        """Debug form showing horizon and driven signals."""
        horizon = "unbounded" if self.length is None else f"{self.length} instants"
        return f"Scenario({horizon}, {len(self.inputs)} driven signal(s))"

    # ------------------------------------------------------------------
    # builders (each records a rule and returns self for chaining)
    # ------------------------------------------------------------------
    def set_flow(self, name: str, values: Sequence[Any]) -> "Scenario":
        """Provide an explicit per-instant flow (padded with ``ABSENT``).

        Raises :class:`ValueError` when *values* is longer than a bounded
        scenario — the old behaviour silently truncated, hiding the
        mismatch from the caller.
        """
        values = list(values)
        if self.length is not None and len(values) > self.length:
            raise ValueError(
                f"flow for {name!r} has {len(values)} values but the scenario "
                f"is {self.length} instants long; pass a longer scenario (or "
                f"length=None for an unbounded one) instead of relying on "
                f"silent truncation"
            )
        self.inputs[name] = ExplicitRule(values)
        return self

    def set_periodic(self, name: str, period: int, phase: int = 0, value: Any = True) -> "Scenario":
        """Make *name* present every *period* instants starting at *phase*."""
        self.inputs[name] = PeriodicRule(period, phase, value)
        return self

    def set_at(self, name: str, instants: Mapping[int, Any]) -> "Scenario":
        """Overlay pointwise values at selected instants.

        Composes with whatever rule already drives *name* (the pointwise
        entries win).  Raises :class:`ValueError` when an instant falls
        outside a bounded scenario — the old behaviour silently dropped it.
        """
        if self.length is not None:
            bad = sorted(
                instant for instant in instants if not 0 <= instant < self.length
            )
            if bad:
                raise ValueError(
                    f"instants {bad} for {name!r} fall outside the scenario "
                    f"horizon [0, {self.length}); they were previously dropped "
                    f"silently — extend the scenario (or build it with "
                    f"length=None) instead"
                )
        self.inputs[name] = SparseRule(instants, base=self.inputs.get(name))
        return self

    def set_always(self, name: str, value: Any = True) -> "Scenario":
        """Make *name* present with *value* at every instant."""
        self.inputs[name] = ConstantRule(value)
        return self

    def set_rule(self, name: str, rule: InputRule) -> "Scenario":
        """Drive *name* with an explicit :class:`InputRule` (or coercible)."""
        self.inputs[name] = rule
        return self

    def set_generator(self, name: str, function: Callable[[int], Any]) -> "Scenario":
        """Drive *name* with an ``instant -> value`` function (escape hatch)."""
        self.inputs[name] = GeneratorRule(function)
        return self

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def value(self, name: str, instant: int) -> Any:
        """The value of *name* at *instant* (``ABSENT`` when undriven/absent)."""
        rule = self.inputs.get(name)
        if rule is None or instant < 0:
            return ABSENT
        return rule.value(instant)

    def column(self, name: str, start: int, stop: int) -> List[Any]:
        """Materialise one signal over the window ``[start, stop)``."""
        rule = self.inputs.get(name)
        if rule is None:
            return [ABSENT] * max(0, stop - start)
        return rule.column(start, stop)

    def materialize(self, name: str, length: Optional[int] = None) -> List[Any]:
        """Materialise one signal over the full horizon as a plain list."""
        return self.column(name, 0, self.run_length(length))

    def materialized(self, length: Optional[int] = None) -> "Scenario":
        """An eager :class:`ExplicitRule`-only copy of this scenario.

        Every driven signal is expanded over the horizon — O(signals ×
        instants) memory, exactly the representation the symbolic program
        replaces.  Used by the parity tests and the E15 benchmark as the
        "force-materialised" baseline.
        """
        horizon = self.run_length(length)
        eager = Scenario(horizon)
        for name in self.inputs:
            eager.inputs[name] = ExplicitRule(self.column(name, 0, horizon))
        return eager

    def run_length(self, length: Optional[int] = None) -> int:
        """Resolve the effective simulation horizon.

        *length* (the simulate-time override) wins when given; otherwise
        the scenario's own default horizon applies.  An unbounded scenario
        with no override is an error — some consumer has to choose when to
        stop.
        """
        if length is None:
            length = self.length
        if length is None:
            raise ValueError(
                "this scenario is unbounded (length=None); pass length= at "
                "simulate time to choose the run horizon"
            )
        if length < 0:
            raise ValueError("simulation length must be non-negative")
        return length


__all__ = [
    "ConstantRule",
    "ExplicitRule",
    "GeneratorRule",
    "InputProgram",
    "InputRule",
    "PeriodicRule",
    "Sampler",
    "Scenario",
    "SparseRule",
    "as_rule",
]


def _typed_fill(size: int, fill: Any, typed: Optional[type]):
    """A native column of one fill value, when exactly representable.

    NaN floats stay on the object path: the typed round-trip would
    re-materialise the caller's NaN object through ``.tolist()``, and NaN
    compares equal only by identity, breaking flow ``==`` against the
    per-instant backends' passed-through object.
    """
    if typed is float and type(fill) is float and fill == fill:
        return np.full(size, fill)
    if typed is bool and (fill is True or fill is False):
        return np.full(size, fill, dtype=bool)
    return None
