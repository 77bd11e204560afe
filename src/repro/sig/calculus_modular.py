"""Modular clock calculus: per-subprocess extraction, memoisation, composition.

The flat clock calculus (:mod:`repro.sig.clock_calculus`) first flattens the
translated process hierarchy into one process with thousands of signals and
then extracts and resolves a single constraint system.  On the large
generated models of the scalability experiment (E10) that flat resolution
dominates the whole tool chain.

The translator, however, already knows the per-process structure: the system
model is a tree of instantiated subprocesses (one per AADL system, processor,
process, thread, port, shared data component), and most of those subprocesses
are *instances of the same shape* — every thread instantiates the same event
port and property observer models, a 10x10 generated model contains one
hundred structurally identical ``in_event_port_pIn`` processes.  This module
exploits that structure:

1. **per-subprocess extraction** — each subprocess's clock-constraint system
   (synchronisation pairs, defined clocks, explicit constraints) is extracted
   locally, over the subprocess's own signal names;
2. **memoisation** — extractions are cached under a structural fingerprint of
   the subprocess body (plus its parameter bindings), so repeated thread and
   port shapes are solved once and instantiated many times by renaming;
3. **composition** — the per-process systems are composed at the interface
   signals through the binding renames (the same hierarchical renaming
   :meth:`~repro.sig.process.ProcessModel.flatten` performs), and the
   composite system is resolved with the dependency-directed strategy of
   :func:`~repro.sig.clock_calculus.solve_constraint_system`;
4. **fallback** — when composition cannot discharge the system cheaply,
   the affected part takes an exact path, so results stay identical.  A
   cyclic clock cluster makes the directed expansion order-dependent: the
   system is then resolved by an exact worklist replay of the flat solver's
   pairwise fixpoint (same substitutions, same order, only the candidate
   pairs visited).  The flat solver keeps the verbatim pairwise loop as the
   oracle and the E10 baseline.  A non-injective binding that merges two
   subprocess signals re-extracts that instance from its renamed equations.

The outcome is *identical* — same synchronisation classes, clock hierarchy,
endochrony verdicts, reports — to running the flat solver on the flattened
model (enforced by the catalog parity tests), at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .clock_calculus import (
    ClockCalculus,
    ClockCalculusResult,
    _ExtractedConstraints,
    solve_constraint_system,
)
from .clocks import Clock, ClockAtom, _normalise_products
from .expressions import Cell, Delay, Expression, SignalRef, Var
from .process import (
    ClockConstraint,
    ConstraintKind,
    Direction,
    ProcessModel,
    SignalDecl,
    rename_expression,
    substitute_parameters,
)


# ----------------------------------------------------------------------
# local (per-subprocess) extraction
# ----------------------------------------------------------------------
@dataclass
class _LocalEquation:
    """Extraction of one equation, over the subprocess's local names."""

    target: str
    clock: Optional[Clock]
    sync_pairs: Tuple[Tuple[str, str], ...]


#: A constraint classified at extraction time.  ``"unres"`` entries keep the
#: (parameter-substituted) constraint object so the unresolved report line can
#: be rendered with the instance's renamed operands, exactly as the flat
#: solver prints it.
_LocalConstraint = Tuple[str, Union[Tuple[str, ...], ClockConstraint]]


@dataclass
class _LocalExtraction:
    """Memoised clock-constraint system of one subprocess shape."""

    equations: List[_LocalEquation]
    constraints: List[_LocalConstraint]
    #: Every local name the extraction mentions (used to check that an
    #: instance's renaming is injective before reusing the memoised system).
    occurring: FrozenSet[str]


def _collect_init_strings(expr: Expression, out: Set[str]) -> None:
    """String-valued delay/cell initialisers are parameter references too."""
    if isinstance(expr, (Delay, Cell)):
        if isinstance(expr.init, str):
            out.add(expr.init)
    for attr in ("operand", "condition", "left", "right"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expression):
            _collect_init_strings(child, out)
    for child in getattr(expr, "args", ()):  # FunctionApp
        _collect_init_strings(child, out)


def _extract_local(model: ProcessModel, substitution: Mapping[str, Any]) -> _LocalExtraction:
    """Extract *model*'s own clock-constraint system over its local names.

    Mirrors :meth:`ClockCalculus._extract` equation by equation (same clock
    computation, same synchrony rules, same constraint classification), but
    without flattening: the result is stated over the subprocess's own signal
    names and is renamed per instance by the composer.
    """
    calculus = ClockCalculus(model)  # only the expression-clock rules are used
    equations: List[_LocalEquation] = []
    constraints: List[_LocalConstraint] = []
    occurring: Set[str] = set()

    for eq in model.equations:
        expr = substitute_parameters(eq.expr, substitution) if substitution else eq.expr
        clock = calculus.expression_clock(expr)
        sync: List[Tuple[str, str]] = []
        calculus._collect_function_synchrony(expr, sync)
        entry_clock: Optional[Clock] = None
        if clock is not None:
            entry_clock = clock
            if not eq.partial and len(clock.products) == 1:
                product = clock.products[0]
                if len(product) == 1:
                    atom = next(iter(product))
                    if atom.kind == "sig":
                        sync.append((eq.target, atom.name))
        equations.append(_LocalEquation(eq.target, entry_clock, tuple(sync)))
        occurring.add(eq.target)
        for a, b in sync:
            occurring.add(a)
            occurring.add(b)
        if entry_clock is not None:
            occurring.update(entry_clock.base_signals())

    for constraint in model.constraints:
        if substitution:
            constraint = ClockConstraint(
                constraint.kind,
                tuple(substitute_parameters(op, substitution) for op in constraint.operands),
                label=constraint.label,
            )
        names = [op.name for op in constraint.operands if isinstance(op, (SignalRef, Var))]
        if len(names) != len(constraint.operands):
            constraints.append(("unres", constraint))
            for op in constraint.operands:
                occurring.update(op.signals())
            continue
        occurring.update(names)
        if constraint.kind is ConstraintKind.SYNCHRONOUS:
            constraints.append(("sync", tuple(names)))
        elif constraint.kind is ConstraintKind.EXCLUSIVE:
            constraints.append(("excl", tuple(names)))
        elif constraint.kind is ConstraintKind.SUBCLOCK:
            if len(names) == 2:
                constraints.append(("sub", tuple(names)))
            else:
                constraints.append(("unres", constraint))

    return _LocalExtraction(equations, constraints, frozenset(occurring))


def _rename_clock(clock: Clock, rename: Mapping[str, str]) -> Clock:
    """Rename every atom of *clock* and re-normalise in the global namespace."""
    products = []
    for product in clock.products:
        products.append(
            frozenset(ClockAtom(atom.kind, rename.get(atom.name, atom.name)) for atom in product)
        )
    return Clock(products=_normalise_products(products))


# ----------------------------------------------------------------------
# memoisation
# ----------------------------------------------------------------------
class ExtractionCache:
    """Structural cache of per-subprocess extractions.

    Keyed by a fingerprint of the subprocess body (equations and constraints)
    plus the parameter values that can affect it, so two structurally
    identical subprocess models — the typical translated thread/port shapes —
    share one extraction however many times they are instantiated, and across
    analysis runs when the cache object is reused.
    """

    def __init__(self) -> None:
        self._extractions: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _LocalExtraction] = {}
        # id(model) -> (model, shape).  The strong reference to the model is
        # what keeps the id from being recycled for a different object while
        # the entry exists — without it a cache shared across runs could
        # return the fingerprint of a dead, structurally different model.
        self._shapes: Dict[int, Tuple[ProcessModel, Tuple[str, FrozenSet[str]]]] = {}
        self.hits = 0
        self.misses = 0

    def _shape(self, model: ProcessModel) -> Tuple[str, FrozenSet[str]]:
        """Fingerprint + parameter-relevant names of *model*, cached by id."""
        cached = self._shapes.get(id(model))
        if cached is not None:
            return cached[1]
        parts: List[str] = []
        relevant: Set[str] = set()
        for eq in model.equations:
            parts.append(f"{eq.target}|{int(eq.partial)}|{eq.expr!r}")
            relevant.update(eq.expr.signals())
            _collect_init_strings(eq.expr, relevant)
        for constraint in model.constraints:
            parts.append(f"{constraint.kind.value}|{constraint.operands!r}")
            for op in constraint.operands:
                relevant.update(op.signals())
                _collect_init_strings(op, relevant)
        shape = ("\n".join(parts), frozenset(relevant))
        self._shapes[id(model)] = (model, shape)
        return shape

    def get(self, model: ProcessModel, substitution: Mapping[str, Any]) -> _LocalExtraction:
        fingerprint, relevant = self._shape(model)
        params_key = tuple(
            sorted((name, repr(value)) for name, value in substitution.items() if name in relevant)
        )
        key = (fingerprint, params_key)
        extraction = self._extractions.get(key)
        if extraction is not None:
            self.hits += 1
            return extraction
        self.misses += 1
        extraction = _extract_local(model, substitution)
        self._extractions[key] = extraction
        return extraction


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------
@dataclass
class ModularStats:
    """Shape of one modular clock-calculus run (for reports and tests)."""

    subprocesses: int = 0
    extraction_hits: int = 0
    extraction_misses: int = 0
    renamed_instances: int = 0
    direct_instances: int = 0  # non-injective renames re-extracted in place
    resolution: str = ""

    def summary(self) -> str:
        return (
            f"modular clock calculus: {self.subprocesses} subprocess(es), "
            f"{self.extraction_misses} extraction(s) computed, "
            f"{self.extraction_hits} memo hit(s), "
            f"{self.direct_instances} non-injective instance(s), "
            f"resolution {self.resolution or '?'}"
        )


class ModularClockCalculus:
    """Run the clock calculus over an *unflattened* process tree.

    The tree is walked exactly like :meth:`ProcessModel.flatten` (same
    hierarchical renames, same parameter substitution, same order), but
    instead of materialising a flat equation list each subprocess contributes
    its memoised local extraction, renamed into the global namespace.  The
    composed system is then solved by the shared
    :func:`~repro.sig.clock_calculus.solve_constraint_system` with the
    dependency-directed resolution (on cyclic clusters, the exact worklist
    replay of the iterative fixpoint).
    """

    def __init__(self, process: ProcessModel, cache: Optional[ExtractionCache] = None) -> None:
        self.process = process
        self.cache = cache if cache is not None else ExtractionCache()
        self.stats = ModularStats()
        # Composed system, in the flat solver's extraction order.
        self._signals: Dict[str, SignalDecl] = {}
        self._sync: List[Tuple[str, str]] = []
        self._defined: Dict[str, List[Clock]] = {}
        self._exclusive: List[Tuple[str, str]] = []
        self._subclocks: List[Tuple[str, str]] = []
        self._unresolved: List[str] = []

    # ------------------------------------------------------------------
    def run(self) -> ClockCalculusResult:
        hits0, misses0 = self.cache.hits, self.cache.misses
        self._walk(self.process, rename={}, prefix="", top=True, substitution={})
        self.stats.extraction_hits = self.cache.hits - hits0
        self.stats.extraction_misses = self.cache.misses - misses0
        extracted = _ExtractedConstraints(
            synchronous_pairs=self._sync,
            defined_clock=self._defined,
            exclusive_pairs=self._exclusive,
            subclock_pairs=self._subclocks,
            unresolved=self._unresolved,
        )
        result = solve_constraint_system(
            self.process.name, self._signals, extracted, resolution="directed"
        )
        self.stats.resolution = result.resolution
        return result

    # ------------------------------------------------------------------
    def _walk(
        self,
        model: ProcessModel,
        rename: Dict[str, str],
        prefix: str,
        top: bool,
        substitution: Dict[str, Any],
    ) -> None:
        self.stats.subprocesses += 1

        # Signal table: same first-wins registration and direction demotion
        # as ProcessModel.flatten().
        signals = self._signals
        for decl in model.signals.values():
            new_name = decl.name if top else rename[decl.name]
            if new_name not in signals:
                direction = decl.direction if top else (
                    Direction.SHARED if decl.direction is Direction.SHARED else Direction.LOCAL
                )
                signals[new_name] = SignalDecl(new_name, decl.type, direction, decl.comment)

        # This subprocess's own constraint system, renamed into place.
        if model.equations or model.constraints:
            extraction = self.cache.get(model, substitution)
            effective = {name: rename.get(name, name) for name in extraction.occurring}
            if len(set(effective.values())) == len(effective):
                self._compose_renamed(extraction, effective, rename)
                self.stats.renamed_instances += 1
            else:
                # A binding merged two local names: renaming the memoised
                # clocks is not a homomorphism any more, so extract this one
                # instance directly from the renamed equations — the flat
                # solver's exact code path.
                self._compose_direct(model, rename, substitution)
                self.stats.direct_instances += 1

        # Children, in instantiation order, with flatten()'s renaming rules.
        for instance in model.instances:
            child_prefix = f"{prefix}{instance.instance_name}_"
            child = instance.model
            child_rename: Dict[str, str] = {}
            for decl in child.signals.values():
                if decl.name in instance.bindings:
                    bound = instance.bindings[decl.name]
                    child_rename[decl.name] = rename.get(bound, bound if top else f"{prefix}{bound}")
                else:
                    child_rename[decl.name] = f"{child_prefix}{decl.name}"
            if top:
                child_substitution = dict(instance.parameters)
            else:
                child_substitution = dict(substitution)
                child_substitution.update(instance.parameters)
            # The child's own parameters underlie whatever the parent passed.
            merged = dict(child.parameters)
            merged.update(child_substitution)
            self._walk(child, child_rename, child_prefix, top=False, substitution=merged)

    # ------------------------------------------------------------------
    def _compose_renamed(
        self,
        extraction: _LocalExtraction,
        effective: Mapping[str, str],
        rename: Mapping[str, str],
    ) -> None:
        sync = self._sync
        defined = self._defined
        for entry in extraction.equations:
            target = effective.get(entry.target, entry.target)
            for a, b in entry.sync_pairs:
                sync.append((effective.get(a, a), effective.get(b, b)))
            if entry.clock is not None:
                defined.setdefault(target, []).append(_rename_clock(entry.clock, effective))
            # Full definitions also force an (empty) entry in the flat
            # extraction; setdefault above only runs when a clock exists,
            # which matches: clock-less equations never touch defined_clock.
        for kind, payload in extraction.constraints:
            if kind == "sync":
                names = [effective.get(n, n) for n in payload]
                for a, b in zip(names, names[1:]):
                    sync.append((a, b))
            elif kind == "excl":
                names = [effective.get(n, n) for n in payload]
                for i, a in enumerate(names):
                    for b in names[i + 1:]:
                        self._exclusive.append((a, b))
            elif kind == "sub":
                a, b = payload
                self._subclocks.append((effective.get(a, a), effective.get(b, b)))
            else:  # "unres"
                constraint = payload
                self._unresolved.append(
                    str(
                        ClockConstraint(
                            constraint.kind,
                            tuple(rename_expression(op, rename) for op in constraint.operands),
                            label=constraint.label,
                        )
                    )
                )

    def _compose_direct(
        self,
        model: ProcessModel,
        rename: Mapping[str, str],
        substitution: Mapping[str, Any],
    ) -> None:
        """Extract one instance straight from its renamed equations."""
        renamed = ProcessModel(model.name)
        for eq in model.equations:
            expr = substitute_parameters(eq.expr, substitution) if substitution else eq.expr
            renamed.equations.append(
                type(eq)(rename.get(eq.target, eq.target), rename_expression(expr, rename), eq.partial, eq.label)
            )
        for constraint in model.constraints:
            operands = tuple(
                rename_expression(
                    substitute_parameters(op, substitution) if substitution else op, rename
                )
                for op in constraint.operands
            )
            renamed.constraints.append(ClockConstraint(constraint.kind, operands, constraint.label))
        extraction = _extract_local(renamed, {})
        identity: Dict[str, str] = {}
        self._compose_renamed(extraction, identity, identity)


# ----------------------------------------------------------------------
def run_clock_calculus_modular(
    process: ProcessModel, cache: Optional[ExtractionCache] = None
) -> ClockCalculusResult:
    """Modular counterpart of :func:`~repro.sig.clock_calculus.run_clock_calculus`.

    Analyses the *unflattened* process tree (flat processes work too — they
    are a tree of one node) and produces a result identical to flattening and
    running the flat solver.  Pass a shared :class:`ExtractionCache` to reuse
    memoised subprocess extractions across runs.
    """
    return ModularClockCalculus(process, cache=cache).run()
