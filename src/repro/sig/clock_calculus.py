"""Clock calculus: constraint extraction, resolution and clock hierarchy.

The clock calculus is the central static analysis of the polychronous model.
Given a (flattened) process it:

1. extracts the clock constraints implied by every equation and by the
   explicit ``^=`` / ``^<`` / ``^#`` constraints;
2. partitions signals into **synchronisation classes** (signals provably
   present at exactly the same instants);
3. resolves, for every class, a symbolic clock expression in terms of *free*
   clocks (typically the clocks of input signals) and boolean sampling
   conditions;
4. builds the **clock hierarchy**: a forest whose roots are the free clocks
   and where a clock is placed below the clock it is a boolean down-sampling
   of.  A process whose hierarchy is a single tree rooted at one master clock
   is *endochronous*: it can be executed deterministically without additional
   synchronisation — this is the property Polychrony checks before generating
   sequential code, and the property our simulator relies on.

The implementation is intentionally syntactic (union-of-products clock
algebra, see :mod:`repro.sig.clocks`): it is sound — it never claims two
clocks equal when they are not — but incomplete, exactly like the role it
plays in the paper where remaining constraints are reported to the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .clocks import Clock, ClockAtom, false_clock, signal_clock, true_clock
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
)
from .process import ClockConstraint, ConstraintKind, Direction, Equation, ProcessModel, SignalDecl


class ClockCalculusError(Exception):
    """Raised when the clock system is inconsistent (e.g. a null output clock)."""


@dataclass
class SynchronisationClass:
    """A set of signals that provably share the same clock."""

    representative: str
    members: Set[str] = field(default_factory=set)
    clock: Optional[Clock] = None
    parent: Optional[str] = None  # representative of the parent class in the hierarchy
    condition: Optional[str] = None  # textual condition refining the parent clock

    def __contains__(self, name: str) -> bool:
        return name in self.members


@dataclass
class ClockHierarchyNode:
    """A node of the clock hierarchy (one per synchronisation class)."""

    representative: str
    members: Tuple[str, ...]
    parent: Optional[str]
    depth: int
    clock: Optional[Clock]


@dataclass
class ClockCalculusResult:
    """Outcome of the clock calculus on one process."""

    process_name: str
    classes: List[SynchronisationClass]
    clock_of: Dict[str, Clock]
    hierarchy: List[ClockHierarchyNode]
    roots: List[str]
    free_signals: List[str]
    null_clock_signals: List[str]
    unresolved_constraints: List[str]
    endochronous: bool
    #: How the clock system was resolved: ``"iterative"`` (the flat solver's
    #: pairwise fixpoint), ``"directed"`` (dependency-directed expansion) or
    #: ``"iterative-fallback"`` (a cyclic clock cluster forced the directed
    #: resolution back to the iterative fixpoint, replayed exactly by a
    #: worklist).  Purely informative: all strategies produce the same
    #: classes, hierarchy and verdicts.
    resolution: str = "iterative"

    def same_analysis(self, other: "ClockCalculusResult") -> bool:
        """Semantic equality, ignoring how the resolution was computed."""
        return (
            self.process_name == other.process_name
            and self.classes == other.classes
            and self.clock_of == other.clock_of
            and self.hierarchy == other.hierarchy
            and self.roots == other.roots
            and self.free_signals == other.free_signals
            and self.null_clock_signals == other.null_clock_signals
            and self.unresolved_constraints == other.unresolved_constraints
            and self.endochronous == other.endochronous
        )

    def class_of(self, signal: str) -> Optional[SynchronisationClass]:
        for cls in self.classes:
            if signal in cls.members:
                return cls
        return None

    def synchronous(self, a: str, b: str) -> bool:
        """True when *a* and *b* were proven to share the same clock."""
        cls = self.class_of(a)
        return cls is not None and b in cls.members

    def master_clock(self) -> Optional[str]:
        """The unique root of the hierarchy when the process is endochronous."""
        if len(self.roots) == 1:
            return self.roots[0]
        return None

    def clock_count(self) -> int:
        """Number of distinct synchronisation classes (the paper's 'clocks')."""
        return len(self.classes)

    def report(self) -> str:
        """A human-readable report of the clock hierarchy (Polychrony-style)."""
        lines = [f"Clock calculus report for process {self.process_name}"]
        lines.append(f"  synchronisation classes : {len(self.classes)}")
        lines.append(f"  hierarchy roots         : {', '.join(self.roots) or '(none)'}")
        lines.append(f"  endochronous            : {'yes' if self.endochronous else 'no'}")
        if self.null_clock_signals:
            lines.append(f"  null clocks             : {', '.join(self.null_clock_signals)}")
        if self.unresolved_constraints:
            lines.append("  unresolved constraints  :")
            for constraint in self.unresolved_constraints:
                lines.append(f"    - {constraint}")
        by_rep = {node.representative: node for node in self.hierarchy}

        def emit(rep: str, indent: int) -> None:
            node = by_rep[rep]
            members = ", ".join(sorted(node.members))
            lines.append("  " + "  " * indent + f"+ {rep} [{members}]")
            for child in sorted(n.representative for n in self.hierarchy if n.parent == rep):
                emit(child, indent + 1)

        for root in sorted(self.roots):
            if root in by_rep:
                emit(root, 1)
        return "\n".join(lines)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self.parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # Keep the lexicographically smallest name as representative for
        # reproducible reports.
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra

    def classes(self) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for item in list(self.parent):
            out.setdefault(self.find(item), set()).add(item)
        return out


@dataclass
class _ExtractedConstraints:
    synchronous_pairs: List[Tuple[str, str]]
    defined_clock: Dict[str, List[Clock]]
    exclusive_pairs: List[Tuple[str, str]]
    subclock_pairs: List[Tuple[str, str]]
    unresolved: List[str]


class ClockCalculus:
    """Run the clock calculus over a flat :class:`ProcessModel`."""

    def __init__(self, process: ProcessModel) -> None:
        self.process = process

    # ------------------------------------------------------------------
    # expression clocks
    # ------------------------------------------------------------------
    def expression_clock(self, expr: Expression) -> Optional[Clock]:
        """Symbolic clock of an expression.

        Returns ``None`` for context-clocked expressions (bare constants),
        whose clock is imposed by the equation they appear in.
        """
        if isinstance(expr, (SignalRef, Var)):
            return signal_clock(expr.name)
        if isinstance(expr, Const):
            return None
        if isinstance(expr, Delay):
            return self.expression_clock(expr.operand)
        if isinstance(expr, FunctionApp):
            clocks = [self.expression_clock(a) for a in expr.args]
            clocks = [c for c in clocks if c is not None]
            if not clocks:
                return None
            # operands are synchronous: any operand clock is the result clock
            return clocks[0]
        if isinstance(expr, When):
            cond = self._condition_clock(expr.condition, positive=True)
            operand = self.expression_clock(expr.operand)
            if operand is None:
                return cond
            return operand.intersection(cond)
        if isinstance(expr, WhenClock):
            return self._condition_clock(expr.condition, positive=True)
        if isinstance(expr, Default):
            left = self.expression_clock(expr.left)
            right = self.expression_clock(expr.right)
            if left is None:
                return right
            if right is None:
                return left
            return left.union(right)
        if isinstance(expr, Cell):
            operand = self.expression_clock(expr.operand)
            cond = self._condition_clock(expr.condition, positive=True)
            if operand is None:
                return cond
            return operand.union(cond)
        if isinstance(expr, ClockOf):
            return self.expression_clock(expr.operand)
        if isinstance(expr, ClockUnion):
            return self._binary_clock(expr.left, expr.right, "union")
        if isinstance(expr, ClockIntersection):
            return self._binary_clock(expr.left, expr.right, "intersection")
        if isinstance(expr, ClockDifference):
            return self._binary_clock(expr.left, expr.right, "difference")
        raise TypeError(f"cannot compute the clock of {type(expr).__name__}")

    def _binary_clock(self, left: Expression, right: Expression, op: str) -> Optional[Clock]:
        lc = self.expression_clock(left)
        rc = self.expression_clock(right)
        if lc is None or rc is None:
            return lc if rc is None else rc
        return getattr(lc, op)(rc)

    def _condition_clock(self, condition: Expression, positive: bool) -> Clock:
        """Clock of the instants at which a boolean expression is true/false."""
        if isinstance(condition, SignalRef):
            return true_clock(condition.name) if positive else false_clock(condition.name)
        if isinstance(condition, FunctionApp) and condition.op == "not" and len(condition.args) == 1:
            return self._condition_clock(condition.args[0], not positive)
        if isinstance(condition, Const):
            # `when true` over an unknown context: neutral (never restricts);
            # `when false` yields the null clock.
            if bool(condition.value) == positive:
                return Clock.from_product(())
            return Clock.null()
        # General boolean expression: approximate by the clock of the
        # expression itself (sound upper bound); record no polarity split.
        base = self.expression_clock(condition)
        return base if base is not None else Clock.from_product(())

    # ------------------------------------------------------------------
    # constraint extraction
    # ------------------------------------------------------------------
    def _extract(self) -> _ExtractedConstraints:
        sync: List[Tuple[str, str]] = []
        defined: Dict[str, List[Clock]] = {}
        exclusive: List[Tuple[str, str]] = []
        subclocks: List[Tuple[str, str]] = []
        unresolved: List[str] = []

        for eq in self.process.equations:
            clock = self.expression_clock(eq.expr)
            self._collect_function_synchrony(eq.expr, sync)
            if clock is None:
                continue
            if eq.partial:
                defined.setdefault(eq.target, []).append(clock)
            else:
                defined.setdefault(eq.target, [])
                defined[eq.target].append(clock)
                # A full definition forces clock equality; when the clock is a
                # single signal atom, that is a synchronisation.
                if len(clock.products) == 1:
                    product = clock.products[0]
                    if len(product) == 1:
                        atom = next(iter(product))
                        if atom.kind == "sig":
                            sync.append((eq.target, atom.name))

        for constraint in self.process.constraints:
            names = [op.name for op in constraint.operands if isinstance(op, (SignalRef, Var))]
            if len(names) != len(constraint.operands):
                unresolved.append(str(constraint))
                continue
            if constraint.kind is ConstraintKind.SYNCHRONOUS:
                for a, b in zip(names, names[1:]):
                    sync.append((a, b))
            elif constraint.kind is ConstraintKind.EXCLUSIVE:
                for i, a in enumerate(names):
                    for b in names[i + 1:]:
                        exclusive.append((a, b))
            elif constraint.kind is ConstraintKind.SUBCLOCK:
                if len(names) == 2:
                    subclocks.append((names[0], names[1]))
                else:
                    unresolved.append(str(constraint))
        return _ExtractedConstraints(sync, defined, exclusive, subclocks, unresolved)

    def _collect_function_synchrony(self, expr: Expression, sync: List[Tuple[str, str]]) -> None:
        """Record that the direct signal operands of a stepwise function are synchronous."""
        if isinstance(expr, FunctionApp):
            direct = [a.name for a in expr.args if isinstance(a, (SignalRef, Var))]
            for a, b in zip(direct, direct[1:]):
                sync.append((a, b))
            for arg in expr.args:
                self._collect_function_synchrony(arg, sync)
        elif isinstance(expr, (When, Cell)):
            self._collect_function_synchrony(expr.operand, sync)
            self._collect_function_synchrony(expr.condition, sync)
        elif isinstance(expr, Default):
            self._collect_function_synchrony(expr.left, sync)
            self._collect_function_synchrony(expr.right, sync)
        elif isinstance(expr, Delay):
            self._collect_function_synchrony(expr.operand, sync)
        elif isinstance(expr, (ClockUnion, ClockIntersection, ClockDifference)):
            self._collect_function_synchrony(expr.left, sync)
            self._collect_function_synchrony(expr.right, sync)
        elif isinstance(expr, (ClockOf, WhenClock)):
            inner = expr.operand if isinstance(expr, ClockOf) else expr.condition
            self._collect_function_synchrony(inner, sync)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def run(self, resolution: str = "iterative") -> ClockCalculusResult:
        """Extract the clock constraints and solve them.

        ``resolution`` selects the fixpoint strategy (see
        :func:`solve_constraint_system`); the default is the original
        pairwise-substitution loop.
        """
        return solve_constraint_system(
            self.process.name, self.process.signals, self._extract(), resolution=resolution
        )


def _resolve_iterative(defined_clocks: Dict[str, Clock], rep_count: int) -> Dict[str, Clock]:
    """The flat solver's fixpoint: pairwise substitution over all defined
    representatives until nothing changes (bounded by the class count).

    This is the reference trajectory: cyclic clock definitions are skipped
    pair-by-pair against the *current* state of the other definition, so the
    outcome on cyclic clusters depends on this exact visit order.
    """
    resolved: Dict[str, Clock] = dict(defined_clocks)
    for _ in range(rep_count + 1):
        changed = False
        for rep, clock in list(resolved.items()):
            new_clock = clock
            for other, other_clock in resolved.items():
                if other == rep:
                    continue
                if other in new_clock.base_signals():
                    # Avoid substituting definitions that mention `rep`
                    # (cycle); such clocks stay expressed over the cycle.
                    if rep in other_clock.base_signals():
                        continue
                    candidate = new_clock.substitute_signal(other, other_clock)
                    if candidate != new_clock:
                        new_clock = candidate
            if new_clock != resolved[rep]:
                resolved[rep] = new_clock
                changed = True
        if not changed:
            break
    return resolved


def _resolve_worklist(defined_clocks: Dict[str, Clock], rep_count: int) -> Dict[str, Clock]:
    """An exact replay of :func:`_resolve_iterative` that skips the pairs the
    reference skips without looking at them.

    The reference tests every other representative against the live
    ``base_signals()`` of the clock being resolved.  Here each representative
    visits, in the same insertion order, only the representatives that occur
    in its current clock past a cursor, and recomputes those candidates only
    when a substitution changed the clock.  ``substitute_signal`` is called
    for exactly the same ``(rep, other)`` pairs in the same order, rounds and
    rep order are unchanged, so the resolved dict (key order included) is
    identical.  ``base_signals`` is memoised per clock object for the length
    of the call.
    """
    resolved: Dict[str, Clock] = dict(defined_clocks)
    reps = list(resolved)
    position = {rep: i for i, rep in enumerate(reps)}
    memo: Dict[int, Tuple[Clock, FrozenSet[str]]] = {}

    def base_signals(clock: Clock) -> FrozenSet[str]:
        entry = memo.get(id(clock))
        if entry is None:
            # The entry holds the clock so its id cannot be reused.
            entry = memo[id(clock)] = (clock, clock.base_signals())
        return entry[1]

    def after(clock: Clock, cursor: int) -> List[int]:
        found = (position.get(name) for name in base_signals(clock))
        return sorted(p for p in found if p is not None and p > cursor)

    for _ in range(rep_count + 1):
        changed = False
        for i, rep in enumerate(reps):
            clock = new_clock = resolved[rep]
            pending = after(new_clock, -1)
            k = 0
            while k < len(pending):
                j = pending[k]
                k += 1
                if j == i:
                    continue
                other = reps[j]
                other_clock = resolved[other]
                if rep in base_signals(other_clock):
                    continue
                candidate = new_clock.substitute_signal(other, other_clock)
                if candidate != new_clock:
                    new_clock = candidate
                    pending, k = after(new_clock, j), 0
            if new_clock != clock:
                resolved[rep] = new_clock
                changed = True
        if not changed:
            break
    return resolved


def _strongly_connected_components(deps: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC (iterative), emitting components dependencies-first."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = 0

    for root in deps:
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(deps[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(deps[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def _resolve_directed(defined_clocks: Dict[str, Clock]) -> Optional[Dict[str, Clock]]:
    """Dependency-directed resolution: expand each defined representative in
    topological order of the clock-definition dependency graph.

    On an acyclic dependency graph the pairwise fixpoint of
    :func:`_resolve_iterative` is confluent — every visit order converges to
    the unique full expansion over free clocks — so expanding each definition
    once, dependencies first, produces the *same* resolved clocks in near
    linear time instead of a quadratic number of ``base_signals`` scans.

    Cyclic clock clusters (mutually recursive clock definitions) make the
    iterative trajectory order-dependent; there this function gives up and
    returns ``None`` so the caller can fall back to :func:`_resolve_worklist`,
    the exact replay of the reference loop, and stay bit-identical with the
    flat solver.
    """
    deps: Dict[str, Set[str]] = {}
    for rep, clock in defined_clocks.items():
        deps[rep] = {
            name for name in clock.base_signals() if name != rep and name in defined_clocks
        }
    components = _strongly_connected_components(deps)
    if any(len(component) > 1 for component in components):
        return None

    expanded: Dict[str, Clock] = {}
    for component in components:
        rep = component[0]
        clock = defined_clocks[rep]
        # Substitute fully expanded dependencies until a fixpoint; repeated
        # substitution matters only for self-referential definitions, which
        # the iterative loop also re-substitutes until stable.
        while True:
            changed = False
            for name in clock.base_signals():
                if name == rep:
                    continue
                replacement = expanded.get(name)
                if replacement is None:
                    continue
                candidate = clock.substitute_signal(name, replacement)
                if candidate != clock:
                    clock = candidate
                    changed = True
            if not changed:
                break
        expanded[rep] = clock
    return expanded


def _defined_clocks(
    signals: Mapping[str, SignalDecl], extracted: _ExtractedConstraints
) -> Tuple[_UnionFind, Dict[str, Clock]]:
    """Synchronisation classes by union-find, and the clock each defined
    class representative is given, stated over representatives only.

    The returned dict, in its insertion order, is the system the resolvers
    take as input.
    """
    uf = _UnionFind()
    for decl in signals:
        uf.add(decl)
    for a, b in extracted.synchronous_pairs:
        uf.union(a, b)

    # Map every signal atom to its class representative so that clock
    # expressions are stated over representatives only.
    def normalise_clock(clock: Clock) -> Clock:
        products = []
        for product in clock.products:
            atoms = []
            for atom in product:
                atoms.append(ClockAtom(atom.kind, uf.find(atom.name)))
            products.append(frozenset(atoms))
        return Clock(products=tuple(products)) if products else Clock.null()

    defined_clocks: Dict[str, Clock] = {}
    for target, clocks in extracted.defined_clock.items():
        rep = uf.find(target)
        combined: Optional[Clock] = None
        for clock in clocks:
            nclock = normalise_clock(clock)
            combined = nclock if combined is None else combined.union(nclock)
        if combined is None:
            continue
        if rep in defined_clocks:
            defined_clocks[rep] = defined_clocks[rep].union(combined)
        else:
            defined_clocks[rep] = combined
    return uf, defined_clocks


def solve_constraint_system(
    process_name: str,
    signals: Mapping[str, SignalDecl],
    extracted: _ExtractedConstraints,
    resolution: str = "iterative",
) -> ClockCalculusResult:
    """Solve an extracted clock-constraint system and build the result.

    This is the composition half of the clock calculus, shared by the flat
    solver (:class:`ClockCalculus`) and the modular solver
    (:mod:`repro.sig.calculus_modular`): synchronisation classes by
    union-find, clock resolution, hierarchy construction, verdicts.

    ``resolution`` is ``"iterative"`` (the original pairwise fixpoint, kept
    verbatim as the oracle) or ``"directed"`` (dependency-directed expansion;
    when a cyclic clock cluster makes the trajectory order-dependent it falls
    back to :func:`_resolve_worklist`, an exact replay of the pairwise loop).
    Both produce identical results; ``"directed"`` is asymptotically faster
    on large systems.
    """
    if resolution not in ("iterative", "directed"):
        raise ValueError(f"unknown resolution strategy {resolution!r}")

    uf, defined_clocks = _defined_clocks(signals, extracted)
    classes_map = uf.classes()

    # Substitute defined representatives inside the clock expressions until a
    # fixpoint, either by the original pairwise loop or by the
    # dependency-directed expansion, whose cyclic-cluster fallback replays the
    # pairwise loop exactly (identical results, see the resolvers).
    applied_resolution = resolution
    if resolution == "iterative":
        resolved = _resolve_iterative(defined_clocks, len(classes_map))
    else:
        resolved = _resolve_directed(defined_clocks)
        if resolved is None:
            applied_resolution = "iterative-fallback"
            resolved = _resolve_worklist(defined_clocks, len(classes_map))

    classes: List[SynchronisationClass] = []
    clock_of: Dict[str, Clock] = {}
    null_signals: List[str] = []
    free: List[str] = []

    for rep, members in sorted(classes_map.items()):
        clock = resolved.get(rep)
        cls = SynchronisationClass(representative=rep, members=set(members), clock=clock)
        classes.append(cls)
        final_clock = clock if clock is not None else signal_clock(rep)
        for member in members:
            clock_of[member] = final_clock
        if clock is None:
            free.append(rep)
        elif clock.is_null:
            null_signals.extend(sorted(members))

    # Hierarchy: the parent of a class is the class of the unique signal
    # atom appearing in its (single-product) resolved clock.
    parent_of: Dict[str, Optional[str]] = {}
    condition_of: Dict[str, Optional[str]] = {}
    for cls in classes:
        rep = cls.representative
        clock = cls.clock
        parent: Optional[str] = None
        condition: Optional[str] = None
        if clock is not None and not clock.is_null and len(clock.products) == 1:
            product = clock.products[0]
            sig_atoms = {a.name for a in product if a.kind == "sig"}
            cond_atoms = [a for a in product if a.kind != "sig"]
            candidates = {uf.find(n) for n in sig_atoms | {a.name for a in cond_atoms}}
            candidates.discard(rep)
            if len(candidates) == 1:
                parent = next(iter(candidates))
                condition = " and ".join(sorted(str(a) for a in cond_atoms)) or None
        parent_of[rep] = parent
        condition_of[rep] = condition
        cls.parent = parent
        cls.condition = condition

    # Depths (roots are classes without parent and with a non-null clock).
    def depth(rep: str, seen: Set[str]) -> int:
        parent = parent_of.get(rep)
        if parent is None or parent in seen or parent not in parent_of:
            return 0
        return 1 + depth(parent, seen | {rep})

    hierarchy = [
        ClockHierarchyNode(
            representative=cls.representative,
            members=tuple(sorted(cls.members)),
            parent=parent_of.get(cls.representative),
            depth=depth(cls.representative, set()),
            clock=cls.clock,
        )
        for cls in classes
    ]
    roots = sorted(
        node.representative
        for node in hierarchy
        if node.parent is None and (node.clock is None or not node.clock.is_null)
    )

    unresolved = list(extracted.unresolved)
    for a, b in extracted.exclusive_pairs:
        ca, cb = clock_of.get(a), clock_of.get(b)
        if ca is None or cb is None or not ca.disjoint_with(cb):
            unresolved.append(f"{a} ^# {b}")
    for small, large in extracted.subclock_pairs:
        cs, cl = clock_of.get(small), clock_of.get(large)
        if cs is None or cl is None or not cs.included_in(cl):
            unresolved.append(f"{small} ^< {large}")

    # Endochrony: one root, and every class is connected to it.
    endo = len(roots) == 1
    if endo:
        root = roots[0]
        for node in hierarchy:
            rep = node.representative
            seen: Set[str] = set()
            while rep is not None and rep not in seen:
                seen.add(rep)
                if rep == root:
                    break
                rep = parent_of.get(rep)
            else:
                if node.clock is not None and node.clock.is_null:
                    continue
                endo = False
                break
            if rep != root and not (node.clock is not None and node.clock.is_null):
                endo = False
                break

    outputs_null = [
        name
        for name in null_signals
        if signals.get(name) is not None
        and signals[name].direction is Direction.OUTPUT
    ]
    if outputs_null:
        unresolved.append(
            "null clock on output signal(s): " + ", ".join(sorted(outputs_null))
        )

    return ClockCalculusResult(
        process_name=process_name,
        classes=classes,
        clock_of=clock_of,
        hierarchy=hierarchy,
        roots=roots,
        free_signals=sorted(free),
        null_clock_signals=sorted(set(null_signals)),
        unresolved_constraints=unresolved,
        endochronous=endo,
        resolution=applied_resolution,
    )


def run_clock_calculus(process: ProcessModel, flatten: bool = True) -> ClockCalculusResult:
    """Convenience entry point: flatten *process* (optionally) and analyse it."""
    model = process.flatten() if flatten and (process.instances or process.submodels) else process
    return ClockCalculus(model).run()
