"""Conditional dependency graph of a polychronous process.

Polychrony compiles SIGNAL programs through a *graph of conditional
dependencies* (GCD): a directed graph whose nodes are signals and whose edges
record that the value of one signal is needed, at the same instant, to compute
another one.  Delays (``$``) do **not** create instantaneous dependencies —
they are precisely the operator that breaks causality cycles.

The static deadlock detection of the paper (Section I, item 1 of the analysis
list) is a cycle search on this graph; the profiling analysis reuses the graph
to count operations per signal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from .process import Equation, ProcessModel


@dataclass(frozen=True)
class DependencyEdge:
    """An instantaneous dependency: *target* needs *source* at the same instant."""

    source: str
    target: str
    kind: str  # "value" (data dependency) or "clock" (presence dependency)
    label: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.source} --[{self.kind}]--> {self.target}"


@dataclass
class DependencyGraph:
    """Instantaneous (conditional) dependency graph of a flat process."""

    process_name: str
    nodes: Set[str] = field(default_factory=set)
    edges: List[DependencyEdge] = field(default_factory=list)

    def successors(self, node: str) -> List[str]:
        return [e.target for e in self.edges if e.source == node]

    def predecessors(self, node: str) -> List[str]:
        return [e.source for e in self.edges if e.target == node]

    def adjacency(self) -> Dict[str, Set[str]]:
        adj: Dict[str, Set[str]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            adj.setdefault(edge.source, set()).add(edge.target)
            adj.setdefault(edge.target, set())
        return adj

    def cycles(self) -> List[List[str]]:
        """All elementary strongly-connected components with more than one node
        (or a self loop), each returned as a list of node names."""
        self_loops = {e.source for e in self.edges if e.source == e.target}
        return [
            scc
            for scc in self.strongly_connected_components()
            if len(scc) > 1 or scc[0] in self_loops
        ]

    def strongly_connected_components(self) -> List[List[str]]:
        """Tarjan's algorithm (iterative) over the adjacency structure."""
        adj = {node: sorted(targets) for node, targets in self.adjacency().items()}
        index_counter = [0]
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        result: List[List[str]] = []

        for root in sorted(adj):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            call_stack: List[str] = []
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index[node] = index_counter[0]
                    lowlink[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                    call_stack.append(node)
                recurse = False
                successors = adj[node]
                for i in range(child_index, len(successors)):
                    succ = successors[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(sorted(component))
                call_stack.pop()
                if call_stack:
                    parent = call_stack[-1]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result

    def topological_order(self) -> Optional[List[str]]:
        """A topological order of the nodes, or ``None`` when a cycle exists."""
        adj = self.adjacency()
        in_degree: Dict[str, int] = {node: 0 for node in adj}
        for targets in adj.values():
            for target in targets:
                in_degree[target] += 1
        # Kahn's algorithm, always taking the smallest ready node.
        ready = [node for node, degree in in_degree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for target in adj[node]:
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    heapq.heappush(ready, target)
        if len(order) != len(adj):
            return None
        return order


def _instantaneous_reads(expr: Expression) -> List[Tuple[str, str]]:
    """Signals read *at the current instant* by an expression.

    Returns ``(name, kind)`` pairs; reads below a delay are excluded, reads
    used only for their presence (clock operators, sampling conditions) are
    tagged ``clock``.
    """
    out: List[Tuple[str, str]] = []

    def visit(node: Expression, kind: str) -> None:
        if isinstance(node, (SignalRef, Var)):
            out.append((node.name, kind))
        elif isinstance(node, Const):
            return
        elif isinstance(node, FunctionApp):
            for arg in node.args:
                visit(arg, kind)
        elif isinstance(node, Delay):
            # The delayed value is the previous one: no instantaneous
            # dependency on the operand value, only on its presence.
            for name in node.operand.signals():
                out.append((name, "clock"))
        elif isinstance(node, When):
            visit(node.operand, kind)
            visit(node.condition, "value")
        elif isinstance(node, WhenClock):
            visit(node.condition, "value")
        elif isinstance(node, Default):
            visit(node.left, kind)
            visit(node.right, kind)
        elif isinstance(node, Cell):
            visit(node.operand, kind)
            visit(node.condition, "value")
        elif isinstance(node, ClockOf):
            for name in node.operand.signals():
                out.append((name, "clock"))
        elif isinstance(node, (ClockUnion, ClockIntersection, ClockDifference)):
            for name in node.left.signals():
                out.append((name, "clock"))
            for name in node.right.signals():
                out.append((name, "clock"))
        else:
            raise TypeError(f"unsupported expression node {type(node).__name__}")

    visit(expr, "value")
    return out


def build_dependency_graph(process: ProcessModel, include_clock_edges: bool = False) -> DependencyGraph:
    """Build the instantaneous dependency graph of a (possibly hierarchical) process.

    ``include_clock_edges`` controls whether presence-only dependencies (clock
    reads) are added as edges; value dependencies are always included.  Clock
    reads cannot create computation deadlocks on their own in the reference
    simulator, so the default matches the deadlock analysis of the paper.
    """
    if process.instances or process.submodels:
        process = process.flatten()
    graph = DependencyGraph(process_name=process.name)
    graph.nodes.update(process.signals.keys())
    for eq in process.equations:
        graph.nodes.add(eq.target)
        for name, kind in _instantaneous_reads(eq.expr):
            if kind == "clock" and not include_clock_edges:
                continue
            graph.nodes.add(name)
            graph.edges.append(DependencyEdge(source=name, target=eq.target, kind=kind, label=eq.label))
    return graph
