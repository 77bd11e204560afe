"""Tests of the dependency graph and the static analyses (determinism, deadlock)."""

import random

import pytest

from repro.casestudies import catalog_names, load_case_study
from repro.core import TranslationConfig, translate_system
from repro.sig import builder as b
from repro.sig import library
from repro.sig.analysis import build_clock_report, check_determinism, detect_deadlocks
from repro.sig.process import ProcessModel
from repro.sig.scheduler_graph import DependencyEdge, DependencyGraph, build_dependency_graph
from repro.sig.values import BOOLEAN, EVENT, INTEGER


class TestDependencyGraph:
    def test_value_dependencies(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.func("+", b.ref("x"), 1))
        model.define("z", b.func("*", b.ref("y"), 2))
        graph = build_dependency_graph(model)
        assert "y" in graph.successors("x")
        assert "z" in graph.successors("y")
        assert graph.predecessors("z") == ["y"]

    def test_delay_breaks_dependency(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.delay(b.ref("x"), init=0))
        graph = build_dependency_graph(model)
        assert graph.successors("x") == []

    def test_clock_edges_optional(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("e", b.clock("x"))
        assert build_dependency_graph(model).edges == []
        with_clock = build_dependency_graph(model, include_clock_edges=True)
        assert with_clock.edges

    def test_cycle_detection(self):
        model = ProcessModel("p")
        model.define("a", b.func("+", b.ref("c"), 1))
        model.define("c", b.func("+", b.ref("a"), 1))
        graph = build_dependency_graph(model)
        cycles = graph.cycles()
        assert cycles and set(cycles[0]) == {"a", "c"}

    def test_self_loop_is_a_cycle(self):
        model = ProcessModel("p")
        model.define("a", b.func("+", b.ref("a"), 1))
        graph = build_dependency_graph(model)
        assert graph.cycles() == [["a"]]

    def test_topological_order(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.func("+", b.ref("x"), 1))
        model.define("z", b.func("+", b.ref("y"), 1))
        order = build_dependency_graph(model).topological_order()
        assert order is not None
        assert order.index("x") < order.index("y") < order.index("z")

    def test_topological_order_none_on_cycle(self):
        model = ProcessModel("p")
        model.define("a", b.ref("c"))
        model.define("c", b.ref("a"))
        assert build_dependency_graph(model).topological_order() is None

    def test_strongly_connected_components_cover_nodes(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.func("+", b.ref("x"), 1))
        graph = build_dependency_graph(model)
        nodes_in_sccs = {n for scc in graph.strongly_connected_components() for n in scc}
        assert nodes_in_sccs == graph.nodes


def _naive_cycles(graph):
    """Cyclic components by brute force: the nodes both reachable from and
    reaching a node form its component; it is a cycle when it has more than
    one node or a self-loop."""
    forward = {node: set() for node in graph.nodes}
    backward = {node: set() for node in graph.nodes}
    for edge in graph.edges:
        forward[edge.source].add(edge.target)
        backward[edge.target].add(edge.source)

    def reach(start, adjacency):
        seen, todo = {start}, [start]
        while todo:
            for succ in adjacency[todo.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
        return seen

    cycles, assigned = set(), set()
    for node in graph.nodes:
        if node in assigned:
            continue
        component = reach(node, forward) & reach(node, backward)
        assigned |= component
        if len(component) > 1 or node in forward[node]:
            cycles.add(frozenset(component))
    return cycles


def assert_cycles_match_naive(graph):
    cycles = graph.cycles()
    assert all(cycle == sorted(cycle) for cycle in cycles)
    assert len({frozenset(cycle) for cycle in cycles}) == len(cycles)
    assert {frozenset(cycle) for cycle in cycles} == _naive_cycles(graph)


class TestCyclesAgainstNaiveReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_with_self_loops(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(1, 30))]
        graph = DependencyGraph("random", nodes=set(nodes))
        for _ in range(rng.randint(0, 3 * len(nodes))):
            source = rng.choice(nodes)
            target = source if rng.random() < 0.15 else rng.choice(nodes)
            graph.edges.append(DependencyEdge(source, target, rng.choice(("value", "clock"))))
        assert_cycles_match_naive(graph)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_flat_dependency_graphs(self, name):
        entry = load_case_study(name)
        flat = translate_system(
            entry.instantiate(), TranslationConfig(include_scheduler=False)
        ).system_model.flatten()
        for include_clock_edges in (False, True):
            assert_cycles_match_naive(build_dependency_graph(flat, include_clock_edges))


def _naive_topological_order(graph):
    """Repeatedly take the smallest node none of whose remaining
    predecessors is left; ``None`` when no such node exists."""
    predecessors = {node: set() for node in graph.nodes}
    for edge in graph.edges:
        predecessors.setdefault(edge.source, set())
        predecessors.setdefault(edge.target, set()).add(edge.source)
    remaining = set(predecessors)
    order = []
    while remaining:
        ready = [node for node in remaining if not predecessors[node] & remaining]
        if not ready:
            return None
        order.append(min(ready))
        remaining.remove(order[-1])
    return order


class TestTopologicalOrderAgainstNaiveReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_dags_and_cyclic_graphs(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(1, 25))]
        rank = {node: position for position, node in enumerate(rng.sample(nodes, len(nodes)))}
        graph = DependencyGraph("random", nodes=set(nodes))
        for _ in range(rng.randint(0, 2 * len(nodes))):
            source, target = rng.choice(nodes), rng.choice(nodes)
            # Even seeds keep every edge along one hidden rank: a DAG.
            if seed % 2 == 0 and rank[source] >= rank[target]:
                continue
            graph.edges.append(DependencyEdge(source, target, "value"))
        order = graph.topological_order()
        assert order == _naive_topological_order(graph)
        assert (order is None) == bool(graph.cycles())

    @pytest.mark.parametrize("name", ["producer_consumer", "flight_management"])
    def test_catalog_flat_dependency_graphs(self, name):
        entry = load_case_study(name)
        flat = translate_system(
            entry.instantiate(), TranslationConfig(include_scheduler=False)
        ).system_model.flatten()
        graph = build_dependency_graph(flat)
        order = graph.topological_order()
        assert order is not None
        assert order == _naive_topological_order(graph)


class TestDeadlockDetection:
    def test_deadlock_free_pipeline(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.func("+", b.ref("x"), 1))
        report = detect_deadlocks(model)
        assert report.deadlock_free
        assert "deadlock-free" in report.summary()

    def test_instantaneous_cycle_reported(self):
        model = ProcessModel("p")
        model.define("a", b.func("+", b.ref("c"), 1))
        model.define("c", b.func("+", b.ref("a"), 1))
        report = detect_deadlocks(model)
        assert not report.deadlock_free
        assert "POTENTIAL DEADLOCK" in report.summary()

    def test_cycle_through_delay_is_fine(self):
        model = ProcessModel("p")
        model.input("tick", EVENT)
        model.define("zc", b.delay(b.ref("c"), init=0))
        model.define("c", b.when(b.func("+", b.ref("zc"), 1), b.clock("tick")))
        model.synchronise("c", "tick")
        assert detect_deadlocks(model).deadlock_free

    def test_library_processes_deadlock_free(self):
        for factory in (library.in_event_port, library.out_event_port, library.fifo_reset,
                        library.thread_property_observer, library.periodic_clock_divider):
            assert detect_deadlocks(factory()).deadlock_free


class TestDeterminism:
    def test_single_definitions_are_deterministic(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.func("+", b.ref("x"), 1))
        report = check_determinism(model)
        assert report.deterministic
        assert report.checked_signals == 1

    def test_two_full_definitions_flagged(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("y", b.ref("x"))
        model.define("y", b.func("+", b.ref("x"), 1))
        report = check_determinism(model)
        assert not report.deterministic
        assert report.issues[0].kind == "multiple-full-definitions"

    def test_overlapping_partial_definitions_flagged(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define_partial("v", b.ref("x"))
        model.define_partial("v", b.func("+", b.ref("x"), 1))
        report = check_determinism(model)
        assert not report.deterministic
        kinds = {issue.kind for issue in report.issues}
        assert "overlapping-partial-definitions" in kinds

    def test_disjoint_partial_definitions_accepted(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.input("c", BOOLEAN)
        model.define_partial("v", b.when(b.ref("x"), b.ref("c")))
        model.define_partial("v", b.when(b.func("+", b.ref("x"), 1), b.func("not", b.ref("c"))))
        report = check_determinism(model)
        assert report.deterministic

    def test_mixed_full_and_partial_flagged(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define("v", b.ref("x"))
        model.define_partial("v", b.ref("x"))
        report = check_determinism(model)
        kinds = {issue.kind for issue in report.issues}
        assert "mixed-full-and-partial-definitions" in kinds

    def test_issues_for_and_summary(self):
        model = ProcessModel("p")
        model.input("x", INTEGER)
        model.define_partial("v", b.ref("x"))
        model.define_partial("v", b.func("+", b.ref("x"), 1))
        report = check_determinism(model)
        assert report.issues_for("v")
        assert "NON-DETERMINISTIC" in report.summary()


class TestClockReport:
    def test_clock_report_fields(self):
        model = library.memory_process()
        report = build_clock_report(model)
        assert report.process_name == "fm"
        assert report.clock_count >= 2
        assert report.signal_count == 3
        assert isinstance(report.endochronous, bool)
        assert "Clock report" in report.summary()

    def test_clock_report_on_hierarchical_model(self, pc_translation):
        report = build_clock_report(pc_translation.system_model)
        assert report.signal_count > 300
        assert report.clock_count > 50
