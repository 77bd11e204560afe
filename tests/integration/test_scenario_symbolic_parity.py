"""Symbolic-scenario parity over the full case-study catalog.

A symbolic scenario (periodic/constant/sparse rules evaluated lazily) must
be observationally identical to its eagerly materialised
:class:`~repro.sig.scenario.ExplicitRule` equivalent: same flows bit for
bit — including the Python types of every value — same warnings, on the
``reference``, ``compiled`` and ``vectorized`` backends, sequentially and
across ``workers=N`` sharded batches.  This is the E15 acceptance gate's
correctness half (the memory half lives in
``benchmarks/test_bench_e15_scenario_memory.py``).
"""

import pytest

from repro.casestudies import catalog_names, load_case_study, scenario_sweep
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.scheduling.static_scheduler import SchedulingError
from repro.sig.engine import VectorizedBackend, create_backend, simulate_batch
from repro.sig.scenario import ExplicitRule


@pytest.fixture(scope="module")
def translated():
    """Translate each catalog entry once, caching per module."""
    cache = {}

    def get(name):
        if name not in cache:
            entry = load_case_study(name)
            options = ToolchainOptions(
                root_implementation=entry.root_implementation,
                default_package=entry.default_package,
                simulate_hyperperiods=0,
                cost_model=None,
            )
            try:
                cache[name] = run_toolchain(entry.load_model(), options)
            except SchedulingError:
                options.translation = TranslationConfig(include_scheduler=False)
                cache[name] = run_toolchain(entry.load_model(), options)
        return cache[name]

    return get


def _scenario_length(result, fallback=24, cap=None):
    if result.schedules:
        length = next(iter(result.schedules.values())).simulation_length(1)
    else:
        length = fallback
    return min(length, cap) if cap else length


def _assert_traces_identical(reference, candidate, context):
    assert candidate.length == reference.length, context
    assert set(candidate.flows) == set(reference.flows), context
    for signal in reference.flows:
        assert candidate.flows[signal] == reference.flows[signal], (
            f"{context}: flow of {signal!r} diverges"
        )
        for expected, actual in zip(
            reference.flows[signal].values, candidate.flows[signal].values
        ):
            assert type(expected) is type(actual), (
                f"{context}: {signal!r} value {actual!r} has type "
                f"{type(actual).__name__}, expected {type(expected).__name__}"
            )
    assert candidate.warnings == reference.warnings, context


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("backend", ["reference", "compiled", "vectorized"])
def test_symbolic_scenarios_match_materialized(name, backend, translated, recwarn):
    """Single-run parity: symbolic rules versus their eager expansion."""
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=48), variants=2, seed=23
    )
    # Sparse exceptions on top of the periodic stimuli exercise the overlay
    # composition on every model of the catalog.
    for scenario in scenarios:
        stimuli = [n for n in scenario.inputs if not n.endswith("tick")]
        if stimuli:
            scenario.set_at(stimuli[0], {0: True, min(3, scenario.length - 1): True})

    if backend == "vectorized":
        runner = VectorizedBackend(system_model, strict=False, block_size=13)
    else:
        runner = create_backend(system_model, backend, strict=False)
    for index, scenario in enumerate(scenarios):
        eager = scenario.materialized()
        assert all(
            isinstance(rule, ExplicitRule) for rule in eager.inputs.values()
        )
        symbolic_trace = runner.run(scenario)
        eager_trace = runner.run(eager)
        _assert_traces_identical(
            eager_trace, symbolic_trace, f"{name}, {backend}, scenario {index}"
        )


@pytest.mark.parametrize("name", ["producer_consumer", "cruise_control"])
def test_symbolic_scenarios_match_materialized_in_worker_batches(name, translated):
    """Sharded-batch parity: the rules (not lists) cross process boundaries."""
    result = translated(name)
    system_model = result.translation.system_model
    length = _scenario_length(result, cap=32)
    symbolic = scenario_sweep(system_model, length=length, variants=3, seed=7)
    eager = [scenario.materialized() for scenario in symbolic]

    batch_symbolic = simulate_batch(
        system_model, symbolic, strict=False, collect_errors=True, workers=2
    )
    batch_eager = simulate_batch(
        system_model, eager, strict=False, collect_errors=True, workers=2
    )
    assert [i for i, _ in batch_symbolic.errors] == [i for i, _ in batch_eager.errors]
    for index, (sym_trace, eag_trace) in enumerate(
        zip(batch_symbolic.traces, batch_eager.traces)
    ):
        if eag_trace is None:
            assert sym_trace is None
            continue
        _assert_traces_identical(eag_trace, sym_trace, f"{name}, batch scenario {index}")


@pytest.mark.parametrize("name", ["producer_consumer"])
def test_unbounded_sweep_scenarios_match_bounded(name, translated):
    """One unbounded symbolic scenario run at a chosen length equals the
    bounded scenario built directly at that length."""
    result = translated(name)
    system_model = result.translation.system_model
    length = _scenario_length(result, cap=32)
    bounded = scenario_sweep(system_model, length=length, variants=2, seed=11)
    unbounded = scenario_sweep(system_model, length=None, variants=2, seed=11)

    reference = simulate_batch(system_model, bounded, strict=False)
    override = simulate_batch(system_model, unbounded, strict=False, length=length)
    for index, (expected, actual) in enumerate(
        zip(reference.traces, override.traces)
    ):
        _assert_traces_identical(expected, actual, f"{name}, sweep scenario {index}")
