"""Vectorized-backend parity over the full case-study catalog.

The ``vectorized`` backend must be a drop-in replacement for the compiled
execution plan (and therefore for the reference interpreter): same flows
bit-for-bit — including the Python *types* of every value — same warning
list, same errors, on the single-run path, the sharded batch path and the
streaming-sink path.  Odd block sizes exercise the block boundaries.  The
same holds with the recurrence scans switched off — the configuration the
E16 benchmark measures as its baseline — with one-instant blocks, and with
both at once.
"""

import pytest

from repro.casestudies import catalog_names, load_case_study, scenario_sweep
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.scheduling.static_scheduler import SchedulingError
from repro.sig.engine import (
    CompiledBackend,
    VectorizedBackend,
    compile_vectorized,
    default_scenario,
    simulate_batch,
)
from repro.sig.sinks import MaterializeSink, StatisticsSink


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
def test_vectorized_backend_produces_identical_traces(name, translated):
    """Single-run trace, value-type and warning parity, odd block size."""
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=48), variants=2, seed=17
    )

    compiled = CompiledBackend(system_model, strict=False)
    vectorized = VectorizedBackend(system_model, strict=False, block_size=13)
    for index, scenario in enumerate(scenarios):
        reference_trace = compiled.run(scenario)
        trace = vectorized.run(scenario)
        _assert_traces_identical(reference_trace, trace, f"{name}, scenario {index}")


@pytest.mark.parametrize("name", catalog_names())
def test_vectorized_backend_streams_identically(name, translated):
    """Streaming sinks observe the exact same instants as on ``compiled``."""
    result = translated(name)
    system_model = result.translation.system_model
    scenario = scenario_sweep(
        system_model, length=_scenario_length(result, cap=32), variants=1, seed=5
    )[0]

    sinks = {}
    for factory in (CompiledBackend, VectorizedBackend):
        materialize, stats = MaterializeSink(), StatisticsSink()
        runner = factory(system_model, strict=False)
        assert runner.run(scenario, sinks=[materialize, stats]) is None
        sinks[factory.name] = (materialize.trace, stats.result())

    compiled_trace, compiled_stats = sinks["compiled"]
    vector_trace, vector_stats = sinks["vectorized"]
    _assert_traces_identical(compiled_trace, vector_trace, name)
    assert {
        s: vector_stats.count_present(s) for s in vector_stats.signals()
    } == {s: compiled_stats.count_present(s) for s in compiled_stats.signals()}


@pytest.mark.parametrize("name", ["producer_consumer", "autobrake"])
def test_vectorized_batch_workers_identical(name, translated):
    """``simulate_batch(workers=2)`` on the vectorized backend matches the
    sequential compiled run bit for bit (plans pickled or fork-inherited)."""
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=24), variants=4, seed=9
    )

    compiled = simulate_batch(
        system_model, scenarios, strict=False, collect_errors=True, backend="compiled"
    )
    sharded = simulate_batch(
        system_model,
        scenarios,
        strict=False,
        collect_errors=True,
        workers=2,
        runner=VectorizedBackend(system_model, strict=False, block_size=7),
    )
    assert len(compiled.traces) == len(sharded.traces)
    assert [(i, type(e).__name__, str(e)) for i, e in compiled.errors] == [
        (i, type(e).__name__, str(e)) for i, e in sharded.errors
    ]
    for index, (reference_trace, trace) in enumerate(
        zip(compiled.traces, sharded.traces)
    ):
        if reference_trace is None:
            assert trace is None
            continue
        _assert_traces_identical(reference_trace, trace, f"{name}, scenario {index}")


def _stats_factory(index):
    """Picklable per-scenario sink factory for the streamed-batch test."""
    return StatisticsSink()


def test_vectorized_streamed_batch_across_workers(translated):
    """Streaming batches (``sink_factory`` + ``workers=2``) produce the same
    per-scenario statistics as the compiled sequential run."""
    result = translated("producer_consumer")
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=24), variants=4, seed=11
    )

    compiled = simulate_batch(
        system_model,
        scenarios,
        strict=False,
        collect_errors=True,
        backend="compiled",
        sink_factory=_stats_factory,
    )
    sharded = simulate_batch(
        system_model,
        scenarios,
        strict=False,
        collect_errors=True,
        workers=2,
        sink_factory=_stats_factory,
        runner=VectorizedBackend(system_model, strict=False, block_size=9),
    )
    assert sharded.streamed and compiled.streamed
    for reference_stats, stats in zip(compiled.sink_results, sharded.sink_results):
        if reference_stats is None:
            assert stats is None
            continue
        assert stats.length == reference_stats.length
        assert {
            s: stats.count_present(s) for s in stats.signals()
        } == {s: reference_stats.count_present(s) for s in reference_stats.signals()}


@pytest.mark.parametrize("name", catalog_names())
def test_vectorized_backend_fails_identically(name, translated):
    """Conflicting stimuli produce the same outcome (success or identical
    error) in strict mode on both backends."""
    result = translated(name)
    system_model = result.translation.system_model
    flat = system_model.flatten()
    outputs = [decl.name for decl in flat.outputs()]
    scenario = scenario_sweep(
        system_model, length=_scenario_length(result, cap=16), variants=1, seed=3
    )[0]
    if outputs:
        scenario.set_always(outputs[0], value=123456)

    outcomes = []
    for factory in (CompiledBackend, VectorizedBackend):
        runner = factory(system_model, strict=True)
        try:
            trace = runner.run(scenario)
        except Exception as error:  # noqa: BLE001 - compared across backends
            outcomes.append((type(error), str(error)))
        else:
            outcomes.append(("ok", trace.flows))
    assert outcomes[0] == outcomes[1]


#: Non-default vectorized plans: the E16 baseline (no recurrence scans),
#: one-instant blocks, where every instant crosses a block boundary, and
#: both together, where the decided ``^=`` groups are checked at every
#: instant next to a residual sweep that also carries the recurrences.
KNOB_SETTINGS = {
    "no-scan": {"scan_recurrences": False},
    "one-instant-blocks": {"block_size": 1},
    "no-scan-one-instant-blocks": {"scan_recurrences": False, "block_size": 1},
}


def _knob_backend(system_model, knobs, strict=False):
    """A vectorized backend with ``knobs`` applied, checked to have taken
    effect on the compiled plan."""
    options = {"block_size": 13, **knobs}
    backend = VectorizedBackend(system_model, strict=strict, **options)
    stats = backend.vector_plan.statistics()
    assert stats.block_size == options["block_size"]
    if not knobs.get("scan_recurrences", True):
        assert stats.recurrence == 0
    return backend


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("knobs", list(KNOB_SETTINGS.values()), ids=list(KNOB_SETTINGS))
def test_vectorized_knobs_produce_identical_traces(name, knobs, translated):
    """Each plan setting keeps single-run trace, value-type and warning
    parity with ``compiled``."""
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=48), variants=2, seed=17
    )

    compiled = CompiledBackend(system_model, strict=False)
    vectorized = _knob_backend(system_model, knobs)
    for index, scenario in enumerate(scenarios):
        reference_trace = compiled.run(scenario)
        trace = vectorized.run(scenario)
        _assert_traces_identical(reference_trace, trace, f"{name}, scenario {index}")


@pytest.mark.parametrize("name", catalog_names())
def test_vectorized_without_knobs_streams_identically(name, translated):
    """With recurrence scans off, streaming sinks observe the same instants
    as on ``compiled``."""
    result = translated(name)
    system_model = result.translation.system_model
    scenario = scenario_sweep(
        system_model, length=_scenario_length(result, cap=32), variants=1, seed=5
    )[0]

    sinks = []
    for runner in (
        CompiledBackend(system_model, strict=False),
        _knob_backend(system_model, KNOB_SETTINGS["no-scan"]),
    ):
        materialize, stats = MaterializeSink(), StatisticsSink()
        assert runner.run(scenario, sinks=[materialize, stats]) is None
        sinks.append((materialize.trace, stats.result()))

    (compiled_trace, compiled_stats), (vector_trace, vector_stats) = sinks
    _assert_traces_identical(compiled_trace, vector_trace, name)
    assert {
        s: vector_stats.count_present(s) for s in vector_stats.signals()
    } == {s: compiled_stats.count_present(s) for s in compiled_stats.signals()}


@pytest.mark.parametrize("name", catalog_names())
def test_vectorized_without_knobs_fails_identically(name, translated):
    """With recurrence scans off, conflicting stimuli produce the same
    outcome (success or identical error) in strict mode as on
    ``compiled``."""
    result = translated(name)
    system_model = result.translation.system_model
    flat = system_model.flatten()
    outputs = [decl.name for decl in flat.outputs()]
    scenario = scenario_sweep(
        system_model, length=_scenario_length(result, cap=16), variants=1, seed=3
    )[0]
    if outputs:
        scenario.set_always(outputs[0], value=123456)

    outcomes = []
    for runner in (
        CompiledBackend(system_model, strict=True),
        _knob_backend(system_model, KNOB_SETTINGS["no-scan"], strict=True),
    ):
        try:
            trace = runner.run(scenario)
        except Exception as error:  # noqa: BLE001 - compared across backends
            outcomes.append((type(error), str(error)))
        else:
            outcomes.append(("ok", trace.flows))
    assert outcomes[0] == outcomes[1]


def test_producer_consumer_split_promotes_the_scheduler_counters(translated):
    """The scheduler's sampled counters (``index := (zindex + 1) when
    ^tick``) are scan stages, so their ``hit``/``deadline`` chains are
    kernels: at most 96 of the paper model's 395 targets stay residual,
    and a 256-instant default run never falls back."""
    flat = translated("producer_consumer").flat_model
    plan = compile_vectorized(flat)
    stats = plan.statistics()
    assert stats.targets == 395
    assert stats.residual <= 96
    assert stats.recurrence >= 98
    scenario = default_scenario(flat, 256)
    assert plan.run(scenario, strict=False).flows == (
        CompiledBackend(flat, strict=False).run(scenario).flows
    )
    assert plan.fallback_blocks == 0
    assert plan.vector_blocks == 1
