"""MaterializeSink parity over the full case-study catalog.

The streaming path must be an observation of the exact same run the legacy
materialising path performs: a :class:`~repro.sig.sinks.MaterializeSink`
fed by ``run(..., sinks=[...])`` has to rebuild the legacy
:class:`~repro.sig.simulator.SimulationTrace` bit for bit — flows, warnings
and length — on both backends, and under sharded batch execution
(``workers=N``) with per-scenario sink factories.  This is the contract
that lets million-instant runs switch to sinks without changing a single
observable value.
"""

import os

import pytest

from repro.casestudies import catalog_names, load_case_study, scenario_sweep
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.scheduling.static_scheduler import SchedulingError
from repro.sig.engine import (
    CompiledBackend,
    ReferenceBackend,
    VectorizedBackend,
    simulate_batch,
)
from repro.sig.sinks import (
    MaterializeSink,
    StatisticsSink,
    TraceSink,
    batch_statistics_summary,
)
from repro.sig.engine.batch import batch_flow_summary


@pytest.fixture(scope="module")
def translated():
    """Translate each catalog entry once, caching per module (same policy as
    ``test_backend_parity``: entries that are not RM-schedulable are
    translated without the scheduler)."""
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


def _scenario_length(result, hyperperiods=1, fallback=24, cap=None):
    if result.schedules:
        length = next(iter(result.schedules.values())).simulation_length(hyperperiods)
    else:
        length = fallback
    return min(length, cap) if cap else length


def _assert_bit_identical(produced, reference, context):
    assert produced is not None, context
    assert produced.length == reference.length, context
    assert set(produced.flows) == set(reference.flows), context
    for signal in reference.flows:
        assert produced.flows[signal] == reference.flows[signal], (
            f"{context}: flow of {signal!r} diverges between sink and legacy path"
        )
    assert produced.warnings == reference.warnings, context


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("backend", [ReferenceBackend, CompiledBackend])
def test_materialize_sink_is_bit_identical_on_catalog(name, backend, translated):
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=48), variants=2, seed=23
    )

    runner = backend(system_model, strict=False)
    for index, scenario in enumerate(scenarios):
        legacy = runner.run(scenario)
        sink = MaterializeSink()
        out = runner.run(scenario, sinks=[sink])
        assert out is None
        _assert_bit_identical(sink.trace, legacy, f"{name}, scenario {index}, {runner.name}")


def _materialize_factory(index):
    return MaterializeSink()


def _stats_factory(index):
    return StatisticsSink()


@pytest.mark.parametrize("name", catalog_names())
def test_materialize_sink_parity_under_workers(name, translated):
    """Sharded streaming batches rebuild the sequential legacy traces exactly,
    in scenario order, with per-worker sink factories."""
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=32), variants=3, seed=29
    )
    workers = 2 if (os.cpu_count() or 1) > 1 else 1

    legacy = simulate_batch(system_model, scenarios, strict=False, collect_errors=True)
    streamed = simulate_batch(
        system_model,
        scenarios,
        strict=False,
        collect_errors=True,
        workers=workers,
        sink_factory=_materialize_factory,
    )
    assert [index for index, _ in streamed.errors] == [index for index, _ in legacy.errors]
    assert len(streamed.sink_results) == len(legacy.traces)
    for index, (produced, reference) in enumerate(zip(streamed.sink_results, legacy.traces)):
        if reference is None:
            assert produced is None
            continue
        _assert_bit_identical(produced, reference, f"{name}, scenario {index}, workers={workers}")


def test_statistics_summary_matches_flow_summary_on_case_study(translated):
    """The aggregate sink's batch summary reproduces batch_flow_summary on a
    real translated model (flow summaries compatible by construction)."""
    result = translated("producer_consumer")
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=32), variants=3, seed=31
    )
    legacy = simulate_batch(system_model, scenarios, strict=False, collect_errors=True)
    streamed = simulate_batch(
        system_model,
        scenarios,
        strict=False,
        collect_errors=True,
        sink_factory=_stats_factory,
    )
    reference_trace = next(trace for trace in legacy.traces if trace is not None)
    checked = 0
    for signal in reference_trace.signals():
        expected = batch_flow_summary(legacy, signal)
        assert batch_statistics_summary(streamed.sink_results, signal) == expected
        checked += 1
    assert checked > 0


class _RowByRowMaterializeSink(MaterializeSink):
    """A MaterializeSink fed through the protocol's default ``on_block``,
    which replays every block instant by instant through ``on_instant``."""

    on_block = TraceSink.on_block


#: A recorded name the model does not declare, driven only by the scenario.
_SCENARIO_ONLY = "scenario_only_probe"


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicated"])
def test_block_materialize_matches_row_by_row_replay_on_vectorized(
    name, duplicate, translated
):
    """The vectorized backend hands each validated block to a lone
    MaterializeSink as columns; the sink extends its flows column-wise (or
    replays per instant when a recorded name repeats) and must rebuild the
    exact trace the row-by-row replay and the compiled backend produce,
    including a recorded scenario-only name."""
    result = translated(name)
    system_model = result.translation.system_model
    scenarios = scenario_sweep(
        system_model, length=_scenario_length(result, cap=40), variants=2, seed=37
    )
    declared = list(system_model.signals)
    record = declared + [_SCENARIO_ONLY]
    if duplicate:
        record = [declared[0]] + record + [declared[-1]]

    vectorized = VectorizedBackend(system_model, strict=False, block_size=7)
    compiled = CompiledBackend(system_model, strict=False)
    for index, scenario in enumerate(scenarios):
        scenario.set_periodic(_SCENARIO_ONLY, 3, phase=1, value=index + 5)
        context = f"{name}, scenario {index}, record duplicates={duplicate}"
        blocks = MaterializeSink()
        rows = _RowByRowMaterializeSink()
        assert vectorized.run(scenario, record=record, sinks=blocks) is None
        assert vectorized.run(scenario, record=record, sinks=rows) is None
        oracle = compiled.run(scenario, record=record)
        _assert_bit_identical(blocks.trace, rows.trace, context)
        _assert_bit_identical(blocks.trace, oracle, context)
        _assert_bit_identical(vectorized.run(scenario, record=record), oracle, context)
        for signal, flow in oracle.flows.items():
            assert [type(v) for v in blocks.trace.flows[signal].values] == [
                type(v) for v in flow.values
            ], f"{context}: value types of {signal!r} diverge"
        assert blocks.trace.flows[_SCENARIO_ONLY] == oracle.flows[_SCENARIO_ONLY]
    if vectorized.vector_plan is not None:
        assert vectorized.vector_plan.vector_blocks > 0, name


class _Abort(Exception):
    pass


class _AbortAtSink(TraceSink):
    """Stops the run by raising when it receives instant *at*."""

    def __init__(self, at):
        self.at = at

    def on_instant(self, instant, values):
        if instant == self.at:
            raise _Abort(instant)


@pytest.mark.parametrize("name", catalog_names())
def test_aborting_sink_leaves_same_partial_trace_on_vectorized(name, translated):
    """A sink that aborts the run inside a vector-executed block leaves the
    MaterializeSink before it with the same partial trace as on the
    compiled backend: with several sinks, every sink sees instant t before
    any sink sees t + 1."""
    result = translated(name)
    system_model = result.translation.system_model
    length = max(_scenario_length(result, cap=40), 20)
    (scenario,) = scenario_sweep(system_model, length=length, variants=1, seed=41)
    abort_at = 10  # inside the second block of 7 instants

    partial = {}
    for backend in (
        CompiledBackend(system_model, strict=False),
        VectorizedBackend(system_model, strict=False, block_size=7),
    ):
        materialize = MaterializeSink()
        with pytest.raises(_Abort):
            backend.run(scenario, sinks=[materialize, _AbortAtSink(abort_at)])
        assert materialize.trace.length == abort_at + 1, (name, backend.name)
        partial[backend.name] = materialize.trace
    _assert_bit_identical(partial["vectorized"], partial["compiled"], name)
