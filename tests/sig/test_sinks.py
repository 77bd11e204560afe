"""Tests of the streaming trace sinks (repro.sig.sinks).

The contract under test: streaming a run into sinks observes exactly what
the legacy materialising path records (MaterializeSink is bit-identical to
``SimulationTrace``), statistics aggregate without holding flows, sinks
close even when the simulation aborts, and the batched APIs create, drive
and harvest per-scenario sinks in scenario order — sequentially and across
worker processes.
"""

import pytest

from repro.sig import builder as b
from repro.sig.engine import CompiledBackend, ReferenceBackend, simulate, simulate_batch
from repro.sig.engine.batch import batch_flow_summary
from repro.sig.process import ProcessModel
from repro.sig.simulator import ClockViolation, Scenario, Simulator
from repro.sig.sinks import (
    MaterializeSink,
    SignalStatistics,
    StatisticsSink,
    TraceHeader,
    TraceSink,
    as_sink_list,
    batch_statistics_summary,
    replay_trace,
)
from repro.sig.values import ABSENT, EVENT, INTEGER


def counter_model() -> ProcessModel:
    model = ProcessModel("sink_sample")
    model.input("tick", EVENT)
    model.output("count", INTEGER)
    model.local("zcount", INTEGER)
    model.define("zcount", b.delay(b.ref("count"), init=0))
    model.define("count", b.when(b.func("+", b.ref("zcount"), 1), b.clock("tick")))
    model.synchronise("count", "tick")
    return model


def clock_conflict_model() -> ProcessModel:
    """Applying ``+`` to signals on different clocks raises in strict mode."""
    model = ProcessModel("conflict")
    model.input("x", INTEGER)
    model.input("y", INTEGER)
    model.output("bad", INTEGER)
    model.define("bad", b.func("+", b.ref("x"), b.ref("y")))
    return model


@pytest.fixture()
def model():
    return counter_model()


@pytest.fixture()
def scenario():
    return Scenario(8).set_periodic("tick", 2)


class RecordingSink(TraceSink):
    """Collects every callback for protocol assertions."""

    def __init__(self):
        self.headers = []
        self.instants = []
        self.closed = 0

    def on_header(self, header):
        super().on_header(header)
        self.headers.append(header)

    def on_instant(self, instant, values):
        self.instants.append((instant, values))

    def on_close(self):
        self.closed += 1


class TestProtocol:
    def test_header_describes_the_run(self, model, scenario):
        sink = RecordingSink()
        out = simulate(model, scenario, record=["tick", "count"], sinks=sink)
        assert out is None
        (header,) = sink.headers
        assert header.process_name == "sink_sample"
        assert header.length == 8
        assert header.signals == ("tick", "count")
        assert header.types["count"] is INTEGER
        assert sink.closed == 1
        assert len(sink.instants) == 8

    def test_as_sink_list_normalises(self):
        sink = RecordingSink()
        assert as_sink_list(None) == []
        assert as_sink_list(sink) == [sink]
        assert as_sink_list([sink, sink]) == [sink, sink]

    @pytest.mark.parametrize("backend", [ReferenceBackend, CompiledBackend])
    def test_both_backends_stream(self, model, scenario, backend):
        sink = RecordingSink()
        runner = backend(model)
        assert runner.run(scenario, sinks=[sink]) is None
        assert sink.closed == 1
        assert len(sink.instants) == scenario.length

    @pytest.mark.parametrize("backend", [ReferenceBackend, CompiledBackend])
    def test_empty_sink_list_streams_to_nothing(self, model, scenario, backend):
        """``sinks=[]`` selects streaming (nothing retained, ``None``
        returned) — it must not silently materialise and discard a trace."""
        runner = backend(model)
        assert runner.run(scenario, sinks=[]) is None

    def test_failing_on_header_still_closes_earlier_sinks(self, model, scenario, tmp_path):
        from repro.sig.vcd import StreamingVcdSink

        class ExplodingSink(TraceSink):
            def on_header(self, header):
                raise RuntimeError("boom")

            def on_instant(self, instant, values):
                pass

        path = tmp_path / "partial.vcd"
        vcd_sink = StreamingVcdSink(str(path))
        untouched = MaterializeSink()  # its on_header never runs
        with pytest.raises(RuntimeError, match="boom"):
            simulate(model, scenario, sinks=[vcd_sink, ExplodingSink(), untouched])
        # The VCD sink's handle was closed (file readable and terminated)
        # and the never-started sink tolerated the close.
        assert path.read_text().rstrip().endswith("#0")
        assert untouched.trace is None

    def test_failing_on_close_still_closes_remaining_sinks(self, model, scenario, tmp_path):
        from repro.sig.vcd import StreamingVcdSink

        class FailingClose(TraceSink):
            def on_instant(self, instant, values):
                pass

            def on_close(self):
                raise OSError("disk full")

        path = tmp_path / "after-failure.vcd"
        vcd_sink = StreamingVcdSink(str(path))
        with pytest.raises(OSError, match="disk full"):
            simulate(model, scenario, sinks=[FailingClose(), vcd_sink])
        # The later sink was still closed: the file is terminated properly.
        assert path.read_text().rstrip().endswith(f"#{scenario.length}")

    def test_sinks_closed_when_the_run_aborts(self):
        model = clock_conflict_model()
        scenario = Scenario(4).set_periodic("x", 1).set_periodic("y", 2, phase=1)
        for factory in (ReferenceBackend, CompiledBackend):
            sink = RecordingSink()
            with pytest.raises(ClockViolation):
                factory(model, strict=True).run(scenario, sinks=[sink])
            assert sink.closed == 1
            assert len(sink.instants) < scenario.length


class TestMaterializeSink:
    @pytest.mark.parametrize("backend", [ReferenceBackend, CompiledBackend])
    def test_bit_identical_to_legacy_trace(self, model, scenario, backend):
        runner = backend(model)
        legacy = runner.run(scenario)
        sink = MaterializeSink()
        assert runner.run(scenario, sinks=[sink]) is None
        assert sink.trace is not None
        assert sink.trace.process_name == legacy.process_name
        assert sink.trace.length == legacy.length
        assert sink.trace.flows == legacy.flows
        assert sink.trace.warnings == legacy.warnings

    def test_result_returns_the_trace(self, model, scenario):
        sink = MaterializeSink()
        simulate(model, scenario, sinks=sink)
        assert sink.result() is sink.trace

    def test_duplicate_record_names_share_one_flow(self, model, scenario):
        """A name recorded twice double-appends into one shared flow, exactly
        like the legacy recording paths."""
        legacy = Simulator(model).run(scenario, record=["count", "count"])
        sink = MaterializeSink()
        simulate(model, scenario, record=["count", "count"], sinks=sink)
        assert sink.trace.flows == legacy.flows
        assert len(sink.trace.flows["count"]) == 2 * scenario.length

    def test_aborted_run_yields_a_consistent_partial_trace(self):
        """On abort, the trace covers exactly the completed instants — its
        declared length never exceeds its flows (same for statistics)."""
        model = clock_conflict_model()
        # Instant 0 succeeds (both present), instant 1 violates the clocks.
        scenario = Scenario(6).set_periodic("x", 1, value=3).set_periodic("y", 2, value=4)
        materialize, stats = MaterializeSink(), StatisticsSink()
        with pytest.raises(ClockViolation):
            simulate(model, scenario, sinks=[materialize, stats])
        trace = materialize.trace
        assert trace.length == 1
        assert all(len(flow) == trace.length for flow in trace.flows.values())
        assert trace.value_at("bad", 0) == 7
        statistics = stats.result()
        assert statistics.length == 1
        entry = statistics.per_signal["bad"]
        assert entry.present + entry.absent == statistics.length

    def test_zero_instant_scenario(self, model):
        sink = MaterializeSink()
        simulate(model, Scenario(0), sinks=sink)
        assert sink.trace.length == 0
        assert set(sink.trace.flows) == set(model.signals)
        assert all(len(flow) == 0 for flow in sink.trace.flows.values())


class TestStatisticsSink:
    def test_counts_match_the_trace(self, model, scenario):
        legacy = simulate(model, scenario)
        sink = StatisticsSink()
        simulate(model, scenario, sinks=sink)
        stats = sink.result()
        assert stats.length == legacy.length
        assert stats.signals() == legacy.signals()
        for name in legacy.signals():
            assert stats.count_present(name) == legacy.count_present(name)
            entry = stats.per_signal[name]
            assert entry.absent == legacy.length - entry.present

    def test_min_max_and_activity_window(self, model, scenario):
        sink = StatisticsSink()
        simulate(model, scenario, sinks=sink)
        count = sink.result().per_signal["count"]
        assert (count.minimum, count.maximum) == (1, 4)
        assert (count.first_instant, count.last_instant) == (0, 6)

    def test_unorderable_values_keep_counts_drop_range(self):
        entry = SignalStatistics("s")
        entry.observe(0, 1)
        entry.observe(1, "a")  # int < str raises TypeError
        assert entry.present == 2
        # The whole range is dropped, not left at the stale pre-conflict
        # value: a partial min/max would depend on observation order and
        # break merge() associativity (see TestStatisticsMerge).
        assert (entry.minimum, entry.maximum) == (None, None)
        assert entry.range_dropped

    def test_summary_limit(self, model, scenario):
        sink = StatisticsSink()
        simulate(model, scenario, sinks=sink)
        text = sink.result().summary(limit=1)
        assert "more signal(s)" in text
        assert "8 instants" in text

    def test_statistics_are_picklable(self, model, scenario):
        import pickle

        sink = StatisticsSink()
        simulate(model, scenario, sinks=sink)
        clone = pickle.loads(pickle.dumps(sink.result()))
        assert clone.count_present("count") == sink.result().count_present("count")


class TestReplay:
    def test_replay_equals_live_statistics(self, model, scenario):
        trace = simulate(model, scenario)
        live = StatisticsSink()
        simulate(model, scenario, sinks=live)
        replayed = StatisticsSink()
        replay_trace(trace, replayed)
        assert replayed.result() == live.result()

    def test_replay_unknown_name_is_always_absent(self, model, scenario):
        trace = simulate(model, scenario)
        sink = StatisticsSink()
        replay_trace(trace, sink, signals=["count", "ghost"])
        stats = sink.result()
        assert stats.per_signal["ghost"].present == 0
        assert stats.per_signal["ghost"].absent == trace.length


class _ResultLessSink(TraceSink):
    """A sink with no product (``result()`` stays ``None``)."""

    def on_instant(self, instant, values):
        pass


def _result_less_factory(index):
    return _ResultLessSink()


def _stats_factory(index):
    return StatisticsSink()


def _materialize_factory(index):
    return MaterializeSink()


def _stats_pair_factory(index):
    return [StatisticsSink(), MaterializeSink()]


class TestBatchStreaming:
    @pytest.fixture()
    def scenarios(self):
        return [Scenario(12).set_periodic("tick", period) for period in (1, 2, 3, 4)]

    def test_sink_factory_disables_materialisation(self, model, scenarios):
        result = simulate_batch(model, scenarios, sink_factory=_stats_factory)
        assert result.streamed
        assert result.traces == [None] * len(scenarios)
        assert len(result.sink_results) == len(scenarios)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_matches_flow_summary(self, model, scenarios, workers):
        legacy = simulate_batch(model, scenarios)
        streamed = simulate_batch(
            model, scenarios, sink_factory=_stats_factory, workers=workers
        )
        assert batch_statistics_summary(streamed.sink_results, "count") == batch_flow_summary(
            legacy, "count"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_materialize_factory_parity_across_workers(self, model, scenarios, workers):
        legacy = simulate_batch(model, scenarios)
        streamed = simulate_batch(
            model, scenarios, sink_factory=_materialize_factory, workers=workers
        )
        assert len(streamed.sink_results) == len(legacy.traces)
        for produced, reference in zip(streamed.sink_results, legacy.traces):
            assert produced.flows == reference.flows
            assert produced.warnings == reference.warnings

    def test_summary_does_not_count_result_less_sinks_as_failures(self, model, scenarios):
        result = simulate_batch(model, scenarios, sink_factory=_result_less_factory)
        assert result.ok
        assert f"{len(scenarios)} succeeded, 0 failed" in result.summary()
        assert "streamed" in result.summary()

    def test_factory_returning_several_sinks(self, model, scenarios):
        result = simulate_batch(model, scenarios, sink_factory=_stats_pair_factory)
        for payload in result.sink_results:
            stats, trace = payload
            assert stats.count_present("count") == trace.count_present("count")

    def test_failed_scenarios_contribute_none(self):
        model = clock_conflict_model()
        bad = [Scenario(4).set_periodic("x", 1).set_periodic("y", 2, phase=1)]
        good = [Scenario(4).set_periodic("x", 1).set_periodic("y", 1)]
        result = simulate_batch(
            model, bad + good, strict=True, collect_errors=True, sink_factory=_stats_factory
        )
        assert result.sink_results[0] is None
        assert result.sink_results[1] is not None
        assert [index for index, _ in result.errors] == [0]
        summary = batch_statistics_summary(result.sink_results, "bad")
        assert summary["per_scenario"] == [None, 4]


class TestToolchainStreaming:
    @pytest.fixture(scope="class")
    def streamed_toolchain(self):
        from repro.casestudies import PRODUCER_CONSUMER_AADL
        from repro.core import ToolchainOptions, run_toolchain

        stats = StatisticsSink()
        options = ToolchainOptions(
            root_implementation="ProducerConsumerSystem.others",
            default_package="ProducerConsumer",
            simulate_hyperperiods=1,
            cost_model=None,
            sinks=[stats],
            materialize_trace=False,
        )
        return run_toolchain(PRODUCER_CONSUMER_AADL, options), stats

    def test_streaming_only_run_has_no_trace(self, streamed_toolchain):
        result, stats = streamed_toolchain
        assert result.trace is None
        assert result.profile is None
        assert result.scenario_length > 0
        assert result.sink_results == [stats.result()]
        assert stats.result().length == result.scenario_length

    def test_summary_reports_the_streamed_run(self, streamed_toolchain):
        result, _ = streamed_toolchain
        assert "streamed to 1 sink(s)" in result.summary()

    def test_no_trace_without_sinks_streams_to_nothing(self):
        """materialize_trace=False with no sinks must not materialise a
        throwaway trace: the run streams to an empty sink list."""
        from repro.casestudies import PRODUCER_CONSUMER_AADL
        from repro.core import ToolchainOptions, run_toolchain

        options = ToolchainOptions(
            root_implementation="ProducerConsumerSystem.others",
            default_package="ProducerConsumer",
            simulate_hyperperiods=1,
            cost_model=None,
            materialize_trace=False,
        )
        result = run_toolchain(PRODUCER_CONSUMER_AADL, options)
        assert result.trace is None
        assert result.scenario_length > 0
        assert "streamed to 0 sink(s)" in result.summary()

    def test_sinks_alongside_materialised_trace(self, pc_toolchain):
        from repro.core import ToolchainOptions, run_toolchain
        from repro.casestudies import PRODUCER_CONSUMER_AADL

        stats = StatisticsSink()
        options = ToolchainOptions(
            root_implementation="ProducerConsumerSystem.others",
            default_package="ProducerConsumer",
            simulate_hyperperiods=2,
            stimuli_periods={"sysEnv_pProdStart_stimulus": 4, "sysEnv_pConsStart_stimulus": 6},
            sinks=[stats],
        )
        result = run_toolchain(PRODUCER_CONSUMER_AADL, options)
        assert result.trace is not None
        assert result.trace.flows == pc_toolchain.trace.flows
        for name in result.trace.signals():
            assert stats.result().count_present(name) == result.trace.count_present(name)


class TestWindowSink:
    """The ring-buffer window sink retains exactly the last N instants."""

    def test_window_shorter_than_run(self, model, scenario):
        from repro.sig.sinks import WindowSink

        full = MaterializeSink()
        window = WindowSink(3)
        CompiledBackend(model, strict=False).run(scenario, sinks=[full, window])
        trace = window.result()
        assert trace is not None
        assert trace.length == 3
        assert window.start_instant == scenario.length - 3
        # The window rows are the tail of the full trace.
        for name, flow in trace.flows.items():
            assert flow.values == full.trace.flows[name].values[-3:]

    def test_window_longer_than_run_keeps_everything(self, model, scenario):
        from repro.sig.sinks import WindowSink

        full = MaterializeSink()
        window = WindowSink(100)
        CompiledBackend(model, strict=False).run(scenario, sinks=[full, window])
        trace = window.result()
        assert trace.length == scenario.length
        assert window.start_instant == 0
        assert trace.flows == full.trace.flows

    def test_window_materializes_mid_run_and_on_abort(self):
        from repro.sig.sinks import WindowSink

        model = clock_conflict_model()
        scenario = Scenario(6)
        scenario.set_always("x", value=1)
        # y present everywhere except instant 3: the mixed-presence ``+``
        # raises there in strict mode.
        scenario.set_at("y", {0: 2, 1: 2, 2: 2, 4: 2, 5: 2})
        window = WindowSink(2)
        with pytest.raises(ClockViolation):
            CompiledBackend(model, strict=True).run(scenario, sinks=[window])
        # Instants 0..2 completed before the abort; the last two are kept.
        trace = window.result()
        assert trace.length == 2
        assert window.start_instant == 1

    def test_window_rejects_nonpositive_capacity(self):
        from repro.sig.sinks import WindowSink

        with pytest.raises(ValueError):
            WindowSink(0)

    def test_window_is_reusable_across_runs(self, model, scenario):
        from repro.sig.sinks import WindowSink

        window = WindowSink(4)
        runner = CompiledBackend(model, strict=False)
        runner.run(scenario, sinks=[window])
        first = window.result()
        runner.run(scenario, sinks=[window])
        assert window.result().flows == first.flows


class TestDeltaSink:
    """The change-log sink retains only instants where a watched signal
    changed presence or value — O(changes) memory for sparse monitoring."""

    def test_matches_stutter_edges_of_the_full_trace(self, model, scenario):
        from repro.sig.sinks import DeltaSink

        full = MaterializeSink()
        deltas = DeltaSink(["count"])
        CompiledBackend(model, strict=False).run(scenario, sinks=[full, deltas])
        log = deltas.result()
        assert log is not None
        assert log.watched == ("count",)
        flow = full.trace.flows["count"].values
        expected = []
        previous = ABSENT
        for instant, value in enumerate(flow):
            if (value is ABSENT) != (previous is ABSENT) or (
                value is not ABSENT and value != previous
            ):
                expected.append((instant, value))
                previous = value
        assert log.changes_of("count") == expected
        assert log.change_counts["count"] == len(expected)

    def test_watches_all_recorded_signals_by_default(self, model, scenario):
        from repro.sig.sinks import DeltaSink

        deltas = DeltaSink()
        CompiledBackend(model, strict=False).run(scenario, sinks=[deltas])
        log = deltas.result()
        assert set(log.watched) == {"tick", "count", "zcount"}
        # tick toggles present/absent at every instant of the period-2 flow.
        assert log.change_counts["tick"] == scenario.length

    def test_constant_signal_contributes_one_change(self):
        from repro.sig.sinks import DeltaSink

        model = counter_model()
        scenario = Scenario(10).set_always("tick")
        deltas = DeltaSink(["tick", "count"])
        CompiledBackend(model, strict=False).run(scenario, sinks=[deltas])
        log = deltas.result()
        # tick: one change at instant 0 (absent -> True), then constant.
        assert log.changes_of("tick") == [(0, True)]
        # count changes at every instant (1, 2, 3, ...).
        assert log.change_counts["count"] == 10
        assert len(log) == 10
        assert "10 change instant(s)" in log.summary()

    def test_unknown_watch_names_are_ignored(self, model, scenario):
        from repro.sig.sinks import DeltaSink

        deltas = DeltaSink(["count", "no_such_signal"])
        CompiledBackend(model, strict=False).run(scenario, sinks=[deltas])
        assert deltas.result().watched == ("count",)

    def test_result_is_picklable_for_batches(self, model, scenario):
        import pickle

        from repro.sig.sinks import DeltaSink

        deltas = DeltaSink(["count"])
        ReferenceBackend(model, strict=False).run(scenario, sinks=[deltas])
        clone = pickle.loads(pickle.dumps(deltas.result()))
        assert clone.changes_of("count") == deltas.result().changes_of("count")

    def test_reference_and_compiled_agree(self, model, scenario):
        from repro.sig.sinks import DeltaSink

        logs = {}
        for backend in (ReferenceBackend, CompiledBackend):
            sink = DeltaSink()
            backend(model, strict=False).run(scenario, sinks=[sink])
            logs[backend.name] = sink.result()
        assert logs["reference"].entries == logs["compiled"].entries
        assert logs["reference"].change_counts == logs["compiled"].change_counts

    def test_aborted_run_reports_completed_instants(self):
        from repro.sig.sinks import DeltaSink

        model = clock_conflict_model()
        scenario = Scenario(6)
        scenario.set_always("x", value=1)
        scenario.set_at("y", {0: 2, 1: 2, 2: 2, 4: 2, 5: 2})
        deltas = DeltaSink(["bad"])
        with pytest.raises(ClockViolation):
            CompiledBackend(model, strict=True).run(scenario, sinks=[deltas])
        log = deltas.result()
        assert log.length == 3  # instants 0..2 completed before the abort
        assert log.changes_of("bad") == [(0, 3)]


class TestStatisticsMerge:
    """merge(): per-partition statistics compose into sweep-level aggregates."""

    def _observe_all(self, values, start=0):
        stats = SignalStatistics("s")
        for offset, value in enumerate(values):
            stats.observe(start + offset, value)
        return stats

    def test_counts_window_and_range_combine(self):
        left = self._observe_all([1, ABSENT, 5], start=0)
        right = self._observe_all([ABSENT, -2, 9], start=10)
        merged = left.merge(right)
        assert merged is left
        assert (merged.present, merged.absent) == (4, 2)
        assert (merged.minimum, merged.maximum) == (-2, 9)
        assert (merged.first_instant, merged.last_instant) == (0, 12)

    def test_merge_rejects_other_signal(self):
        with pytest.raises(ValueError):
            SignalStatistics("a").merge(SignalStatistics("b"))

    def test_unorderable_values_drop_the_range_in_observe(self):
        stats = self._observe_all([3, "text"])
        assert stats.range_dropped
        assert stats.minimum is None and stats.maximum is None
        # The dropped state is absorbing: later orderable values cannot
        # resurrect a range that no longer covers every observation.
        stats.observe(2, 7)
        assert stats.minimum is None and stats.maximum is None
        assert stats.present == 3

    def test_dropped_range_is_absorbing_in_merge(self):
        dropped = self._observe_all([3, "text"])
        clean = self._observe_all([1, 2])
        merged = clean.merge(dropped)
        assert merged.range_dropped
        assert merged.minimum is None and merged.maximum is None

    def test_cross_partition_unorderable_ranges_drop_on_merge(self):
        numbers = self._observe_all([1, 2])
        strings = self._observe_all(["a", "b"])
        merged = numbers.merge(strings)
        assert merged.range_dropped
        assert merged.minimum is None and merged.maximum is None

    def test_merge_is_associative_with_unorderable_values(self):
        # The seed bug: observe() used to keep a stale min/max after a
        # TypeError, so (A+B)+C and A+(B+C) could disagree on the range.
        def parts():
            return (
                self._observe_all([5, 7]),
                self._observe_all(["x"]),
                self._observe_all([1]),
            )

        a1, b1, c1 = parts()
        left = a1.merge(b1).merge(c1)
        a2, b2, c2 = parts()
        right = a2.merge(b2.merge(c2))
        assert left == right
        # And both equal observing everything in one partition, any order.
        single = self._observe_all([5, 7, "x", 1])
        assert (left.minimum, left.maximum, left.range_dropped) == (
            single.minimum,
            single.maximum,
            single.range_dropped,
        )

    def test_split_observation_equals_single_partition(self):
        values = [4, ABSENT, 9, 0, ABSENT, 2, 8]
        whole = self._observe_all(values)
        for split in range(len(values) + 1):
            left = self._observe_all(values[:split])
            right = self._observe_all(values[split:], start=split)
            assert left.merge(right) == whole

    def test_trace_statistics_merge_unions_signals(self):
        from repro.sig.sinks import TraceStatistics

        left = TraceStatistics("p", 10, {"a": self._observe_all([1, 2])})
        left.per_signal["a"].name = "a"
        right = TraceStatistics(
            "p", 5, {"b": SignalStatistics("b", present=3, absent=2)}
        )
        merged = left.merge(right)
        assert merged is left
        assert merged.length == 15
        assert set(merged.per_signal) == {"a", "b"}
        # Copied entries are independent of the source aggregate.
        right.per_signal["b"].present = 99
        assert merged.per_signal["b"].present == 3

    def test_trace_statistics_merge_rejects_other_process(self):
        from repro.sig.sinks import TraceStatistics

        with pytest.raises(ValueError):
            TraceStatistics("p", 1).merge(TraceStatistics("q", 1))

    def test_merged_batch_equals_one_long_run(self, model):
        # Two half-horizon runs merged == statistics of the full horizon
        # (modulo the restart of the state, so drive a stateless signal).
        scenario = Scenario(12).set_periodic("tick", 3)
        runs = []
        for _ in range(2):
            sink = StatisticsSink()
            simulate(model, scenario, sinks=[sink])
            runs.append(sink.result())
        merged = runs[0].merge(runs[1])
        assert merged.length == 24
        assert merged.count_present("tick") == 8
        assert merged.per_signal["count"].present == 8
