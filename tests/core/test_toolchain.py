"""Tests of the complete automatic tool chain (Section IV-E)."""

import pytest

from repro.aadl import AadlError, AadlValidationError
from repro.casestudies import PRODUCER_CONSUMER_AADL
from repro.core import ToolchainOptions, run_toolchain
from repro.sig.vcd import parse_vcd


class TestToolchainRun:
    def test_all_stages_produced_artifacts(self, pc_toolchain):
        result = pc_toolchain
        assert result.root.name == "ProducerConsumerSystem"
        assert not result.diagnostics.has_errors
        assert result.schedules
        assert result.clock_report is not None
        assert result.determinism is not None and result.determinism.deterministic
        assert result.deadlocks is not None and result.deadlocks.deadlock_free
        assert result.trace is not None
        assert result.profile is not None

    def test_simulation_covers_two_hyperperiods(self, pc_toolchain):
        schedule = next(iter(pc_toolchain.schedules.values()))
        assert pc_toolchain.trace.length == 2 * schedule.hyperperiod_ticks

    def test_no_alarm_in_nominal_simulation(self, pc_toolchain):
        alarms = [name for name in pc_toolchain.trace.signals() if name.endswith("_Alarm")]
        assert alarms
        for alarm in alarms:
            assert pc_toolchain.trace.clock_of(alarm) == []

    def test_thread_dispatch_clocks_follow_periods(self, pc_toolchain):
        trace = pc_toolchain.trace
        dispatch = next(n for n in trace.signals() if n.endswith("sched_thProducer_dispatch"))
        assert trace.clock_of(dispatch) == [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44]
        consumer = next(n for n in trace.signals() if n.endswith("sched_thConsumer_dispatch"))
        assert trace.clock_of(consumer) == [0, 6, 12, 18, 24, 30, 36, 42]

    def test_schedulability_and_synchronizability_reports(self, pc_toolchain):
        report = next(iter(pc_toolchain.schedulability.values()))
        assert report.schedulable
        sync = next(iter(pc_toolchain.synchronizability.values()))
        assert len(sync.pairs) == 6

    def test_task_sets_extracted_per_processor(self, pc_toolchain):
        task_set = next(iter(pc_toolchain.task_sets.values()))
        assert len(task_set) == 4

    def test_summary_text(self, pc_toolchain):
        text = pc_toolchain.summary()
        assert "hyper-period 24.0 ms" in text
        assert "clock calculus" in text

    def test_vcd_export(self, pc_toolchain, tmp_path):
        path = tmp_path / "cosim.vcd"
        signals = [n for n in pc_toolchain.trace.signals() if n.endswith("_dispatch")][:4]
        pc_toolchain.write_vcd(str(path), signals=signals)
        document = parse_vcd(path.read_text())
        assert set(document.variables) == set(signals)

    def test_profile_totals_positive(self, pc_toolchain):
        assert pc_toolchain.profile.total > 0
        assert pc_toolchain.profile.instants == pc_toolchain.trace.length


class TestToolchainOptions:
    def test_missing_root_raises(self):
        with pytest.raises(ValueError):
            run_toolchain(PRODUCER_CONSUMER_AADL, ToolchainOptions())

    def test_simulation_disabled(self):
        options = ToolchainOptions(
            root_implementation="ProducerConsumerSystem.others",
            default_package="ProducerConsumer",
            simulate_hyperperiods=0,
        )
        result = run_toolchain(PRODUCER_CONSUMER_AADL, options)
        assert result.trace is None
        assert result.profile is None
        with pytest.raises(RuntimeError):
            result.write_vcd("unused.vcd")

    def test_strict_validation_failure(self):
        bad = """
        package Bad
        public
          thread t
          properties
            Dispatch_Protocol => Periodic;
          end t;
          thread implementation t.impl
          end t.impl;
          process p
          end p;
          process implementation p.impl
          subcomponents
            w: thread t.impl;
          end p.impl;
        end Bad;
        """
        with pytest.raises(ValueError) as excinfo:
            run_toolchain(bad, ToolchainOptions(root_implementation="p.impl", default_package="Bad"))
        error = excinfo.value
        assert isinstance(error, AadlValidationError) and isinstance(error, AadlError)
        assert str(error) == (
            "AADL validation failed with 1 error(s), first: "
            "[error] p.w: Periodic thread has no Period"
        )
        assert len(error.diagnostics.errors) == 1

    def test_lenient_validation_continues(self):
        text = """
        package Ok
        public
          thread t
          properties
            Dispatch_Protocol => Periodic;
            Period => 4 ms;
            Deadline => 6 ms;
            Compute_Execution_Time => 0 ms .. 1 ms;
          end t;
          thread implementation t.impl
          end t.impl;
          process p
          end p;
          process implementation p.impl
          subcomponents
            w: thread t.impl;
          end p.impl;
        end Ok;
        """
        result = run_toolchain(
            text,
            ToolchainOptions(root_implementation="p.impl", default_package="Ok", strict_validation=False,
                             simulate_hyperperiods=1),
        )
        assert result.diagnostics.warnings  # Deadline > Period
        assert result.trace is not None

    def test_record_signals_option(self):
        options = ToolchainOptions(
            root_implementation="ProducerConsumerSystem.others",
            default_package="ProducerConsumer",
            simulate_hyperperiods=1,
            record_signals=["tick"],
            cost_model=None,
        )
        result = run_toolchain(PRODUCER_CONSUMER_AADL, options)
        assert result.trace.signals() == ["tick"]
        assert result.profile is None
