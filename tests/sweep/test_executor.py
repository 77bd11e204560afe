"""The partitioned sweep executor: parity, partitioning, faults, resume.

The central claim: ``run_sweep`` produces, through shards, exactly what an
in-memory ``simulate_batch`` over the same scenarios produces through
sinks — while holding only one partition at a time and surviving errors,
injected faults and interruptions.
"""

import json
import os

import pytest

from repro.sig.engine import FaultPlan, FaultSpec, create_backend, simulate_batch
from repro.sig.sinks import DeltaSink, StatisticsSink
from repro.sweep import GridSpace, SweepResultStore, run_sweep
from repro.sweep.manifest import QUARANTINE_DIR, load_manifest
from repro.sweep.shards import delta_rows, statistics_rows

from tests.sweep.conftest import conflict_scenario, pipeline_scenario


def _stats_factory(index):
    return StatisticsSink()


def _build_period_one(rng):
    return pipeline_scenario(1)


class TestParity:
    """Shard-store query results == in-memory simulate_batch reference."""

    def test_statistics_rows_bit_identical_to_reference(self, pipeline_model, tmp_path):
        space = GridSpace(
            {"period": [1, 2, 3, 4], "value": [1, 5]}, pipeline_scenario
        )
        out = str(tmp_path / "sweep")
        result = run_sweep(
            pipeline_model, space, out, partition_size=3, length=20
        )
        assert result.ok and result.complete

        reference = simulate_batch(
            pipeline_model,
            [space.scenario(i) for i in range(len(space))],
            sink_factory=_stats_factory,
            length=20,
        )
        expected = []
        for scenario_id, stats in enumerate(reference.sink_results):
            expected.extend(statistics_rows(scenario_id, stats))
        stored = list(SweepResultStore(out).query("statistics"))
        assert stored == expected

    def test_delta_rows_bit_identical_to_reference(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 3]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        run_sweep(
            pipeline_model, space, out, partition_size=1, length=12, deltas=["acc"]
        )
        runner = create_backend(pipeline_model, backend="compiled", strict=True)
        expected = []
        for scenario_id in range(len(space)):
            sink = DeltaSink(["acc"])
            runner.run(space.scenario(scenario_id), sinks=[sink], length=12)
            expected.extend(delta_rows(scenario_id, sink.result()))
        stored = list(SweepResultStore(out).query("deltas"))
        assert stored == expected

    def test_aggregate_equals_merging_every_scenario(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2, 5]}, pipeline_scenario)
        result = run_sweep(
            pipeline_model, space, str(tmp_path / "s"), partition_size=2, length=30
        )
        reference = simulate_batch(
            pipeline_model,
            [space.scenario(i) for i in range(len(space))],
            sink_factory=_stats_factory,
            length=30,
        )
        merged = None
        for stats in reference.sink_results:
            if merged is None:
                from repro.sig.sinks import TraceStatistics

                merged = TraceStatistics(stats.process_name, 0)
            merged.merge(stats)
        assert result.aggregate == merged
        # And the store serves the same aggregate without re-reading shards.
        assert SweepResultStore(str(tmp_path / "s")).aggregate() == merged


class TestPartitioning:
    def test_one_shard_set_per_partition(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2, 3, 4, 5]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        result = run_sweep(pipeline_model, space, out, partition_size=2, length=8)
        assert result.partitions == 3
        assert result.executed == [0, 1, 2]
        names = sorted(os.listdir(out))
        assert names == [
            "manifest.json",
            "scenarios-00000.jsonl", "scenarios-00001.jsonl", "scenarios-00002.jsonl",
            "statistics-00000.jsonl", "statistics-00001.jsonl", "statistics-00002.jsonl",
        ]
        manifest = load_manifest(out)
        assert manifest["complete"] is True
        assert manifest["partitions"]["2"] == {
            "start": 4,
            "stop": 5,
            "files": {
                "scenarios": "scenarios-00002.jsonl",
                "statistics": "statistics-00002.jsonl",
            },
            "rows": {"scenarios": 1, "statistics": manifest["partitions"]["2"]["rows"]["statistics"]},
        }

    def test_progress_events_in_order(self, pipeline_model, tmp_path):
        events = []
        space = GridSpace({"period": [1, 2, 3]}, pipeline_scenario)
        run_sweep(
            pipeline_model, space, str(tmp_path / "s"), partition_size=2, length=4,
            progress=lambda event, partition: events.append((event, partition)),
        )
        assert events == [
            ("partition-start", 0), ("partition-flushed", 0), ("partition-complete", 0),
            ("partition-start", 1), ("partition-flushed", 1), ("partition-complete", 1),
        ]

    def test_empty_space_completes_immediately(self, pipeline_model, tmp_path):
        from repro.sweep import RandomSpace

        empty = RandomSpace(0, _build_period_one)
        result = run_sweep(pipeline_model, empty, str(tmp_path / "s"), length=4)
        assert result.complete and result.partitions == 0
        assert load_manifest(str(tmp_path / "s"))["complete"] is True

    def test_invalid_partition_size_rejected(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1]}, pipeline_scenario)
        with pytest.raises(ValueError):
            run_sweep(pipeline_model, space, str(tmp_path / "s"), partition_size=0)

    def test_negative_length_rejected_before_the_store_is_written(
        self, pipeline_model, tmp_path
    ):
        space = GridSpace({"period": [1, 2]}, pipeline_scenario)
        out = tmp_path / "s"
        with pytest.raises(ValueError, match="non-negative"):
            run_sweep(pipeline_model, space, str(out), length=-1)
        assert not out.exists()


class TestErrorsAndFaults:
    def test_model_errors_recorded_with_global_ids(self, conflict_model, tmp_path):
        # Periods: 1 is clock-clean, everything else violates in strict mode.
        space = GridSpace({"period": [1, 1, 2, 1, 3, 1]}, conflict_scenario)
        out = str(tmp_path / "sweep")
        result = run_sweep(conflict_model, space, out, partition_size=2, length=6)
        assert result.error_count == 2
        assert sorted(index for index, _ in result.errors) == [2, 4]
        store = SweepResultStore(out)
        rows = list(store.query("scenarios", where={"status": "error"}))
        assert [row["scenario_id"] for row in rows] == [2, 4]
        assert all(row["kind"] for row in rows)
        # Errored scenarios contribute no statistics rows.
        assert not list(store.query("statistics", where={"scenario_id": 2}))
        # Survivors are unaffected.
        assert store.rows("statistics") > 0
        assert len(store.faults()) == 2

    def test_injected_faults_re_keyed_per_partition(self, pipeline_model, tmp_path):
        # A fault plan is applied per partition with batch-local indices:
        # local scenario 1 of each partition dies persistently, so the
        # global ids 1, 4 and 7 must surface as faults.
        space = GridSpace(
            {"period": [1, 2, 3, 1, 2, 3, 1, 2]}, pipeline_scenario
        )
        out = str(tmp_path / "sweep")
        plan = FaultPlan((FaultSpec("exception", 1, attempts=None),))
        result = run_sweep(
            pipeline_model, space, out, partition_size=3, length=6,
            fault_plan=plan, retries=1,
        )
        assert result.fault_count == 3
        assert sorted(fault.scenario for fault in result.faults) == [1, 4, 7]
        store = SweepResultStore(out)
        rows = list(store.query("scenarios", where={"status": "fault"}))
        assert [row["scenario_id"] for row in rows] == [1, 4, 7]
        assert all(row["attempts"] == 2 for row in rows)
        # Survivors match an unsupervised reference bit for bit.
        survivors = [i for i in range(len(space)) if i not in (1, 4, 7)]
        reference = simulate_batch(
            pipeline_model,
            [space.scenario(i) for i in survivors],
            sink_factory=_stats_factory,
            length=6,
        )
        expected = []
        for slot, scenario_id in enumerate(survivors):
            expected.extend(
                statistics_rows(scenario_id, reference.sink_results[slot])
            )
        assert list(store.query("statistics")) == expected


class TestShardFormat:
    def test_jsonl_is_the_only_format(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        result = run_sweep(pipeline_model, space, out, length=4, shard_format="jsonl")
        assert result.shard_format == "jsonl"
        assert load_manifest(out)["shard_format"] == "jsonl"
        assert sorted(n for n in os.listdir(out) if n != "manifest.json") == [
            "scenarios-00000.jsonl", "statistics-00000.jsonl",
        ]
        for other in ("parquet", "auto"):
            with pytest.raises(ValueError, match="shard format"):
                run_sweep(pipeline_model, space, str(tmp_path / other),
                          length=4, shard_format=other)


class TestResume:
    def test_existing_manifest_refused_without_resume(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        run_sweep(pipeline_model, space, out, length=4)
        with pytest.raises(RuntimeError, match="resume"):
            run_sweep(pipeline_model, space, out, length=4)

    def test_resume_refuses_a_different_space(self, pipeline_model, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(
            pipeline_model, GridSpace({"period": [1, 2]}, pipeline_scenario),
            out, length=4,
        )
        with pytest.raises(RuntimeError, match="space_fingerprint"):
            run_sweep(
                pipeline_model, GridSpace({"period": [1, 3]}, pipeline_scenario),
                out, length=4, resume=True,
            )

    def test_resume_refuses_a_different_shape(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        run_sweep(pipeline_model, space, out, length=4, partition_size=2)
        with pytest.raises(RuntimeError, match="partition_size"):
            run_sweep(
                pipeline_model, space, out, length=4, partition_size=1, resume=True
            )

    def test_manifest_of_another_shard_format_refused(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        run_sweep(pipeline_model, space, out, length=4)
        manifest_file = os.path.join(out, "manifest.json")
        with open(manifest_file) as handle:
            manifest = json.load(handle)
        manifest["shard_format"] = "parquet"
        with open(manifest_file, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RuntimeError, match="shard format 'parquet'"):
            run_sweep(pipeline_model, space, out, length=4, resume=True)
        with pytest.raises(RuntimeError, match="shard format 'parquet'"):
            SweepResultStore(out)

    def test_interrupted_sweep_resumes_to_identical_results(
        self, pipeline_model, tmp_path
    ):
        space = GridSpace({"period": [1, 2, 3, 4, 5, 6]}, pipeline_scenario)
        out = str(tmp_path / "interrupted")

        class Interrupt(Exception):
            pass

        def explode_at_2(event, partition):
            if event == "partition-start" and partition == 2:
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_sweep(
                pipeline_model, space, out, partition_size=2, length=10,
                progress=explode_at_2,
            )
        manifest = load_manifest(out)
        assert sorted(manifest["partitions"]) == ["0", "1"]
        assert manifest["complete"] is False

        resumed = run_sweep(
            pipeline_model, space, out, partition_size=2, length=10, resume=True
        )
        assert resumed.executed == [2]
        assert resumed.skipped == 2
        assert resumed.complete

        reference_dir = str(tmp_path / "uninterrupted")
        run_sweep(pipeline_model, space, reference_dir, partition_size=2, length=10)
        for table in ("scenarios", "statistics"):
            assert list(SweepResultStore(out).query(table)) == list(
                SweepResultStore(reference_dir).query(table)
            )
        assert SweepResultStore(out).aggregate() == SweepResultStore(
            reference_dir
        ).aggregate()

    def test_orphaned_shards_are_quarantined_and_reexecuted(
        self, pipeline_model, tmp_path
    ):
        space = GridSpace({"period": [1, 2, 3, 4]}, pipeline_scenario)
        out = str(tmp_path / "sweep")

        class Torn(Exception):
            pass

        def tear_after_flush(event, partition):
            # The crash window: shards renamed, manifest not yet committed.
            if event == "partition-flushed" and partition == 1:
                raise Torn()

        with pytest.raises(Torn):
            run_sweep(
                pipeline_model, space, out, partition_size=2, length=8,
                progress=tear_after_flush,
            )
        orphans = {
            name for name in os.listdir(out)
            if name.endswith(".jsonl") and name.endswith("1.jsonl")
        }
        assert orphans == {"scenarios-00001.jsonl", "statistics-00001.jsonl"}

        resumed = run_sweep(
            pipeline_model, space, out, partition_size=2, length=8, resume=True
        )
        assert sorted(resumed.quarantined) == sorted(orphans)
        assert resumed.executed == [1]
        assert os.path.isdir(os.path.join(out, QUARANTINE_DIR))
        assert sorted(os.listdir(os.path.join(out, QUARANTINE_DIR))) == sorted(orphans)

        reference_dir = str(tmp_path / "reference")
        run_sweep(pipeline_model, space, reference_dir, partition_size=2, length=8)
        assert list(SweepResultStore(out).query("statistics")) == list(
            SweepResultStore(reference_dir).query("statistics")
        )

    def test_resume_of_a_complete_sweep_is_a_noop(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2]}, pipeline_scenario)
        out = str(tmp_path / "sweep")
        first = run_sweep(pipeline_model, space, out, length=4)
        again = run_sweep(pipeline_model, space, out, length=4, resume=True)
        assert again.executed == []
        assert again.skipped == first.partitions
        assert again.complete
        assert again.aggregate == first.aggregate


class TestWorkers:
    def test_sharded_sweep_matches_sequential(self, pipeline_model, tmp_path):
        space = GridSpace({"period": [1, 2, 3, 4]}, pipeline_scenario)
        sequential = str(tmp_path / "seq")
        sharded = str(tmp_path / "par")
        run_sweep(pipeline_model, space, sequential, partition_size=2, length=10)
        run_sweep(
            pipeline_model, space, sharded, partition_size=2, length=10, workers=2
        )
        for table in ("scenarios", "statistics"):
            assert list(SweepResultStore(sharded).query(table)) == list(
                SweepResultStore(sequential).query(table)
            )
