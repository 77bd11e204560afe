"""End-to-end `repro sweep` CLI: run, info and query over a shard directory."""

import json
import os

import pytest

from repro.casestudies import PRODUCER_CONSUMER_AADL
from repro.cli import _parse_predicate, build_parser, main


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "producer_consumer.aadl"
    path.write_text(PRODUCER_CONSUMER_AADL)
    return str(path)


class TestPredicateParsing:
    def test_operators_and_json_values(self):
        assert _parse_predicate("present>0") == ("present", ">", 0)
        assert _parse_predicate("status!=ok") == ("status", "!=", "ok")
        assert _parse_predicate("signal=acc") == ("signal", "==", "acc")
        assert _parse_predicate("scenario_id==3") == ("scenario_id", "==", 3)
        assert _parse_predicate('name=="3"') == ("name", "==", "3")

    def test_unparseable_predicate_exits(self):
        with pytest.raises(SystemExit):
            _parse_predicate("no-operator-here")


class TestSweepParser:
    def test_run_defaults(self, model_file, tmp_path):
        args = build_parser().parse_args(
            ["sweep", "run", model_file, "--out", str(tmp_path / "d")]
        )
        assert args.scenarios == 1000
        assert args.partition_size == 1024
        assert args.resume is False

    def test_format_flag_is_gone(self, model_file, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "run", model_file, "--out", str(tmp_path / "d"), "--format", "jsonl"]
            )

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestSweepCommands:
    def test_run_info_query_round_trip(self, model_file, tmp_path, capsys):
        out = str(tmp_path / "shards")
        code = main([
            "sweep", "run", model_file, "--out", out,
            "--scenarios", "10", "--partition-size", "4",
            "--length", "40",
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "10 scenario(s)" in printed
        assert "3 partition" in printed
        assert os.path.exists(os.path.join(out, "manifest.json"))

        assert main(["sweep", "info", out]) == 0
        info = capsys.readouterr().out
        assert "complete" in info
        assert "statistics" in info

        assert main([
            "sweep", "query", out,
            "--table", "scenarios",
            "--columns", "scenario_id,status",
            "--where", "status=ok",
            "--limit", "5",
        ]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert 0 < len(lines) <= 5
        for line in lines:
            row = json.loads(line)
            assert row["status"] == "ok"
            assert set(row) == {"scenario_id", "status"}

    def test_resume_of_finished_sweep(self, model_file, tmp_path, capsys):
        out = str(tmp_path / "shards")
        argv = [
            "sweep", "run", model_file, "--out", out,
            "--scenarios", "6", "--length", "20",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Without --resume the directory is refused...
        with pytest.raises(SystemExit):
            main(argv)
        # ...with it, the completed sweep is a cheap no-op.
        assert main(argv + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_query_statistics_table(self, model_file, tmp_path, capsys):
        out = str(tmp_path / "shards")
        assert main([
            "sweep", "run", model_file, "--out", out,
            "--scenarios", "4", "--length", "20",
        ]) == 0
        capsys.readouterr()
        assert main([
            "sweep", "query", out, "--table", "statistics",
            "--where", "present>0", "--limit", "3",
        ]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines
        assert all(json.loads(line)["present"] > 0 for line in lines)


class TestSweepRunBadInputs:
    """``sweep run`` into a directory whose manifest it may not extend is
    one ``error:`` line and exit code 2."""

    BAD_RUNS = {
        "existing-manifest-without-resume": ([], "already holds a manifest"),
        "resume-with-another-partition-size": (
            ["--partition-size", "2", "--resume"],
            "cannot resume sweep: manifest partition_size is 4",
        ),
        "resume-with-another-horizon": (
            ["--length", "30", "--resume"],
            "cannot resume sweep: manifest length is 20",
        ),
    }

    @pytest.mark.parametrize("bad_run", sorted(BAD_RUNS))
    def test_bad_run_is_a_clean_usage_error(self, bad_run, model_file, tmp_path, capsys):
        out = str(tmp_path / "shards")
        argv = [
            "sweep", "run", model_file, "--out", out, "--no-cache",
            "--scenarios", "6", "--partition-size", "4", "--length", "20",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        extra, message = self.BAD_RUNS[bad_run]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + extra)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


class TestSweepRunDeltas:
    def test_deltas_all_watches_every_recorded_signal(self, model_file, tmp_path):
        """``sweep run --deltas all`` means what ``simulate --deltas all``
        means: a change log over every recorded signal, row for row the one
        a batch with a watch-everything ``SinkSelection`` records."""
        from repro.cli import _toolchain
        from repro.sig.engine import simulate_batch
        from repro.sig.sinks import SinkSelection
        from repro.sweep import SweepResultStore, stimulus_space
        from repro.sweep.shards import delta_rows, dumps_json, encode_row

        out = tmp_path / "shards"
        argv = [
            "sweep", "run", model_file, "--out", str(out), "--no-cache",
            "--scenarios", "3", "--partition-size", "2", "--length", "20",
            "--deltas", "all",
        ]
        assert main(argv) == 0
        store = SweepResultStore(str(out))
        # The stored (encoded) rows, partition by partition.
        stored = [
            json.loads(line)
            for index in store.partitions()
            for line in (out / store.manifest["partitions"][str(index)]["files"]["deltas"])
            .read_text().splitlines()
        ]

        model = _toolchain(build_parser().parse_args(argv), simulate=False)
        model = model.translation.system_model
        space = stimulus_space(model, 3, seed=0, period_range=(2, 12))
        selection = SinkSelection(stats=True, deltas=True)
        batch = simulate_batch(
            model,
            [space.scenario(i) for i in range(3)],
            strict=False,
            sink_factory=selection,
            length=20,
        )
        expected = []
        for scenario_id, results in enumerate(batch.sink_results):
            log = selection.named(results)["deltas"]
            assert len(log.watched) == len(model.flatten().signals)
            expected.extend(
                json.loads(dumps_json(encode_row("deltas", row)))
                for row in delta_rows(scenario_id, log)
            )
        assert stored and stored == expected
        assert store.rows("deltas") == len(expected)
