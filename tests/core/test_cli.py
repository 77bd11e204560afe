"""Tests of the command-line interface (python -m repro …)."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys

import pytest

import repro

from repro.casestudies import PRODUCER_CONSUMER_AADL, catalog_names
from repro.cli import build_parser, main


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "producer_consumer.aadl"
    path.write_text(PRODUCER_CONSUMER_AADL)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyse_defaults(self, model_file):
        args = build_parser().parse_args(["analyse", model_file])
        assert args.policy == "RM"
        assert args.hyperperiods == 2
        assert args.root is None


class TestCommands:
    def test_schedule_command_prints_table(self, model_file, capsys):
        code = main(["schedule", model_file, "--affine"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hyper-period 24.0 ms" in out
        assert "thProducer" in out
        assert "Affine export" in out

    def test_schedule_with_edf_policy(self, model_file, capsys):
        assert main(["schedule", model_file, "--policy", "EDF"]) == 0
        assert "(EDF)" in capsys.readouterr().out

    def test_analyse_command_reports_clean_model(self, model_file, capsys):
        code = main(["analyse", model_file, "--hyperperiods", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Determinism report" in out
        assert "deadlock-free" in out

    def test_translate_command_writes_signal_sources(self, model_file, tmp_path, capsys):
        output = str(tmp_path / "sig")
        code = main(["translate", model_file, "-o", output])
        out = capsys.readouterr().out
        assert code == 0
        assert os.path.isdir(output)
        files = os.listdir(output)
        assert any(name.endswith(".sig") for name in files)
        assert "traceability links" in out

    def test_simulate_command_with_vcd(self, model_file, tmp_path, capsys):
        vcd = str(tmp_path / "trace.vcd")
        code = main(["simulate", model_file, "--hyperperiods", "1", "--vcd", vcd])
        out = capsys.readouterr().out
        assert code == 0
        assert os.path.exists(vcd)
        assert "deadline alarms: none" in out

    def test_simulate_stream_vcd_and_stats(self, model_file, tmp_path, capsys):
        stream = str(tmp_path / "stream.vcd")
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--stream-vcd", stream, "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert os.path.exists(stream)
        assert f"streaming VCD trace written to {stream}" in out
        assert "streamed statistics" in out
        assert "$enddefinitions $end" in open(stream).read()

    def test_simulate_no_trace_streams_only(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1", "--no-trace", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no trace materialised" in out
        assert "streamed statistics" in out
        # The alarm report survives --no-trace through the streaming sink.
        assert "deadline alarms: none" in out

    def test_simulate_no_trace_batch_streams_statistics(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--no-trace", "--batch", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "batch of 3 scenario(s)" in out
        assert "streamed" in out

    def test_simulate_no_trace_rejects_post_hoc_vcd(self, model_file, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", model_file, "--no-trace", "--vcd", str(tmp_path / "t.vcd")])
        assert exit_info.value.code == 2

    def test_simulate_vectorized_backend(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--backend", "vectorized", "--batch", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[vectorized backend]" in out
        assert "backend 'vectorized'" in out  # the --batch sweep uses it too

    def test_simulate_window_sink(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--no-trace", "--window", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "window: last 5 instant(s) retained" in out
        assert "deadline alarms: none" in out

    def test_simulate_delta_sink(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--no-trace", "--deltas", "tick,missing_signal"])
        out = capsys.readouterr().out
        assert code == 0
        assert "change log of" in out
        assert "tick" in out
        assert "missing_signal" not in out  # unknown names are ignored

    def test_simulate_delta_sink_watches_all(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--deltas", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "change instant(s) across" in out

    def test_simulate_scenario_length_sweep(self, model_file, capsys):
        code = main(["simulate", model_file, "--hyperperiods", "1",
                     "--no-trace", "--scenario-length", "16", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario-length sweep over 2 horizon(s)" in out
        assert "one symbolic scenario" in out
        assert "length         16: 16 instants streamed" in out
        assert "length         64: 64 instants streamed" in out

    def test_default_root_detection(self, model_file, capsys):
        # No --root: the first system implementation is used.
        assert main(["schedule", model_file]) == 0
        assert "thConsumer" in capsys.readouterr().out

    def test_builtin_case_study_alias(self, capsys):
        assert main(["schedule", "producer_consumer"]) == 0
        assert "thProdTimer" in capsys.readouterr().out

    def test_casestudy_list(self, capsys):
        assert main(["casestudy", "--list"]) == 0
        out = capsys.readouterr().out
        assert "producer_consumer" in out and "flight_guidance" in out

    def test_casestudy_detail(self, capsys):
        assert main(["casestudy", "producer_consumer"]) == 0
        out = capsys.readouterr().out
        assert "threads" in out and ": 4" in out

    def test_missing_root_error(self, tmp_path):
        path = tmp_path / "datatypes.aadl"
        path.write_text("package Empty\npublic\n  data d\n  end d;\nend Empty;\n")
        with pytest.raises(SystemExit):
            main(["schedule", str(path)])


class TestModelArgument:
    @pytest.mark.parametrize("name", catalog_names())
    def test_every_catalog_name_resolves(self, name, tmp_path, capsys):
        """``repro casestudy --list`` names work wherever a model path does,
        with the catalog entry's root when ``--root`` is absent."""
        output = str(tmp_path / "sig")
        code = main(["translate", name, "--no-scheduler", "--no-cache", "-o", output])
        assert code == 0
        assert "traceability links" in capsys.readouterr().out
        assert any(entry.endswith(".sig") for entry in os.listdir(output))

    @pytest.mark.parametrize("command", ["analyse", "schedule", "translate", "simulate"])
    def test_missing_model_file_is_a_clean_usage_error(self, command, tmp_path, capsys):
        missing = str(tmp_path / "absent.aadl")
        with pytest.raises(SystemExit) as exit_info:
            main([command, missing])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestBadInputs:
    """Every subcommand that runs the tool chain turns a model, root or
    policy it rejects into one ``error:`` line and exit code 2."""

    BAD_INPUTS = {
        # large_integration's thread set misses a deadline under RM.
        "unschedulable": (["large_integration"], "no static schedule"),
        "unknown-policy": (["producer_consumer", "--policy", "LIFO"], "unknown scheduling policy"),
        "unknown-root": (["producer_consumer", "--root", "Nope.impl"], "unknown component"),
        "syntax-error": (["{syntax_error}"], "{syntax_error}:5:1: expected ';'"),
        "no-system-implementation": (["{no_implementation}"], "no system implementation found"),
        # A periodic thread without a Period fails strict validation.
        "invalid-model": (
            ["{invalid_model}", "--root", "p.impl"],
            "AADL validation failed with 1 error(s), first: [error] p.w: "
            "Periodic thread has no Period",
        ),
    }

    @pytest.mark.parametrize("bad_input", sorted(BAD_INPUTS))
    @pytest.mark.parametrize(
        "command", [["analyse"], ["schedule"], ["translate"], ["simulate"], ["sweep", "run"]]
    )
    def test_bad_input_is_a_clean_usage_error(self, command, bad_input, tmp_path, capsys):
        syntax_error = tmp_path / "truncated.aadl"
        syntax_error.write_text("package P\npublic\n  system s\n  end s\n")
        no_implementation = tmp_path / "no_implementation.aadl"
        no_implementation.write_text("package P\npublic\n  system s\n  end s;\nend P;\n")
        invalid_model = tmp_path / "invalid_model.aadl"
        invalid_model.write_text(
            "package Bad\npublic\n"
            "  thread t\n  properties\n    Dispatch_Protocol => Periodic;\n  end t;\n"
            "  thread implementation t.impl\n  end t.impl;\n"
            "  process p\n  end p;\n"
            "  process implementation p.impl\n  subcomponents\n    w: thread t.impl;\n"
            "  end p.impl;\nend Bad;\n"
        )
        paths = {
            "syntax_error": syntax_error,
            "no_implementation": no_implementation,
            "invalid_model": invalid_model,
        }
        model_args, message = self.BAD_INPUTS[bad_input]
        model_args = [arg.format(**paths) for arg in model_args]
        message = message.format(**paths)
        argv = command + model_args + ["--no-cache"]
        if command == ["translate"]:
            argv += ["-o", str(tmp_path / "sig")]
        if command == ["sweep", "run"]:
            argv += ["--out", str(tmp_path / "sweep")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


class TestBadNumericArguments:
    """A numeric flag out of its range is one ``error:`` line and exit code
    2, before any model is loaded or any store is written."""

    NEGATIVE = "expected a non-negative integer"
    POSITIVE = "expected a positive integer"
    SECONDS = "expected a positive, finite number of seconds"

    BAD_ARGUMENTS = {
        "analyse-negative-hyperperiods": (["analyse", "--hyperperiods", "-1"], NEGATIVE),
        "simulate-zero-hyperperiods": (["simulate", "--hyperperiods", "0"], POSITIVE),
        "simulate-negative-batch": (["simulate", "--batch", "-3"], NEGATIVE),
        "simulate-negative-workers": (["simulate", "--workers", "-2"], NEGATIVE),
        "simulate-negative-timeout": (["simulate", "--timeout", "-1"], SECONDS),
        "simulate-zero-timeout": (["simulate", "--timeout", "0"], SECONDS),
        "simulate-nan-timeout": (["simulate", "--timeout", "nan"], SECONDS),
        "simulate-infinite-timeout": (["simulate", "--timeout", "inf"], SECONDS),
        "simulate-negative-retries": (["simulate", "--retries", "-1"], NEGATIVE),
        "simulate-non-integer-batch": (["simulate", "--batch", "two"], NEGATIVE),
        "sweep-negative-scenarios": (["sweep", "run", "--scenarios", "-2"], NEGATIVE),
        "sweep-zero-partition-size": (["sweep", "run", "--partition-size", "0"], POSITIVE),
        "sweep-negative-length": (["sweep", "run", "--length", "-4"], NEGATIVE),
        "sweep-zero-min-period": (["sweep", "run", "--min-period", "0"], POSITIVE),
        "sweep-inverted-periods": (
            ["sweep", "run", "--min-period", "9", "--max-period", "3"],
            "--min-period 9 exceeds --max-period 3",
        ),
        "sweep-negative-workers": (["sweep", "run", "--workers", "-2"], NEGATIVE),
        "sweep-negative-timeout": (["sweep", "run", "--timeout", "-1"], SECONDS),
        "sweep-nan-timeout": (["sweep", "run", "--timeout", "nan"], SECONDS),
    }

    @pytest.mark.parametrize("bad_argument", sorted(BAD_ARGUMENTS))
    def test_bad_numeric_argument_is_a_clean_usage_error(self, bad_argument, tmp_path, capsys):
        argv, message = self.BAD_ARGUMENTS[bad_argument]
        out = tmp_path / "sweep"
        words = 2 if argv[0] == "sweep" else 1  # the subcommand itself
        argv = argv[:words] + ["producer_consumer", "--no-cache"] + argv[words:]
        if argv[0] == "sweep":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()


class TestSweepStoreBadInputs:
    """``sweep info`` and ``sweep query`` turn a directory that holds no
    readable sweep store, or an unparsable ``--where``, into one ``error:``
    line and exit code 2."""

    BAD_STORES = {
        "missing-directory": (None, "holds no sweep manifest"),
        "no-manifest": ("", "holds no sweep manifest"),
        "corrupt-manifest": ("{", "cannot open sweep store: Expecting"),
        "other-shard-format": (
            '{"version": 1, "shard_format": "parquet"}',
            "names shard format 'parquet'; this build reads only 'jsonl' shards",
        ),
    }

    @staticmethod
    def _run(argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("bad_store", sorted(BAD_STORES))
    @pytest.mark.parametrize("command", ["info", "query"])
    def test_unreadable_store_is_a_clean_usage_error(self, command, bad_store, tmp_path, capsys):
        manifest, message = self.BAD_STORES[bad_store]
        directory = tmp_path / "sweep"
        if manifest is not None:
            directory.mkdir()
            if manifest:
                (directory / "manifest.json").write_text(manifest)
        err = self._run(["sweep", command, str(directory)], capsys)
        assert err.startswith("error: ") and message in err

    def test_unparsable_where_is_a_clean_usage_error(self, tmp_path, capsys):
        err = self._run(["sweep", "query", str(tmp_path), "--where", "status"], capsys)
        assert err.startswith("error: cannot parse --where clause 'status'")


class TestCacheBadInputs:
    """``repro cache`` turns a cache directory that is a regular file, or a
    negative prune budget, into one ``error:`` line and exit code 2."""

    BAD_CACHES = {
        "dir-is-a-file": (["--dir", "{regular_file}", "stats"], "is not a directory"),
        "dir-is-a-file-clear": (["--dir", "{regular_file}", "clear"], "is not a directory"),
        "negative-budget": (
            ["--dir", "{cache_dir}", "prune", "--max-size-mb", "-3"],
            "--max-size-mb must be non-negative, got -3",
        ),
        "nan-budget": (
            ["--dir", "{cache_dir}", "prune", "--max-size-mb", "nan"],
            "--max-size-mb must be non-negative",
        ),
    }

    @pytest.mark.parametrize("bad_cache", sorted(BAD_CACHES))
    def test_bad_cache_is_a_clean_usage_error(self, bad_cache, tmp_path, capsys):
        regular_file = tmp_path / "not-a-dir"
        regular_file.write_text("x")
        args, message = self.BAD_CACHES[bad_cache]
        argv = ["cache"] + [
            arg.format(regular_file=regular_file, cache_dir=tmp_path / "cache") for arg in args
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert regular_file.read_text() == "x"


class TestServeBadInputs:
    """``repro serve`` turns a cache capacity or concurrency limit below 1,
    a port outside 0..65535, or an address already in use into one
    ``error:`` line and exit code 2."""

    BAD_SERVES = {
        "zero-cache-capacity": (["--cache-capacity", "0"], "--cache-capacity must be at least 1, got 0"),
        "zero-max-concurrent": (["--max-concurrent", "0"], "--max-concurrent must be at least 1, got 0"),
        "negative-max-concurrent": (["--max-concurrent", "-2"], "--max-concurrent must be at least 1, got -2"),
        "negative-port": (["--port", "-1"], "--port must be in 0..65535, got -1"),
        "port-too-large": (["--port", "65536"], "--port must be in 0..65535, got 65536"),
        "address-in-use": (["--port", "{busy_port}"], "cannot listen on 127.0.0.1:{busy_port}"),
    }

    @pytest.mark.parametrize("bad_serve", sorted(BAD_SERVES))
    def test_bad_serve_is_a_clean_usage_error(self, bad_serve, capsys):
        args, message = self.BAD_SERVES[bad_serve]
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            busy_port = busy.getsockname()[1]
            argv = ["serve", "--host", "127.0.0.1", "--no-cache"]
            argv += [arg.format(busy_port=busy_port) for arg in args]
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(busy_port=busy_port))
        assert len(captured.err.strip().splitlines()) == 1


def test_serve_smoke_over_a_real_socket():
    """``repro serve --port 0`` reports its bound port, answers /healthz,
    and exits 0 on Ctrl-C."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-cache"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert line.startswith("serving on http://127.0.0.1:"), line
        host, port = line.split("//")[1].strip().rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"ok": True}
        finally:
            connection.close()
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
