"""The E10 recorder writes the trajectory file only when asked to.

Running the benchmark suite as part of an ordinary test run must leave the
working tree untouched: ``BenchE10Recorder.flush`` persists measurements
only into the file the ``REPRO_BENCH_E10_JSON`` environment variable names.
"""

import os


def _fresh_recorder(bench_e10):
    recorder = type(bench_e10)()
    recorder.record("probe", before_seconds=2.0, after_seconds=1.0, backend="compiled")
    return recorder


def test_flush_without_the_variable_writes_nothing(bench_e10, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_E10_JSON", raising=False)
    monkeypatch.chdir(tmp_path)
    tracked = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_e10.json")
    before = os.stat(tracked).st_mtime_ns if os.path.exists(tracked) else None

    _fresh_recorder(bench_e10).flush()

    assert os.listdir(tmp_path) == []
    after = os.stat(tracked).st_mtime_ns if os.path.exists(tracked) else None
    assert after == before


def test_flush_writes_where_the_variable_points(bench_e10, tmp_path, monkeypatch):
    target = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_E10_JSON", str(target))

    _fresh_recorder(bench_e10).flush()

    assert '"probe"' in target.read_text()
