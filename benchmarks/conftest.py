"""Shared fixtures of the benchmark harness.

Each benchmark module regenerates one artefact of the paper (figure, claim or
comparison) and measures the corresponding pipeline stage with
pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

Every measurement is stamped with the simulation backend in effect
(``extra_info["backend"]``), so the perf trajectory recorded in the
``BENCH_*.json`` files stays attributable when the default backend changes
across PRs.  Benchmarks that explicitly pick a backend overwrite the stamp;
everything else inherits :data:`repro.sig.engine.DEFAULT_BACKEND`, which is
what ``run_toolchain`` simulates with when no backend is chosen.
"""

import json
import os
import platform
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.casestudies import PRODUCER_CONSUMER_AADL, instantiate_producer_consumer, load_producer_consumer_model
from repro.core import ToolchainOptions, run_toolchain, translate_system
from repro.scheduling import task_set_from_instance
from repro.sig.engine import DEFAULT_BACKEND

#: Environment variable naming the file the E10 measurements are merged
#: into (the committed trajectory is ``BENCH_e10.json`` at the repo root).
#: Unset (or ``off``) means nothing is written, so an ordinary test run
#: never touches a tracked file; the CI benchmark job sets it.
BENCH_E10_JSON_VARIABLE = "REPRO_BENCH_E10_JSON"


class BenchE10Recorder:
    """Collects per-config wall-clock measurements during a benchmark session
    and merges them into the file ``REPRO_BENCH_E10_JSON`` names when the
    session ends (nothing is written when it is unset)."""

    def __init__(self) -> None:
        self.measurements = {}

    @staticmethod
    def _environment():
        # Environment travels with each entry: merged measurements may come
        # from different machines/sessions, so a file-wide stamp would
        # misattribute them.
        return {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count() or 1,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }

    def record(self, key, *, before_seconds, after_seconds, backend, workers=1, **extra):
        """Record one before/after measurement (seconds of wall-clock)."""
        entry = {
            "before_seconds": round(before_seconds, 4),
            "after_seconds": round(after_seconds, 4),
            "speedup": round(before_seconds / max(after_seconds, 1e-9), 2),
            "backend": backend,
            "workers": workers,
            "environment": self._environment(),
        }
        entry.update(extra)
        self.measurements[key] = entry

    def record_memory(self, key, *, before_bytes, after_bytes, backend, workers=1, **extra):
        """Record one before/after *memory* measurement (bytes of peak
        allocation), kept schema-distinct from the wall-clock entries:
        ``before_mib``/``after_mib``/``memory_ratio`` instead of
        ``*_seconds``/``speedup``, so consumers cannot misread a memory
        ratio as a wall-clock speedup."""
        entry = {
            "before_mib": round(before_bytes / 1048576.0, 4),
            "after_mib": round(after_bytes / 1048576.0, 4),
            "memory_ratio": round(before_bytes / max(after_bytes, 1), 2),
            "backend": backend,
            "workers": workers,
            "environment": self._environment(),
        }
        entry.update(extra)
        self.measurements[key] = entry

    def flush(self, session_config=None) -> None:
        path = os.environ.get(BENCH_E10_JSON_VARIABLE, "")
        if not self.measurements or not path or path.lower() == "off":
            return
        # Quick-mode sessions (--benchmark-disable: the tier-1 CI jobs) run
        # the recording tests as plain tests; their timings are not
        # measurements, so they must not churn the committed trajectory.
        if session_config is not None:
            try:
                if session_config.getoption("benchmark_disable"):
                    return
            except (ValueError, KeyError):
                pass
        document = {}
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except (OSError, ValueError):
                document = {}
        document.setdefault("measurements", {}).update(self.measurements)
        document.pop("environment", None)  # superseded by per-entry stamps
        # Fold in pytest-benchmark's own statistics when a timed session ran,
        # so ``--benchmark-json`` CI runs and this file stay consistent.
        bench_session = getattr(session_config, "_benchmarksession", None) if session_config else None
        if bench_session is not None and getattr(bench_session, "benchmarks", None):
            stamped = {}
            for bench in bench_session.benchmarks:
                try:
                    stats = bench.stats
                    mean = getattr(stats, "mean", None)
                    if mean is None and hasattr(stats, "stats"):
                        mean = stats.stats.mean
                    if mean is None:
                        continue
                    stamped[bench.name] = {
                        "mean_seconds": round(mean, 4),
                        "rounds": getattr(stats, "rounds", None),
                        "extra_info": dict(getattr(bench, "extra_info", {}) or {}),
                    }
                except Exception:
                    continue
            if stamped:
                document["pytest_benchmark"] = stamped
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")


_RECORDER = BenchE10Recorder()


@pytest.fixture(scope="session")
def bench_e10():
    """Session-wide recorder for the persisted E10 measurements."""
    return _RECORDER


def pytest_sessionfinish(session, exitstatus):
    _RECORDER.flush(session.config)


@pytest.fixture(autouse=True)
def _attribute_backend(request):
    """Record which simulation backend produced each measurement."""
    if "benchmark" in request.fixturenames:
        benchmark = request.getfixturevalue("benchmark")
        benchmark.extra_info.setdefault("backend", DEFAULT_BACKEND)
    yield


@pytest.fixture(scope="session")
def pc_model():
    return load_producer_consumer_model()


@pytest.fixture(scope="session")
def pc_root(pc_model):
    return instantiate_producer_consumer(pc_model)


@pytest.fixture(scope="session")
def pc_task_set(pc_root):
    return task_set_from_instance(pc_root, ["prProdCons"])


@pytest.fixture(scope="session")
def pc_translation(pc_root):
    return translate_system(pc_root)


@pytest.fixture(scope="session")
def pc_toolchain():
    options = ToolchainOptions(
        root_implementation="ProducerConsumerSystem.others",
        default_package="ProducerConsumer",
        simulate_hyperperiods=2,
        stimuli_periods={"sysEnv_pProdStart_stimulus": 4, "sysEnv_pConsStart_stimulus": 6},
    )
    return run_toolchain(PRODUCER_CONSUMER_AADL, options)
