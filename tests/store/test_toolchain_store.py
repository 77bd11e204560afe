"""Persistent warm starts through :func:`run_toolchain` and the CLI.

The store contract at the toolchain level: a warm restore is
**behaviourally invisible** — identical reports, identical traces,
identical CLI output — and every corruption/mismatch path silently falls
back to a cold run that republishes the artifact.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.casestudies import PRODUCER_CONSUMER_AADL
from repro.cli import main
from repro.core import ToolchainOptions, TranslationConfig, run_toolchain
from repro.core.translator import TranslationConfig as _TranslationConfig
from repro.sig.calculus_modular import ExtractionCache, ModularClockCalculus
from repro.store import (
    KIND_INDEX,
    KIND_TOOLCHAIN,
    ArtifactStore,
    toolchain_options_key,
)

ROOT = "ProducerConsumerSystem.others"
PACKAGE = "ProducerConsumer"
STIMULI = {"sysEnv_pProdStart_stimulus": 4, "sysEnv_pConsStart_stimulus": 6}


def _options(store, **overrides):
    base = dict(
        root_implementation=ROOT,
        default_package=PACKAGE,
        simulate_hyperperiods=2,
        stimuli_periods=dict(STIMULI),
        store=store,
    )
    base.update(overrides)
    return ToolchainOptions(**base)


def _assert_equivalent(cold, warm):
    assert cold.clock_report.summary() == warm.clock_report.summary()
    assert cold.determinism.deterministic == warm.determinism.deterministic
    assert cold.deadlocks.deadlock_free == warm.deadlocks.deadlock_free
    assert sorted(cold.schedulability) == sorted(warm.schedulability)
    for name in cold.schedulability:
        assert (
            cold.schedulability[name].summary()
            == warm.schedulability[name].summary()
        )
    assert cold.summary() == warm.summary()
    assert cold.trace is not None and warm.trace is not None
    assert cold.trace.length == warm.trace.length
    assert cold.trace.flows == warm.trace.flows


# ----------------------------------------------------------------------
# warm restores are bit-identical
# ----------------------------------------------------------------------
def test_warm_restore_is_equivalent_across_store_instances(tmp_path):
    root = str(tmp_path / "cache")
    cold = run_toolchain(PRODUCER_CONSUMER_AADL, _options(ArtifactStore(root)))
    assert cold.store_hit is False
    assert cold.store_fingerprint
    assert cold.calculus_stats is not None

    # A fresh store instance over the same directory models a new process.
    warm = run_toolchain(PRODUCER_CONSUMER_AADL, _options(ArtifactStore(root)))
    assert warm.store_hit is True
    assert warm.store_fingerprint == cold.store_fingerprint
    assert warm.calculus_stats is None  # no calculus ran at all
    _assert_equivalent(cold, warm)


def test_textual_fast_path_and_structural_convergence(tmp_path):
    store = ArtifactStore(str(tmp_path))
    run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    # Byte-identical source: the raw index maps straight to the payload.
    index_entries = store.stats()["kinds"].get(KIND_INDEX, {"entries": 0})
    assert index_entries["entries"] == 1
    warm = run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    assert warm.store_hit is True
    # Reformatted but structurally identical source converges through the
    # canonical rendering on the same fingerprint.
    reformatted = PRODUCER_CONSUMER_AADL.replace("\n", "\n  ").replace("  ", " \t ")
    rewarm = run_toolchain(reformatted, _options(store))
    assert rewarm.store_hit is True
    assert rewarm.store_fingerprint == warm.store_fingerprint


def test_declarative_model_input_warm_starts(tmp_path, pc_model):
    store = ArtifactStore(str(tmp_path))
    cold = run_toolchain(pc_model, _options(store))
    assert cold.store_hit is False
    warm = run_toolchain(pc_model, _options(store))
    assert warm.store_hit is True
    _assert_equivalent(cold, warm)


def test_options_split_the_fingerprint(tmp_path):
    store = ArtifactStore(str(tmp_path))
    scheduled = run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    unscheduled = run_toolchain(
        PRODUCER_CONSUMER_AADL,
        _options(store, translation=TranslationConfig(include_scheduler=False)),
    )
    # Different analysis options must never share an artifact.
    assert unscheduled.store_hit is False
    assert unscheduled.store_fingerprint != scheduled.store_fingerprint


def test_no_store_runs_stay_self_contained(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
    result = run_toolchain(PRODUCER_CONSUMER_AADL, _options(None))
    assert result.store_hit is False
    assert result.store_fingerprint == ""
    assert not os.path.exists(str(tmp_path / "never"))


def test_cache_disable_env_silences_default_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "disabled"))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    result = run_toolchain(PRODUCER_CONSUMER_AADL, _options(True))
    assert result.store_hit is False
    assert not os.path.exists(str(tmp_path / "disabled"))


def test_unkeyable_options_bypass_the_store():
    options = _options(True)
    options.translation = _TranslationConfig()
    options.translation.thread_behaviours = {"thread": object()}
    assert toolchain_options_key(options) is None


# ----------------------------------------------------------------------
# corruption: silent recompute + republish
# ----------------------------------------------------------------------
def test_corrupt_toolchain_artifact_recomputes_and_overwrites(tmp_path):
    store = ArtifactStore(str(tmp_path))
    cold = run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    path = store.path_for(KIND_TOOLCHAIN, cold.store_fingerprint)
    with open(path, "wb") as handle:
        handle.write(b"not an artifact at all")

    recovered = run_toolchain(PRODUCER_CONSUMER_AADL, _options(ArtifactStore(str(tmp_path))))
    assert recovered.store_hit is False  # silently recomputed
    _assert_equivalent(cold, recovered)

    warm = run_toolchain(PRODUCER_CONSUMER_AADL, _options(ArtifactStore(str(tmp_path))))
    assert warm.store_hit is True  # ...and republished


def test_malformed_payload_dict_recomputes(tmp_path):
    import pickle

    store = ArtifactStore(str(tmp_path))
    cold = run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    # A well-stamped artifact whose payload is not a toolchain dict at all:
    # the unpickle succeeds, the restore must still fall back cleanly.
    store.save(KIND_TOOLCHAIN, cold.store_fingerprint, {"wrong": "shape"})
    recovered = run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    assert recovered.store_hit is False
    _assert_equivalent(cold, recovered)


# ----------------------------------------------------------------------
# what a cold run persists: the analysis payload and its index, nothing else
# ----------------------------------------------------------------------
def test_cold_run_writes_only_toolchain_and_index_kinds(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    cold = run_toolchain(PRODUCER_CONSUMER_AADL, _options(store))
    assert cold.store_hit is False
    kinds = store.stats()["kinds"]
    assert sorted(kinds) == sorted([KIND_TOOLCHAIN, KIND_INDEX])
    assert kinds[KIND_TOOLCHAIN]["entries"] == 1
    assert kinds[KIND_INDEX]["entries"] == 1
    assert store.writes == 2


def test_extraction_counters_without_store_unchanged(pc_translation):
    cache = ExtractionCache()
    calculus = ModularClockCalculus(pc_translation.system_model, cache=cache)
    calculus.run()
    assert calculus.stats.extraction_misses == cache.misses > 0
    assert calculus.stats.extraction_hits == cache.hits
    assert not hasattr(cache, "disk_hits") and not hasattr(cache, "store")
    assert "disk" not in calculus.stats.summary()
    # A second run over the same cache computes nothing new.
    again = ModularClockCalculus(pc_translation.system_model, cache=cache)
    again.run()
    assert again.stats.extraction_misses == 0


# ----------------------------------------------------------------------
# CLI plumbing: --no-cache, warm-start line, the cache subcommand
# ----------------------------------------------------------------------
def test_cli_simulate_warm_start_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
    assert main(["simulate", "producer_consumer"]) == 0
    first = capsys.readouterr().out
    assert "warm start" not in first

    assert main(["simulate", "producer_consumer"]) == 0
    second = capsys.readouterr().out
    assert "warm start: analyses restored from the persistent cache" in second
    # Identical user-visible simulation output, warm line aside.
    assert [
        line for line in second.splitlines() if not line.startswith("warm start")
    ] == first.splitlines()


def test_cli_no_cache_bypasses_the_store(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
    for _ in range(2):
        assert main(["simulate", "producer_consumer", "--no-cache"]) == 0
        assert "warm start" not in capsys.readouterr().out
    assert not os.path.exists(str(tmp_path / "cli"))


def test_cli_plan_stats_reports_extraction_counters(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
    assert main(["simulate", "producer_consumer", "--plan-stats"]) == 0
    cold = capsys.readouterr().out
    assert "modular clock calculus:" in cold
    assert "extraction(s) computed" in cold and "memo hit(s)" in cold
    assert main(["simulate", "producer_consumer", "--plan-stats"]) == 0
    warm = capsys.readouterr().out
    assert "clock calculus skipped: analyses restored" in warm


def test_cli_cache_stats_clear_prune(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
    assert main(["simulate", "producer_consumer"]) == 0
    capsys.readouterr()

    assert main(["cache", "stats"]) == 0
    stats = capsys.readouterr().out
    assert "toolchain" in stats and "extraction" not in stats

    assert main(["cache", "prune", "--max-size-mb", "0"]) == 0
    assert "pruned" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    assert "entries : 0" in capsys.readouterr().out

    assert main(["simulate", "producer_consumer"]) == 0
    capsys.readouterr()
    assert main(["cache", "clear"]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    assert "entries : 0" in capsys.readouterr().out


def test_cli_cache_dir_flag_overrides_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert main(["simulate", "producer_consumer"]) == 0
    capsys.readouterr()
    assert main(["cache", "--dir", str(tmp_path / "elsewhere"), "stats"]) == 0
    assert "entries : 0" in capsys.readouterr().out


def test_cli_warm_start_across_real_processes(tmp_path):
    """The actual E19 claim at smoke scale: two OS processes, one cache."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "x"), PYTHONPATH=src)
    command = [sys.executable, "-m", "repro", "simulate", "producer_consumer"]
    first = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=120
    )
    assert first.returncode == 0, first.stderr
    assert "warm start" not in first.stdout
    second = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=120
    )
    assert second.returncode == 0, second.stderr
    assert "warm start: analyses restored from the persistent cache" in second.stdout


def test_store_on_run_does_not_import_the_serving_layer_or_cli(tmp_path):
    """A store-on run_toolchain keys its artifacts without repro.serve or repro.cli."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys\n"
        "from repro.casestudies import PRODUCER_CONSUMER_AADL\n"
        "from repro.core import ToolchainOptions, run_toolchain\n"
        "from repro.store import ArtifactStore\n"
        f"store = ArtifactStore({str(tmp_path / 'store')!r})\n"
        "run_toolchain(PRODUCER_CONSUMER_AADL, ToolchainOptions(\n"
        f"    root_implementation={ROOT!r}, default_package={PACKAGE!r},\n"
        "    simulate_hyperperiods=1, store=store))\n"
        "assert store.stats()['entries'] > 0, store.stats()\n"
        "leaked = [m for m in ('repro.serve', 'repro.cli') if m in sys.modules]\n"
        "assert not leaked, leaked\n"
        "print('clean')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "clean" in result.stdout
