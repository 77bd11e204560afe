"""The artifact store's core contract: stamped, crash-tolerant, bounded.

Every failure mode of a cache directory — corruption, truncation, version
skew, concurrent writers, unwritable paths — must degrade to a miss (and a
recompute by the caller), never to an exception or a wrong artifact.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.store import (
    SCHEMA_REV,
    ArtifactStore,
    default_cache_dir,
    default_store,
    resolve_store,
)
from repro.store.artifacts import _MAGIC


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


# ----------------------------------------------------------------------
# round trips and counters
# ----------------------------------------------------------------------
def test_round_trip(store):
    artifact = {"plan": list(range(100)), "name": "x"}
    assert store.save("toolchain", "ab" * 32, artifact) is True
    assert store.load("toolchain", "ab" * 32) == artifact
    assert (store.hits, store.misses, store.writes) == (1, 0, 1)


def test_missing_key_misses(store):
    assert store.load("toolchain", "cd" * 32) is None
    assert (store.hits, store.misses) == (0, 1)


def test_layout_shards_by_key_prefix(store):
    store.save("kindx", "abcdef", 1)
    assert os.path.exists(os.path.join(store.root, "kindx", "ab", "abcdef.pkl"))


def test_hit_bumps_mtime_for_lru(store):
    store.save("k", "aa", 1)
    path = store.path_for("k", "aa")
    os.utime(path, (1, 1))
    store.load("k", "aa")
    assert os.stat(path).st_mtime > 1


def test_invalid_keys_rejected(store):
    for key in ("", "../evil", "a/b", f"x{os.sep}y"):
        with pytest.raises(ValueError):
            store.path_for("kind", key)


def test_delete_and_clear(store):
    store.save("k", "aa", 1)
    store.save("k", "bb", 2)
    assert store.delete("k", "aa") is True
    assert store.delete("k", "aa") is False
    assert store.clear() == 1
    assert store.load("k", "bb") is None


# ----------------------------------------------------------------------
# version stamps: skew misses, never deserialises
# ----------------------------------------------------------------------
def _rewrite_stamp(store, kind, key, mutate):
    path = store.path_for(kind, key)
    with open(path, "rb") as handle:
        data = handle.read()
    body = data[len(_MAGIC):]
    newline = body.index(b"\n")
    stamp = json.loads(body[:newline])
    mutate(stamp)
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(json.dumps(stamp, sort_keys=True).encode("utf-8") + b"\n")
        handle.write(body[newline + 1:])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda stamp: stamp.update(schema=SCHEMA_REV + 1),
        lambda stamp: stamp.update(repro="0.0.0"),
        lambda stamp: stamp.update(python="2.7"),
    ],
    ids=["schema", "repro-version", "python-version"],
)
def test_stamp_mismatch_misses_and_removes(store, mutate):
    store.save("k", "aa", {"payload": 1})
    _rewrite_stamp(store, "k", "aa", mutate)
    assert store.load("k", "aa") is None
    assert store.stale == 1
    assert not os.path.exists(store.path_for("k", "aa"))
    # The caller's recompute overwrites cleanly.
    store.save("k", "aa", {"payload": 2})
    assert store.load("k", "aa") == {"payload": 2}


# ----------------------------------------------------------------------
# corruption: silent miss + removal, never an exception
# ----------------------------------------------------------------------
def _corrupt(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


@pytest.mark.parametrize(
    "corruption",
    [
        b"",  # empty file
        b"garbage",  # not an artifact at all
        _MAGIC,  # magic but no stamp
        _MAGIC + b"not-json\n" + b"xx",  # unparseable stamp
    ],
    ids=["empty", "garbage", "no-stamp", "bad-stamp"],
)
def test_corrupt_artifact_misses_and_removes(store, corruption):
    store.save("k", "aa", [1, 2, 3])
    path = store.path_for("k", "aa")
    _corrupt(path, corruption)
    assert store.load("k", "aa") is None
    assert store.corrupt == 1
    assert not os.path.exists(path)


def test_truncated_payload_misses(store):
    store.save("k", "aa", list(range(1000)))
    path = store.path_for("k", "aa")
    with open(path, "rb") as handle:
        data = handle.read()
    _corrupt(path, data[: len(data) - len(data) // 3])
    assert store.load("k", "aa") is None
    assert store.corrupt == 1


def test_artifact_path_is_directory(store):
    # A directory squatting on the artifact path: load treats it as corrupt
    # (removal is best-effort and fails silently), save counts a write error.
    path = store.path_for("k", "aa")
    os.makedirs(path)
    assert store.load("k", "aa") is None
    assert store.corrupt == 1
    assert store.save("k", "aa", 1) is False
    assert store.write_errors == 1


def test_unpicklable_artifact_counts_write_error(store):
    assert store.save("k", "aa", lambda x: x) is False
    assert store.write_errors == 1
    assert store.load("k", "aa") is None


# ----------------------------------------------------------------------
# pruning: LRU by mtime, size-capped
# ----------------------------------------------------------------------
def test_prune_evicts_least_recently_used_first(store):
    payload = os.urandom(4096)
    for index, key in enumerate(["aa", "bb", "cc", "dd"]):
        store.save("k", key, payload)
        os.utime(store.path_for("k", key), (index + 1, index + 1))
    # "cc" becomes the most recently used despite its older write.
    store.load("k", "cc")
    removed = store.prune(max_size_mb=2 * 4200 / (1024.0 * 1024.0))
    assert removed == 2
    assert not os.path.exists(store.path_for("k", "aa"))
    assert not os.path.exists(store.path_for("k", "bb"))
    assert os.path.exists(store.path_for("k", "cc"))
    assert os.path.exists(store.path_for("k", "dd"))
    # A store filled well past a budget prunes back under it.
    for index in range(30):
        store.save("k", f"{index:02d}key", payload)
    store.prune(max_size_mb=10 * 4200 / (1024.0 * 1024.0))
    assert store.stats()["entries"] <= 10


def test_prune_to_zero_clears_everything(store):
    store.save("k", "aa", 1)
    store.save("j", "bb", 2)
    assert store.prune(0) == 2
    assert store.stats()["entries"] == 0


def test_stats_census(store):
    store.save("toolchain", "aa", 1)
    store.save("index", "bb", 2)
    store.save("index", "cc", 3)
    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["kinds"]["index"]["entries"] == 2
    assert stats["kinds"]["toolchain"]["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["root"] == store.root


# ----------------------------------------------------------------------
# resolution: env plumbing and settings coercion
# ----------------------------------------------------------------------
def test_default_cache_dir_prefers_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
    assert default_cache_dir() == str(tmp_path / "explicit")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == str(tmp_path / "xdg" / "repro")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert default_cache_dir().endswith(os.path.join(".cache", "repro"))


def test_resolve_store_settings(monkeypatch, tmp_path):
    assert resolve_store(None) is None
    assert resolve_store(False) is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    resolved = resolve_store(True)
    assert isinstance(resolved, ArtifactStore)
    assert resolved.root == str(tmp_path)
    assert default_store().root == str(tmp_path)
    explicit = ArtifactStore(str(tmp_path / "own"))
    assert resolve_store(explicit) is explicit
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert resolve_store(True) is None  # one env var silences every cache user
    assert resolve_store(explicit) is explicit  # explicit instances still win
    with pytest.raises(TypeError):
        resolve_store("~/.cache/repro")


# ----------------------------------------------------------------------
# default root safety: the store unpickles, so it must own its directory
# ----------------------------------------------------------------------
def test_missing_default_root_is_created_private(monkeypatch, tmp_path):
    root = tmp_path / "fresh" / "repro"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    resolved = resolve_store(True)
    assert isinstance(resolved, ArtifactStore) and resolved.root == str(root)
    assert os.stat(root).st_mode & 0o777 == 0o700


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777, 0o720, 0o702])
def test_group_or_world_writable_default_root_disables_the_store(monkeypatch, tmp_path, mode):
    root = tmp_path / "shared"
    root.mkdir()
    ArtifactStore(str(root)).save("toolchain", "ab" * 32, {"planted": True})
    os.chmod(root, mode)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    with pytest.warns(RuntimeWarning) as caught:
        assert resolve_store(True) is None
    assert len(caught) == 1
    message = str(caught[0].message)
    assert str(root) in message and "writable by group or others" in message
    os.chmod(root, 0o700)
    assert isinstance(resolve_store(True), ArtifactStore)


def test_default_root_owned_by_another_user_disables_the_store(monkeypatch, tmp_path):
    root = tmp_path / "theirs"
    root.mkdir(mode=0o700)
    os.chmod(root, 0o700)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    other_uid = os.stat(root).st_uid + 1
    monkeypatch.setattr(os, "getuid", lambda: other_uid)
    with pytest.warns(RuntimeWarning, match="is owned by another user") as caught:
        assert resolve_store(True) is None
    assert len(caught) == 1 and str(root) in str(caught[0].message)


def test_default_root_that_is_a_file_disables_the_store(monkeypatch, tmp_path):
    root = tmp_path / "file"
    root.write_text("x")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    with pytest.warns(RuntimeWarning, match="is not a directory"):
        assert resolve_store(True) is None


def test_explicit_store_root_is_the_callers_choice(monkeypatch, tmp_path):
    root = tmp_path / "shared"
    root.mkdir()
    os.chmod(root, 0o777)
    explicit = ArtifactStore(str(root))
    assert resolve_store(explicit) is explicit
    assert explicit.save("toolchain", "ab" * 32, 1) is True
    assert explicit.load("toolchain", "ab" * 32) == 1
    os.chmod(root, 0o700)


# ----------------------------------------------------------------------
# concurrency: a thread storm over one directory
# ----------------------------------------------------------------------
def test_concurrent_writers_and_readers_one_store_dir(tmp_path):
    """Many threads, several store instances, one directory: every load is
    either a miss or a complete, correct artifact — no torn reads, no raise."""
    root = str(tmp_path / "shared")
    keys = [f"{index:02d}" + "e" * 6 for index in range(8)]
    payloads = {key: {"key": key, "data": list(range(256))} for key in keys}
    stores = [ArtifactStore(root) for _ in range(4)]
    errors = []
    barrier = threading.Barrier(8)

    def worker(store):
        try:
            barrier.wait()
            for _round in range(20):
                for key in keys:
                    loaded = store.load("k", key)
                    assert loaded is None or loaded == payloads[key], loaded
                    store.save("k", key, payloads[key])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(stores[index % len(stores)],))
        for index in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    final = ArtifactStore(root)
    for key in keys:
        assert final.load("k", key) == payloads[key]
