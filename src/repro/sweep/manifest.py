"""The sweep manifest: durable bookkeeping of a partitioned sweep.

A sweep directory is described by one ``manifest.json`` holding everything
a resumed run (or a post-hoc query) needs without re-simulating anything:

* the **space identity** — the space's ``describe()`` dictionary and its
  structural :meth:`~repro.sweep.spaces.ScenarioSpace.fingerprint`, which
  resume validates so a manifest can never silently continue a *different*
  sweep;
* the **run configuration** that shapes results (partition size, shard
  format, record list, horizon, watched delta signals, backend);
* the **completed partitions** — per partition the scenario range, the
  shard file of each table and its row count.  A partition enters the
  manifest only *after* its shard files are atomically renamed into place,
  so every listed file is complete and every unlisted file is an orphan of
  a crash (resume quarantines those);
* the **running sweep-level aggregate** — the merged
  :class:`~repro.sig.sinks.TraceStatistics` of every completed scenario
  (warning/fault/error *counts*, not lists, so the manifest stays O(signals)
  however large the sweep).

The manifest itself is written atomically (temp file + ``os.replace``), so
a crash between partitions leaves the previous consistent manifest — at
worst the partition that was in flight re-executes on resume, which is safe
because scenario spaces are pure functions of the index.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from ..sig.sinks import SignalStatistics, TraceStatistics
from .shards import SHARD_FORMAT, parse_shard_name, unwrap_value, wrap_value

#: File name of the manifest inside a sweep directory.
MANIFEST_NAME = "manifest.json"

#: Subdirectory orphaned (crash-torn) shard files are moved into on resume.
QUARANTINE_DIR = "quarantine"

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1


def manifest_path(directory: str) -> str:
    """The manifest file path of a sweep directory."""
    return os.path.join(directory, MANIFEST_NAME)


def load_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """Load a sweep directory's manifest (``None`` when absent).

    A manifest of another schema version, or one naming a shard format
    other than :data:`~repro.sweep.shards.SHARD_FORMAT`, is refused with a
    ``RuntimeError``: its shards cannot be read or extended.
    """
    path = manifest_path(directory)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise RuntimeError(
            f"sweep manifest {path} has version {version!r}; this build "
            f"reads version {MANIFEST_VERSION}"
        )
    shard_format = manifest.get("shard_format")
    if shard_format != SHARD_FORMAT:
        raise RuntimeError(
            f"sweep manifest {path} names shard format {shard_format!r}; this "
            f"build reads only {SHARD_FORMAT!r} shards"
        )
    return manifest


def write_manifest(directory: str, manifest: Dict[str, Any]) -> None:
    """Atomically write a sweep manifest (temp file + rename).

    The manifest is the commit point of a partition: readers and resumed
    runs either see the previous consistent manifest or the new one, never
    a torn file.
    """
    path = manifest_path(directory)
    descriptor, temp_path = tempfile.mkstemp(prefix=".tmp-manifest-", dir=directory)
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True, default=repr)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def listed_files(manifest: Dict[str, Any]) -> List[str]:
    """Every shard file name the manifest's completed partitions claim."""
    names: List[str] = []
    for entry in manifest.get("partitions", {}).values():
        names.extend(entry.get("files", {}).values())
    return names


def quarantine_orphans(directory: str, manifest: Dict[str, Any]) -> List[str]:
    """Move crash-torn files aside before a resumed run re-executes.

    Two kinds of debris can survive a crash: shard files that were renamed
    into place but whose partition never reached the manifest (the crash
    hit between flush and commit), and abandoned ``.tmp-*`` temporaries.
    Listed shards are untouchable; orphaned shards move into
    ``quarantine/`` (kept for post-mortems rather than deleted) and
    temporaries are removed.  Returns the quarantined file names.
    """
    listed = set(listed_files(manifest))
    quarantined: List[str] = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        if name.startswith(".tmp-"):
            os.unlink(path)
            continue
        if parse_shard_name(name) is None or name in listed:
            continue
        target_dir = os.path.join(directory, QUARANTINE_DIR)
        os.makedirs(target_dir, exist_ok=True)
        os.replace(path, os.path.join(target_dir, name))
        quarantined.append(name)
    return quarantined


def serialize_aggregate(statistics: Optional[TraceStatistics]) -> Optional[Dict[str, Any]]:
    """Encode the running sweep aggregate into manifest JSON.

    Ranges use the shard layer's wrapped convention (``[v]`` / ``null``) so
    a present ``None``-like bound survives; warning *counts* ride in the
    parent manifest, not here (the aggregate's warning list is kept empty
    by the executor to hold memory flat).
    """
    if statistics is None:
        return None
    per_signal: Dict[str, Any] = {}
    for name in statistics.signals():
        entry = statistics.per_signal[name]
        per_signal[name] = {
            "present": entry.present,
            "absent": entry.absent,
            "first_instant": entry.first_instant,
            "last_instant": entry.last_instant,
            "minimum": wrap_value(entry.minimum),
            "maximum": wrap_value(entry.maximum),
            "range_dropped": entry.range_dropped,
        }
    return {
        "process_name": statistics.process_name,
        "length": statistics.length,
        "per_signal": per_signal,
    }


def deserialize_aggregate(payload: Optional[Dict[str, Any]]) -> Optional[TraceStatistics]:
    """Invert :func:`serialize_aggregate` back into live statistics."""
    if payload is None:
        return None
    per_signal: Dict[str, SignalStatistics] = {}
    for name, entry in payload.get("per_signal", {}).items():
        per_signal[name] = SignalStatistics(
            name=name,
            present=entry["present"],
            absent=entry["absent"],
            minimum=unwrap_value(entry["minimum"]),
            maximum=unwrap_value(entry["maximum"]),
            first_instant=entry["first_instant"],
            last_instant=entry["last_instant"],
            range_dropped=entry["range_dropped"],
        )
    return TraceStatistics(
        process_name=payload["process_name"],
        length=payload["length"],
        per_signal=per_signal,
    )


__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "QUARANTINE_DIR",
    "deserialize_aggregate",
    "listed_files",
    "load_manifest",
    "manifest_path",
    "quarantine_orphans",
    "serialize_aggregate",
    "write_manifest",
]
