"""Post-hoc queries over a sweep's shard store — out-of-core.

:class:`SweepResultStore` opens a sweep directory written by
:func:`~repro.sweep.executor.run_sweep` and scans its JSONL shards **one at
a time**, line by line, evaluating predicates and the column projection
per row: a query's resident set is one row whatever the sweep size.  A
manifest naming another shard format is refused on open.

Queries speak the small predicate language of
:func:`~repro.sweep.shards.normalize_where`: ``where={"signal": "alarm"}``
for equality, or ``where=[("present", ">", 0), ("scenario_id", "<", 100)]``
for comparisons; ``columns=`` projects the yielded rows.  Convenience
wrappers cover the common questions (:meth:`faults`, :meth:`scenario`,
:meth:`signal_statistics`), and :meth:`aggregate` returns the sweep-level
:class:`~repro.sig.sinks.TraceStatistics` the executor merged while
running — no shard is re-read to answer it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from ..sig.sinks import TraceStatistics
from .manifest import deserialize_aggregate, load_manifest
from .shards import Predicate, TABLES, iter_shard_rows, normalize_where


class SweepResultStore:
    """Read-only view over one sweep directory (shards + manifest)."""

    def __init__(self, directory: str) -> None:
        manifest = load_manifest(directory)
        if manifest is None:
            raise FileNotFoundError(
                f"{directory!r} holds no sweep manifest; was it written by "
                f"run_sweep?"
            )
        self.directory = directory
        #: The raw manifest dictionary (see :mod:`repro.sweep.manifest`).
        self.manifest = manifest

    # -- manifest accessors ------------------------------------------------
    @property
    def shard_format(self) -> str:
        """The store's shard format (always ``"jsonl"``)."""
        return self.manifest["shard_format"]

    @property
    def count(self) -> int:
        """Total scenarios of the sweep's space."""
        return self.manifest["count"]

    @property
    def complete(self) -> bool:
        """``True`` when every partition reached the manifest."""
        return self.manifest["complete"]

    def partitions(self) -> List[int]:
        """The completed partition indices, ascending."""
        return sorted(int(key) for key in self.manifest["partitions"])

    def aggregate(self) -> Optional[TraceStatistics]:
        """The sweep-level merged statistics (no shard reads)."""
        return deserialize_aggregate(self.manifest.get("aggregate"))

    # -- queries -----------------------------------------------------------
    def query(
        self,
        table: str,
        columns: Optional[Sequence[str]] = None,
        where: Union[None, Mapping[str, Any], Sequence[Predicate]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Stream the matching rows of one table across every shard.

        Rows arrive in (partition, row) order — i.e. ascending scenario id
        — decoded to exact Python values; *columns* projects them, *where*
        filters them and *limit* stops the scan early.  Memory is bounded
        by one row.
        """
        if table not in TABLES:
            raise ValueError(f"unknown table {table!r}; expected one of {TABLES}")
        predicates = normalize_where(where)
        yielded = 0
        for partition in self.partitions():
            entry = self.manifest["partitions"][str(partition)]
            name = entry["files"].get(table)
            if name is None:  # e.g. a sweep that watched no deltas
                continue
            path = os.path.join(self.directory, name)
            for row in iter_shard_rows(path, table, columns=columns, predicates=predicates):
                yield row
                yielded += 1
                if limit is not None and yielded >= limit:
                    return

    def rows(self, table: str) -> int:
        """Total rows of one table, from the manifest (no shard reads)."""
        if table not in TABLES:
            raise ValueError(f"unknown table {table!r}; expected one of {TABLES}")
        return sum(
            entry["rows"].get(table, 0)
            for entry in self.manifest["partitions"].values()
        )

    # -- conveniences ------------------------------------------------------
    def scenario(self, scenario_id: int) -> Optional[Dict[str, Any]]:
        """The ``scenarios`` row of one scenario (``None`` if not stored)."""
        for row in self.query(
            "scenarios", where={"scenario_id": scenario_id}, limit=1
        ):
            return row
        return None

    def faults(self) -> List[Dict[str, Any]]:
        """Every scenario the sweep recorded as faulted or errored."""
        return list(
            self.query("scenarios", where=[("status", "in", ("fault", "error"))])
        )

    def signal_statistics(
        self, signal: str, columns: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, Any]]:
        """The per-scenario ``statistics`` rows of one signal."""
        return self.query("statistics", columns=columns, where={"signal": signal})


__all__ = ["SweepResultStore"]
