"""Result shards: the on-disk format of a sweep.

A sweep never returns traces — every partition's results are flushed to
disk as **table shards** and dropped from memory, which is what keeps a
10^5-scenario sweep as small as a 10^3-scenario one (the E20 gate).  Three
tables make up the store:

* ``scenarios`` — one row per scenario: id, outcome (``ok`` / ``error`` /
  ``fault``), fault kind and detail, attempt count, warning count, and the
  space's published parameter dict;
* ``statistics`` — one row per ``(scenario, recorded signal)``: the
  constant-memory :class:`~repro.sig.sinks.SignalStatistics` aggregate
  (presence counts, range, first/last instants);
* ``deltas`` — one row per recorded change of a watched signal (present
  only when the sweep watches deltas): scenario id, signal, instant, new
  value.

Each table is stored as **JSONL** (:data:`SHARD_FORMAT`), pure stdlib:
one JSON object per row, one file per (table, partition), streamed line by
line at read time, so a query holds at most one row of one shard.

Values that may be arbitrary Python objects (signal values, statistics
ranges, parameter dicts) are carried **wrapped** using the serving layer's
convention: a present value ``v`` encodes as ``[v]`` and ``ABSENT`` as
``null``, so a present ``None`` never collides with absence and
``bool``/``int`` stay distinct through the round trip.
:func:`decode_row` returns the exact Python values, which is what the E20
parity gate (shard query == in-memory reference, bit for bit) leans on.

Shard files are written to a temporary name and atomically renamed, so a
reader (or a resumed sweep) never sees a torn shard — at worst an orphaned
file that the manifest does not list, which resume quarantines.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..sig.sinks import DeltaLog, TraceStatistics
from ..sig.values import ABSENT

#: The shard format of every sweep store, recorded in its manifest.
SHARD_FORMAT = "jsonl"

#: The tables of a sweep store.
TABLES = ("scenarios", "statistics", "deltas")

#: Per-table column order.
TABLE_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "scenarios": (
        "scenario_id",
        "status",
        "kind",
        "detail",
        "attempts",
        "warnings",
        "params",
    ),
    "statistics": (
        "scenario_id",
        "signal",
        "present",
        "absent",
        "first_instant",
        "last_instant",
        "minimum",
        "maximum",
    ),
    "deltas": ("scenario_id", "signal", "instant", "value"),
}

# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------
def wrap_value(value: Any) -> Optional[List[Any]]:
    """Wrap one possibly-absent value: ``[v]`` when present, ``None`` for
    ``ABSENT``/``None`` — the serving layer's wire convention, so a present
    ``None``-like value can never be mistaken for absence."""
    if value is ABSENT or value is None:
        return None
    return [value]


def unwrap_value(wrapped: Any, absent: Any = None) -> Any:
    """Invert :func:`wrap_value` (``absent`` is returned for ``null``)."""
    if wrapped is None:
        return absent
    return wrapped[0]


def _json_default(value: Any) -> str:
    """Last-resort JSON encoding of exotic values (kept queryable as text)."""
    return repr(value)


def dumps_json(value: Any) -> str:
    """Compact JSON encoding of one shard row (or CLI output line)."""
    return json.dumps(value, separators=(",", ":"), default=_json_default)


# ----------------------------------------------------------------------
# row builders (shared by the executor, the benchmark and the parity tests)
# ----------------------------------------------------------------------
def scenario_row(
    scenario_id: int,
    status: str,
    params: Mapping[str, Any],
    kind: Optional[str] = None,
    detail: Optional[str] = None,
    attempts: Optional[int] = None,
    warnings: int = 0,
) -> Dict[str, Any]:
    """One ``scenarios``-table row (decoded form)."""
    return {
        "scenario_id": scenario_id,
        "status": status,
        "kind": kind,
        "detail": detail,
        "attempts": attempts,
        "warnings": warnings,
        "params": dict(params),
    }


def statistics_rows(scenario_id: int, statistics: TraceStatistics) -> List[Dict[str, Any]]:
    """The ``statistics``-table rows of one scenario's streamed aggregates,
    in sorted signal order (decoded form)."""
    rows: List[Dict[str, Any]] = []
    for name in statistics.signals():
        entry = statistics.per_signal[name]
        rows.append(
            {
                "scenario_id": scenario_id,
                "signal": name,
                "present": entry.present,
                "absent": entry.absent,
                "first_instant": entry.first_instant,
                "last_instant": entry.last_instant,
                "minimum": entry.minimum,
                "maximum": entry.maximum,
            }
        )
    return rows


def delta_rows(scenario_id: int, log: DeltaLog) -> List[Dict[str, Any]]:
    """The ``deltas``-table rows of one scenario's change log (decoded
    form): one row per (change instant, changed signal), instant order."""
    rows: List[Dict[str, Any]] = []
    for instant, changes in log.entries:
        for signal in sorted(changes):
            rows.append(
                {
                    "scenario_id": scenario_id,
                    "signal": signal,
                    "instant": instant,
                    "value": changes[signal],
                }
            )
    return rows


def encode_row(table: str, row: Mapping[str, Any]) -> Dict[str, Any]:
    """Encode one decoded row into its storable (JSON-able) form."""
    encoded = dict(row)
    if table == "scenarios":
        encoded["params"] = dict(row["params"])
    elif table == "statistics":
        encoded["minimum"] = wrap_value(row["minimum"])
        encoded["maximum"] = wrap_value(row["maximum"])
    elif table == "deltas":
        encoded["value"] = wrap_value(row["value"])
    return encoded


def decode_row(table: str, encoded: Mapping[str, Any]) -> Dict[str, Any]:
    """Invert :func:`encode_row`: storable form back to exact Python values."""
    row = dict(encoded)
    if table == "scenarios":
        row["params"] = dict(encoded["params"] or {})
    elif table == "statistics":
        row["minimum"] = unwrap_value(encoded["minimum"])
        row["maximum"] = unwrap_value(encoded["maximum"])
    elif table == "deltas":
        row["value"] = unwrap_value(encoded["value"], absent=ABSENT)
    return row


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
#: One predicate: ``(column, operator, operand)`` with operator one of
#: ``== != < <= > >= in``; or a mapping shorthand ``{column: value}``
#: meaning equality on every entry.
Predicate = Tuple[str, str, Any]

_OPERATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and a < b,
    "<=": lambda a, b: a is not None and a <= b,
    ">": lambda a, b: a is not None and a > b,
    ">=": lambda a, b: a is not None and a >= b,
    "in": lambda a, b: a in b,
}


def normalize_where(
    where: Union[None, Mapping[str, Any], Sequence[Predicate]],
) -> List[Predicate]:
    """Normalise a ``where=`` argument into a predicate list.

    Accepts ``None``, a mapping (equality on every entry) or a sequence of
    ``(column, op, operand)`` triples; unknown operators are rejected here
    before any shard is read.
    """
    if where is None:
        return []
    if isinstance(where, Mapping):
        return [(column, "==", value) for column, value in where.items()]
    predicates: List[Predicate] = []
    for column, op, operand in where:
        if op not in _OPERATORS:
            raise ValueError(
                f"unknown predicate operator {op!r}; expected one of "
                f"{sorted(_OPERATORS)}"
            )
        predicates.append((column, op, operand))
    return predicates


def row_matches(row: Mapping[str, Any], predicates: Sequence[Predicate]) -> bool:
    """Evaluate every predicate against one decoded row."""
    for column, op, operand in predicates:
        try:
            if not _OPERATORS[op](row.get(column), operand):
                return False
        except TypeError:
            # Unorderable comparison (e.g. None < 3): the row does not match.
            return False
    return True


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def shard_name(table: str, partition: int) -> str:
    """Canonical shard file name of one (table, partition)."""
    return f"{table}-{partition:05d}.{SHARD_FORMAT}"


def parse_shard_name(name: str) -> Optional[Tuple[str, int]]:
    """Invert :func:`shard_name` (``None`` for non-shard files)."""
    stem, _, extension = name.rpartition(".")
    if extension != SHARD_FORMAT:
        return None
    table, _, number = stem.rpartition("-")
    if table not in TABLES or not number.isdigit():
        return None
    return table, int(number)


def _atomic_bytes(path: str, payload: bytes) -> None:
    """Write *payload* to *path* via a same-directory temp file + rename."""
    directory = os.path.dirname(path)
    descriptor, temp_path = tempfile.mkstemp(prefix=".tmp-shard-", dir=directory)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(payload)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class ShardWriter:
    """Write per-partition table shards under a sweep directory.

    One writer per sweep run; :meth:`write` flushes one (table, partition)
    batch of **decoded** rows as a single shard file, atomically (temp +
    rename), and returns the file name for the manifest.  Rows are encoded
    through :func:`encode_row`, so the writer accepts exactly what
    :func:`statistics_rows` / :func:`delta_rows` / :func:`scenario_row`
    build.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def write(self, table: str, partition: int, rows: Sequence[Mapping[str, Any]]) -> str:
        """Flush one partition's rows of *table*; returns the shard name."""
        if table not in TABLES:
            raise ValueError(f"unknown table {table!r}; expected one of {TABLES}")
        name = shard_name(table, partition)
        lines = [dumps_json(encode_row(table, row)) for row in rows]
        payload = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
        _atomic_bytes(os.path.join(self.directory, name), payload)
        return name


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def iter_shard_rows(
    path: str,
    table: str,
    columns: Optional[Sequence[str]] = None,
    predicates: Sequence[Predicate] = (),
) -> Iterator[Dict[str, Any]]:
    """Stream the decoded rows of one shard file, line by line.

    *columns* projects the yielded rows after predicate evaluation, so
    predicates may reference non-projected columns.  At most one row of
    the store is resident at a time.
    """
    predicates = list(predicates)
    projection = list(columns) if columns is not None else None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = decode_row(table, json.loads(line))
            if not row_matches(row, predicates):
                continue
            if projection is not None:
                row = {column: row.get(column) for column in projection}
            yield row


__all__ = [
    "Predicate",
    "SHARD_FORMAT",
    "ShardWriter",
    "TABLES",
    "TABLE_COLUMNS",
    "decode_row",
    "delta_rows",
    "dumps_json",
    "encode_row",
    "iter_shard_rows",
    "normalize_where",
    "parse_shard_name",
    "row_matches",
    "scenario_row",
    "shard_name",
    "statistics_rows",
    "unwrap_value",
    "wrap_value",
]
