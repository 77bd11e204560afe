"""Columnar result shards: the on-disk format of a sweep.

A sweep never returns traces — every partition's results are flushed to
disk as **columnar shards** and dropped from memory, which is what keeps a
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

Two interchangeable shard formats carry the tables:

* ``parquet`` — one parquet file per (table, partition) via **pyarrow**,
  with column projection and predicate pushdown at read time.  pyarrow is
  a *soft* dependency in the house style: runtime-checked
  (:func:`pyarrow_available`), never imported at module import;
* ``jsonl`` — the pure-stdlib fallback: one JSON object per row, one file
  per (table, partition), streamed line by line at read time.  Queries
  over both formats return identical decoded rows (CI proves it with a
  dedicated no-arrow job).

Values that may be arbitrary Python objects (signal values, statistics
ranges, parameter dicts) are carried in **wrapped JSON** columns using the
serving layer's convention: a present value ``v`` encodes as ``[v]`` and
``ABSENT`` as ``null``, so a present ``None`` never collides with absence
and ``bool``/``int`` stay distinct through the round trip.  In parquet
these columns are JSON strings (typed columns hold the scan-friendly
integers); in jsonl they embed directly.  Either way
:func:`decode_row` returns the exact Python values, which is what the E20
parity gate (shard query == in-memory reference, bit for bit) leans on.

Shard files are written to a temporary name and atomically renamed, so a
reader (or a resumed sweep) never sees a torn shard — at worst an orphaned
file that the manifest does not list, which resume quarantines.
"""

from __future__ import annotations

import importlib.util
import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..sig.sinks import DeltaLog, SignalStatistics, TraceStatistics
from ..sig.values import ABSENT

#: Message explaining the optional parquet dependency (mirrors the numpy /
#: serve soft-dependency contracts).
PYARROW_FALLBACK_MESSAGE = (
    "pyarrow is not available; sweep shards fall back to the pure-stdlib "
    "jsonl format (install the 'sweep' extra, e.g. pip install "
    "'repro-aadl-polychrony[sweep]', for parquet shards with column "
    "projection and predicate pushdown)"
)

#: The shard formats a sweep store may use.
SHARD_FORMATS = ("parquet", "jsonl")

#: The tables of a sweep store.
TABLES = ("scenarios", "statistics", "deltas")

#: Per-table column order (also the parquet schema order).
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

#: Columns carried as wrapped JSON (``[value]`` / ``null`` / raw dict) —
#: everything else is a plain integer or string column that predicate
#: pushdown can act on directly.
JSON_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "scenarios": ("params",),
    "statistics": ("minimum", "maximum"),
    "deltas": ("value",),
}


def pyarrow_available() -> bool:
    """``True`` when pyarrow is importable (checked at run time, never at
    import: ``import repro.sweep`` must succeed on bare installations)."""
    return importlib.util.find_spec("pyarrow") is not None


def resolve_shard_format(shard_format: str = "auto") -> str:
    """Resolve a requested shard format against the environment.

    ``"auto"`` picks parquet when pyarrow is importable and falls back to
    jsonl otherwise; asking for parquet explicitly without pyarrow raises
    with the install hint instead of degrading silently.
    """
    if shard_format == "auto":
        return "parquet" if pyarrow_available() else "jsonl"
    if shard_format not in SHARD_FORMATS:
        raise ValueError(
            f"unknown shard format {shard_format!r}; expected one of "
            f"{SHARD_FORMATS} or 'auto'"
        )
    if shard_format == "parquet" and not pyarrow_available():
        raise RuntimeError(PYARROW_FALLBACK_MESSAGE)
    return shard_format


# ----------------------------------------------------------------------
# value codec (shared by both formats)
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
    """Compact JSON encoding shared by both shard formats."""
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
    so both formats fail identically.
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
def shard_name(table: str, partition: int, shard_format: str) -> str:
    """Canonical shard file name of one (table, partition)."""
    extension = "parquet" if shard_format == "parquet" else "jsonl"
    return f"{table}-{partition:05d}.{extension}"


def parse_shard_name(name: str) -> Optional[Tuple[str, int]]:
    """Invert :func:`shard_name` (``None`` for non-shard files)."""
    stem, _, extension = name.rpartition(".")
    if extension not in ("parquet", "jsonl"):
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


def _parquet_module():
    """Import pyarrow.parquet on demand (soft dependency)."""
    import pyarrow  # noqa: F401 - ensures the clear error surfaces first
    import pyarrow.parquet as parquet

    return pyarrow, parquet


def _parquet_schema(table: str):
    """The explicit pyarrow schema of one table (no inference surprises:
    an all-``None`` column must still be typed)."""
    import pyarrow

    integer = pyarrow.int64()
    string = pyarrow.string()
    types = {
        "scenario_id": integer,
        "status": string,
        "kind": string,
        "detail": string,
        "attempts": integer,
        "warnings": integer,
        "params": string,
        "signal": string,
        "present": integer,
        "absent": integer,
        "first_instant": integer,
        "last_instant": integer,
        "minimum": string,
        "maximum": string,
        "instant": integer,
        "value": string,
    }
    return pyarrow.schema(
        [(column, types[column]) for column in TABLE_COLUMNS[table]]
    )


class ShardWriter:
    """Write per-partition table shards under a sweep directory.

    One writer per sweep run; :meth:`write` flushes one (table, partition)
    batch of **decoded** rows as a single shard file, atomically (temp +
    rename), and returns the file name for the manifest.  Rows are encoded
    through :func:`encode_row`, so the writer accepts exactly what
    :func:`statistics_rows` / :func:`delta_rows` / :func:`scenario_row`
    build.
    """

    def __init__(self, directory: str, shard_format: str) -> None:
        if shard_format not in SHARD_FORMATS:
            raise ValueError(f"unknown shard format {shard_format!r}")
        if shard_format == "parquet" and not pyarrow_available():
            raise RuntimeError(PYARROW_FALLBACK_MESSAGE)
        self.directory = directory
        self.shard_format = shard_format
        os.makedirs(directory, exist_ok=True)

    def write(self, table: str, partition: int, rows: Sequence[Mapping[str, Any]]) -> str:
        """Flush one partition's rows of *table*; returns the shard name."""
        if table not in TABLES:
            raise ValueError(f"unknown table {table!r}; expected one of {TABLES}")
        name = shard_name(table, partition, self.shard_format)
        path = os.path.join(self.directory, name)
        if self.shard_format == "parquet":
            self._write_parquet(table, path, rows)
        else:
            self._write_jsonl(table, path, rows)
        return name

    def _write_jsonl(self, table: str, path: str, rows: Sequence[Mapping[str, Any]]) -> None:
        """One JSON object per line, atomically renamed into place."""
        lines = [dumps_json(encode_row(table, row)) for row in rows]
        payload = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
        _atomic_bytes(path, payload)

    def _write_parquet(self, table: str, path: str, rows: Sequence[Mapping[str, Any]]) -> None:
        """One parquet file per shard: JSON columns stored as strings."""
        pyarrow, parquet = _parquet_module()
        json_columns = set(JSON_COLUMNS[table])
        columns: Dict[str, List[Any]] = {column: [] for column in TABLE_COLUMNS[table]}
        for row in rows:
            encoded = encode_row(table, row)
            for column in TABLE_COLUMNS[table]:
                value = encoded[column]
                if column in json_columns:
                    value = dumps_json(value)
                columns[column].append(value)
        arrow_table = pyarrow.Table.from_pydict(columns, schema=_parquet_schema(table))
        directory = os.path.dirname(path)
        descriptor, temp_path = tempfile.mkstemp(prefix=".tmp-shard-", dir=directory)
        os.close(descriptor)
        try:
            parquet.write_table(arrow_table, temp_path)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _pushdown_filters(
    table: str, predicates: Sequence[Predicate]
) -> Optional[List[Tuple[str, str, Any]]]:
    """The predicates parquet can evaluate inside the scan (plain columns
    only — wrapped-JSON columns are re-checked in Python after decoding)."""
    json_columns = set(JSON_COLUMNS[table])
    filters = [
        (column, "=" if op == "==" else op, operand)
        for column, op, operand in predicates
        if column not in json_columns and column in TABLE_COLUMNS[table]
    ]
    return filters or None


def iter_shard_rows(
    path: str,
    table: str,
    shard_format: str,
    columns: Optional[Sequence[str]] = None,
    predicates: Sequence[Predicate] = (),
) -> Iterator[Dict[str, Any]]:
    """Stream the decoded rows of one shard file.

    *columns* projects the yielded rows (after predicate evaluation, so
    predicates may reference non-projected columns).  On parquet the
    projection and the plain-column predicates are pushed into the scan;
    on jsonl the file is decoded line by line — both stay out-of-core with
    respect to the whole store (at most one shard is resident at a time).
    """
    predicates = list(predicates)
    needed: Optional[List[str]] = None
    if columns is not None:
        # The scan must also fetch predicate columns; the projection is
        # applied when the row is yielded.
        requested = [c for c in columns if c in TABLE_COLUMNS[table]]
        predicate_columns = [c for c, _, _ in predicates if c in TABLE_COLUMNS[table]]
        needed = list(dict.fromkeys(requested + predicate_columns))
    if shard_format == "parquet":
        row_iterator = _iter_parquet_rows(path, table, needed, predicates)
    else:
        row_iterator = _iter_jsonl_rows(path, table, needed, predicates)
    if columns is None:
        yield from row_iterator
        return
    projection = list(columns)
    for row in row_iterator:
        yield {column: row.get(column) for column in projection}


def _iter_jsonl_rows(
    path: str,
    table: str,
    columns: Optional[Sequence[str]],
    predicates: Sequence[Predicate],
) -> Iterator[Dict[str, Any]]:
    """Stream one jsonl shard line by line (never whole-file)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = decode_row(table, json.loads(line))
            if not row_matches(row, predicates):
                continue
            if columns is not None:
                row = {column: row.get(column) for column in columns}
            yield row


def _iter_parquet_rows(
    path: str,
    table: str,
    columns: Optional[Sequence[str]],
    predicates: Sequence[Predicate],
) -> Iterator[Dict[str, Any]]:
    """Scan one parquet shard with projection + predicate pushdown."""
    _, parquet = _parquet_module()
    filters = _pushdown_filters(table, predicates)
    arrow_table = parquet.read_table(path, columns=list(columns) if columns else None, filters=filters)
    json_columns = set(JSON_COLUMNS[table])
    names = arrow_table.column_names
    for batch in arrow_table.to_batches():
        rows = batch.to_pylist()
        for stored in rows:
            encoded: Dict[str, Any] = {}
            for name in names:
                value = stored[name]
                if name in json_columns and value is not None:
                    value = json.loads(value)
                encoded[name] = value
            # decode_row tolerates projected rows missing JSON columns.
            row = _decode_projected(table, encoded)
            if not row_matches(row, predicates):
                continue
            yield row


def _decode_projected(table: str, encoded: Dict[str, Any]) -> Dict[str, Any]:
    """Decode a possibly column-projected encoded row."""
    row = dict(encoded)
    for column in JSON_COLUMNS[table]:
        if column not in row:
            continue
        if table == "scenarios" and column == "params":
            row[column] = dict(row[column] or {})
        elif table == "deltas" and column == "value":
            row[column] = unwrap_value(row[column], absent=ABSENT)
        else:
            row[column] = unwrap_value(row[column])
    return row


__all__ = [
    "JSON_COLUMNS",
    "PYARROW_FALLBACK_MESSAGE",
    "Predicate",
    "SHARD_FORMATS",
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
    "pyarrow_available",
    "resolve_shard_format",
    "row_matches",
    "scenario_row",
    "shard_name",
    "statistics_rows",
    "unwrap_value",
    "wrap_value",
]
