"""JSONL shard format: codec round-trips, writers, readers, predicates."""

import json
import os

import pytest

from repro.sig.sinks import DeltaLog, SignalStatistics, TraceStatistics
from repro.sig.values import ABSENT
from repro.sweep.shards import (
    ShardWriter,
    decode_row,
    delta_rows,
    encode_row,
    iter_shard_rows,
    normalize_where,
    parse_shard_name,
    row_matches,
    scenario_row,
    shard_name,
    statistics_rows,
    unwrap_value,
    wrap_value,
)

class TestValueCodec:
    def test_wrap_distinguishes_absence_from_falsy_values(self):
        assert wrap_value(ABSENT) is None
        assert wrap_value(None) is None
        assert wrap_value(0) == [0]
        assert wrap_value(False) == [False]
        assert wrap_value("") == [""]

    def test_unwrap_inverts_wrap(self):
        for value in (0, False, True, 1, "x", 3.5, ""):
            assert unwrap_value(wrap_value(value)) == value
            assert type(unwrap_value(wrap_value(value))) is type(value)
        assert unwrap_value(None) is None
        assert unwrap_value(None, absent=ABSENT) is ABSENT

    def test_bool_and_int_stay_distinct_through_json(self):
        restored = json.loads(json.dumps(wrap_value(True)))
        assert unwrap_value(restored) is True
        restored = json.loads(json.dumps(wrap_value(1)))
        assert unwrap_value(restored) == 1 and unwrap_value(restored) is not True


class TestRowBuilders:
    def test_statistics_rows_in_sorted_signal_order(self):
        stats = TraceStatistics(
            "p",
            10,
            {
                "b": SignalStatistics("b", present=3, absent=7, minimum=1, maximum=9,
                                      first_instant=0, last_instant=8),
                "a": SignalStatistics("a", present=10, absent=0),
            },
        )
        rows = statistics_rows(5, stats)
        assert [row["signal"] for row in rows] == ["a", "b"]
        assert all(row["scenario_id"] == 5 for row in rows)
        assert rows[1]["minimum"] == 1 and rows[1]["maximum"] == 9

    def test_delta_rows_expand_change_instants(self):
        log = DeltaLog(
            "p", 10, ("x", "y"),
            entries=[(0, {"y": 2, "x": True}), (4, {"x": ABSENT})],
            change_counts={"x": 2, "y": 1},
        )
        rows = delta_rows(9, log)
        assert [(r["instant"], r["signal"]) for r in rows] == [
            (0, "x"), (0, "y"), (4, "x"),
        ]
        assert rows[2]["value"] is ABSENT

    def test_scenario_row_round_trips_through_codec(self):
        row = scenario_row(3, "fault", {"period": 4}, kind="crash",
                           detail="worker died", attempts=2)
        decoded = decode_row("scenarios", json.loads(json.dumps(encode_row("scenarios", row))))
        assert decoded == row

    def test_statistics_row_codec_preserves_absent_range(self):
        stats = TraceStatistics("p", 4, {"s": SignalStatistics("s", absent=4)})
        row = statistics_rows(0, stats)[0]
        decoded = decode_row("statistics", json.loads(json.dumps(encode_row("statistics", row))))
        assert decoded["minimum"] is None and decoded["maximum"] is None
        # A present range of None-adjacent values still survives: False/0.
        stats2 = TraceStatistics(
            "p", 4, {"s": SignalStatistics("s", present=4, minimum=False, maximum=0)}
        )
        row2 = statistics_rows(0, stats2)[0]
        decoded2 = decode_row("statistics", json.loads(json.dumps(encode_row("statistics", row2))))
        assert decoded2["minimum"] is False and decoded2["maximum"] == 0


class TestPredicates:
    def test_normalize_mapping_and_triples(self):
        assert normalize_where(None) == []
        assert normalize_where({"a": 1}) == [("a", "==", 1)]
        assert normalize_where([("a", ">", 1)]) == [("a", ">", 1)]
        with pytest.raises(ValueError):
            normalize_where([("a", "~", 1)])

    def test_row_matches_operators(self):
        row = {"n": 5, "s": "ok"}
        assert row_matches(row, [("n", ">=", 5), ("s", "==", "ok")])
        assert not row_matches(row, [("n", "<", 5)])
        assert row_matches(row, [("s", "in", ("ok", "error"))])
        # None never satisfies an ordering predicate (and raises nowhere).
        assert not row_matches({"n": None}, [("n", ">", 0)])


class TestNames:
    def test_shard_name_round_trips(self):
        name = shard_name("statistics", 7)
        assert name == "statistics-00007.jsonl"
        assert parse_shard_name(name) == ("statistics", 7)
        assert parse_shard_name("manifest.json") is None
        assert parse_shard_name("bogus-00001.jsonl") is None
        assert parse_shard_name("statistics-x.jsonl") is None


def _sample_rows():
    return [
        scenario_row(0, "ok", {"period": 2, "note": "first"}, warnings=1),
        scenario_row(1, "error", {"period": 3}, kind="ClockViolation", detail="boom"),
        scenario_row(2, "fault", {"period": 4}, kind="crash", detail="died", attempts=2),
    ]


def _roundtrip(tmp_path, table, rows):
    writer = ShardWriter(str(tmp_path / "jsonl"))
    name = writer.write(table, 0, rows)
    return os.path.join(str(tmp_path / "jsonl"), name)


class TestJsonlRoundTrip:
    def test_rows_survive_exactly(self, tmp_path):
        rows = _sample_rows()
        path = _roundtrip(tmp_path, "scenarios", rows)
        assert list(iter_shard_rows(path, "scenarios")) == rows

    def test_projection_and_predicates(self, tmp_path):
        rows = _sample_rows()
        path = _roundtrip(tmp_path, "scenarios", rows)
        got = list(
            iter_shard_rows(
                path, "scenarios",
                columns=["scenario_id"],
                predicates=[("status", "!=", "ok")],
            )
        )
        assert got == [{"scenario_id": 1}, {"scenario_id": 2}]

    def test_empty_shard(self, tmp_path):
        path = _roundtrip(tmp_path, "deltas", [])
        assert list(iter_shard_rows(path, "deltas")) == []

    def test_delta_values_decode_to_absent(self, tmp_path):
        log = DeltaLog("p", 5, ("x",), entries=[(1, {"x": ABSENT}), (3, {"x": 0})],
                       change_counts={"x": 2})
        path = _roundtrip(tmp_path, "deltas", delta_rows(0, log))
        values = [row["value"] for row in iter_shard_rows(path, "deltas")]
        assert values[0] is ABSENT and values[1] == 0

    def test_writes_are_atomic(self, tmp_path):
        directory = tmp_path / "jsonl"
        _roundtrip(tmp_path, "scenarios", _sample_rows())
        leftovers = [n for n in os.listdir(directory) if n.startswith(".tmp")]
        assert leftovers == []
