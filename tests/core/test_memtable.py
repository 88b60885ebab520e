"""Tests for repro.core.memtable."""

import pytest

from repro.core.encoding import RowCodec
from repro.core.memtable import MemTable
from repro.core.periods import Period, PeriodLevel
from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType, Schema


def make_schema():
    return Schema(
        [Column("k", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.STRING)],
        key=["k", "ts"],
    )


def make_memtable():
    period = Period(0, 14_400_000_000, PeriodLevel.FOUR_HOUR)
    return MemTable(1, make_schema(), period)


class TestInsert:
    def test_insert_and_len(self):
        mt = make_memtable()
        assert mt.empty
        assert mt.insert((1, 100, "a"), now=5)
        assert len(mt) == 1
        assert not mt.empty

    def test_duplicate_key_rejected(self):
        mt = make_memtable()
        assert mt.insert((1, 100, "a"), now=5)
        assert not mt.insert((1, 100, "b"), now=6)
        assert len(mt) == 1

    def test_same_key_different_ts_ok(self):
        mt = make_memtable()
        assert mt.insert((1, 100, "a"), now=5)
        assert mt.insert((1, 101, "b"), now=5)
        assert len(mt) == 2

    def test_tracks_timespan(self):
        mt = make_memtable()
        mt.insert((1, 300, "a"), now=5)
        mt.insert((2, 100, "b"), now=6)
        mt.insert((3, 200, "c"), now=7)
        assert mt.min_ts == 100
        assert mt.max_ts == 300

    def test_tracks_size(self):
        mt = make_memtable()
        mt.insert((1, 100, "a" * 50), now=5)
        size_one = mt.size_bytes
        assert size_one > 50
        mt.insert((2, 100, "b" * 50), now=5)
        assert mt.size_bytes > size_one

    def test_age(self):
        mt = make_memtable()
        assert mt.age_micros(now=100) == 0
        mt.insert((1, 100, "a"), now=50)
        assert mt.age_micros(now=80) == 30

    def test_read_only_blocks_inserts(self):
        mt = make_memtable()
        mt.insert((1, 100, "a"), now=5)
        mt.mark_read_only()
        with pytest.raises(RuntimeError):
            mt.insert((2, 100, "b"), now=6)

    def test_contains_key(self):
        mt = make_memtable()
        mt.insert((1, 100, "a"), now=5)
        assert mt.contains_key((1, 100))
        assert not mt.contains_key((1, 101))


class TestIteration:
    def _filled(self):
        mt = make_memtable()
        rows = [(k, ts, f"{k}.{ts}") for k in (3, 1, 2) for ts in (20, 10)]
        for row in rows:
            mt.insert(row, now=0)
        return mt, sorted(rows)

    def test_sorted_run(self):
        mt, expected = self._filled()
        rows, sizes = mt.sorted_run()
        assert rows == expected
        encode = RowCodec(mt.schema).encode_row
        assert sizes == [len(encode(row)) for row in rows]
        assert sum(sizes) == mt.size_bytes
        assert make_memtable().sorted_run() == ([], [])

    def test_last_key(self):
        mt, expected = self._filled()
        assert mt.last_key() == (3, 20)
        assert make_memtable().last_key() is None

    def test_scan_prefix(self):
        mt, expected = self._filled()
        got = list(mt.scan(KeyRange.prefix((2,))))
        assert got == [r for r in expected if r[0] == 2]

    def test_scan_descending(self):
        mt, expected = self._filled()
        got = list(mt.scan(KeyRange.all(), descending=True))
        assert got == expected[::-1]

    def test_scan_descending_prefix(self):
        mt, expected = self._filled()
        got = list(mt.scan(KeyRange.prefix((1,)), descending=True))
        assert got == [r for r in expected if r[0] == 1][::-1]

    def test_scan_exclusive_min(self):
        mt, expected = self._filled()
        kr = KeyRange(min_prefix=(1, 20), min_inclusive=False)
        assert list(mt.scan(kr)) == [r for r in expected if (r[0], r[1]) > (1, 20)]
