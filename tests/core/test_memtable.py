"""Tests for repro.core.memtable."""

import math
import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import memtable
from repro.core.encoding import RowCodec
from repro.core.memtable import MemTable
from repro.core.periods import Period, PeriodLevel
from repro.core.row import KeyRange, rows_of
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

    def test_reads_its_own_write_before_any_seal(self):
        mt = make_memtable()
        mt.insert((2, 10, "b"), now=0)
        mt.seal()
        mt.insert((1, 10, "a"), now=0)
        assert list(mt.scan(KeyRange.all())) == [(1, 10, "a"), (2, 10, "b")]
        assert mt.sorted_run()[0] == [(1, 10, "a"), (2, 10, "b")]


# ------------------------------------------------- differential (oracle)
#
# Small domains, so keys collide, prefixes tie and bounds land on, between
# and outside the keys held.

def three_part_memtable():
    schema = Schema(
        [Column("a", ColumnType.INT64), Column("b", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP), Column("v", ColumnType.INT64)],
        key=["a", "b", "ts"])
    return MemTable(1, schema, Period(0, 14_400_000_000,
                                      PeriodLevel.FOUR_HOUR))


part = st.integers(0, 3)
keys = st.tuples(part, part, st.integers(0, 7))
rows = st.tuples(keys, st.integers(0, 1 << 40)).map(lambda kv: (*kv[0], kv[1]))
batches = st.lists(rows, min_size=1, max_size=12)
bound = st.one_of(st.none(), st.builds(lambda key, length: key[:length],
                                       keys, st.integers(0, 3)))
key_ranges = st.builds(KeyRange, min_prefix=bound, min_inclusive=st.booleans(),
                       max_prefix=bound, max_inclusive=st.booleans())
# Mostly batches (so that runs pile up and consolidate), sealed or
# left in the tail; ``mark_read_only`` is rare because it ends the
# inserting.
steps = st.one_of(
    st.tuples(st.just("insert then seal"), batches),
    st.tuples(st.just("insert_sized then seal"), batches),
    st.tuples(st.just("insert"), batches),
    st.tuples(st.just("insert_sized"), batches),
    st.tuples(st.just("scan"), st.tuples(key_ranges, st.booleans())),
    st.tuples(st.just("scan"), st.tuples(key_ranges, st.booleans())),
    st.tuples(st.just("probe"), keys),
    st.tuples(st.just("sorted_run"), st.none()),
    st.tuples(st.sampled_from(["seal"] * 7 + ["mark_read_only"]), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(steps, min_size=8, max_size=60))
def test_matches_a_sorted_dict_through_any_interleaving(script):
    run_against_a_sorted_dict(script)


@settings(max_examples=200, deadline=None)
@given(st.lists(steps, min_size=8, max_size=60), st.integers(1, 3))
def test_matches_a_sorted_dict_when_scans_take_many_rounds(script, step):
    # At the real first step (64 keys a run) these small memtables are
    # always merged in one round.
    with mock.patch.object(memtable, "_chunks",
                           partial(memtable._chunks, step=step)):
        run_against_a_sorted_dict(script)


def run_against_a_sorted_dict(script):
    mt = three_part_memtable()
    size_of = mt._ops.size_of
    oracle = {}
    for step, argument in script:
        if step.startswith("insert"):
            for row in argument:
                key = row[:3]
                if mt.read_only:
                    with pytest.raises(RuntimeError):
                        mt.insert(row, now=0)
                    continue
                if step.startswith("insert_sized"):
                    fresh = mt.insert_sized(key, row, size_of(row), now=0)
                else:
                    fresh = mt.insert(row, now=0)
                assert fresh == (key not in oracle)
                oracle.setdefault(key, row)
            if step.endswith("then seal"):
                mt.seal()
        elif step == "seal":
            mt.seal()
        elif step == "mark_read_only":
            mt.mark_read_only()
        elif step == "scan":
            key_range, descending = argument
            expected = [oracle[key] for key in sorted(oracle)
                        if key_range.contains(key)]
            if descending:
                expected.reverse()
            assert list(mt.scan(key_range, descending)) == expected
            # The same walk as runs: each ascends, none is empty, the
            # keys ride along, and descending only reorders the runs.
            runs = list(mt.scan_runs(key_range, descending))
            for run_rows, run_keys in runs:
                assert run_keys and run_keys == sorted(run_keys)
                assert run_keys == [row[:3] for row in run_rows]
            assert list(rows_of(runs, descending)) == expected
        elif step == "probe":
            assert mt.contains_key(argument) == (argument in oracle)
        else:
            expected = [oracle[key] for key in sorted(oracle)]
            assert mt.sorted_run() == (expected,
                                       [size_of(row) for row in expected])

        assert len(mt) == len(oracle) and mt.empty == (not oracle)
        assert mt.last_key() == max(oracle, default=None)
        assert mt.size_bytes == sum(map(size_of, oracle.values()))
        # The sealed runs (a reader adds one more for an unsealed tail)
        # are few and more than double from newest to oldest.
        runs, tail = mt.capture()
        lengths = [len(run) for run in runs]
        assert sum(lengths) + len(tail) == len(oracle)
        assert all(runs) and all(run == sorted(run) for run in runs)
        if oracle:
            assert len(runs) <= math.ceil(math.log2(len(oracle))) + 2
        assert all(older >= 2 * newer
                   for older, newer in zip(lengths, lengths[1:]))


# ------------------------------------------------------ scans are lazy

def many_rows(count, seed=7):
    chooser = random.Random(seed)
    keys = chooser.sample([(a, b, ts) for a in range(8) for b in range(16)
                           for ts in range(count // 64)], count)
    return [(*key, index) for index, key in enumerate(keys)]


@pytest.mark.parametrize("batch, run_count", [(192, 4), (20_000, 1)])
def test_first_row_of_an_unbounded_scan_does_not_sort_the_memtable(
        batch, run_count):
    """A ``LIMIT`` query with no key bound pays for the rows it reads.
    Counted in keys taken from the runs, not in wall time."""
    mt = three_part_memtable()
    rows = many_rows(20_000)
    for start in range(0, len(rows), batch):
        for row in rows[start:start + batch]:
            mt.insert(row, now=0)
        mt.seal()
    runs, tail = mt.capture()
    assert not tail and len(runs) == run_count

    taken = []
    real_chunks = memtable._chunks

    def counted(spans, descending):
        for chunk in real_chunks(spans, descending):
            taken.append(len(chunk))
            yield chunk

    ordered = sorted(rows)
    with mock.patch.object(memtable, "_chunks", counted):
        for descending in (False, True):
            del taken[:]
            scan = mt.scan(KeyRange.all(), descending)
            assert not taken                    # nothing before the first read
            assert next(scan) == ordered[-1 if descending else 0]
            assert taken == [sum(taken)] and 0 < taken[0] <= 64 * len(runs)
            # ... and the rest of the walk is still whole and in order.
            rest = ordered[-2::-1] if descending else ordered[1:]
            assert list(scan) == rest
            assert sum(taken) == len(rows) and len(taken) > 4


def test_long_scans_agree_with_a_sorted_list_for_every_kind_of_bound():
    mt = three_part_memtable()
    rows = many_rows(6_000, seed=11)
    for start in range(0, len(rows), 100):
        for row in rows[start:start + 100]:
            mt.insert(row, now=0)
        if start % 700:
            mt.seal()               # every seventh batch stays in the tail
    ordered = sorted(rows)
    chooser = random.Random(3)
    for _ in range(200):
        low, high = sorted(chooser.choice(ordered)[:chooser.randint(0, 3)]
                           for _ in range(2))
        key_range = KeyRange(low or None, chooser.random() < 0.5,
                             high or None, chooser.random() < 0.5)
        expected = [row for row in ordered if key_range.contains(row[:3])]
        assert list(mt.scan(key_range)) == expected
        assert list(mt.scan(key_range, descending=True)) == expected[::-1]
