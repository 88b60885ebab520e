"""Property-based fuzzing of the on-disk tablet format.

Random schemas (every column type, random key widths), random rows,
random block sizes and codecs: writing a tablet and scanning it back
must always return exactly the sorted input, and the footer metadata
must match.  This is the format's strongest regression net.

The second property is the batch sink's: however a sorted run is split
into ``add_rows`` calls, the file is byte-identical to the one a
row-at-a-time reference sink (kept here) writes.
"""

from dataclasses import replace
from itertools import cycle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader, TabletSink, TabletWriter
from repro.disk import SimulatedDisk

_VALUE_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.DOUBLE,
                ColumnType.STRING, ColumnType.BLOB, ColumnType.TIMESTAMP]
_KEY_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.STRING]


def value_for(column_type, draw_value):
    if column_type is ColumnType.INT32:
        return draw_value % (2**31)
    if column_type is ColumnType.INT64:
        return draw_value % (2**63)
    if column_type is ColumnType.TIMESTAMP:
        return draw_value % (2**48)
    if column_type is ColumnType.DOUBLE:
        return float(draw_value % 10_000) / 7.0
    if column_type is ColumnType.STRING:
        return f"s{draw_value % 1000}"
    if column_type is ColumnType.BLOB:
        return bytes([draw_value % 256]) * (draw_value % 20)
    raise AssertionError(column_type)


@st.composite
def schema_and_rows(draw):
    key_types = draw(st.lists(st.sampled_from(_KEY_TYPES),
                              min_size=0, max_size=3))
    value_types = draw(st.lists(st.sampled_from(_VALUE_TYPES),
                                min_size=0, max_size=3))
    columns = [Column(f"k{i}", t) for i, t in enumerate(key_types)]
    columns.append(Column("ts", ColumnType.TIMESTAMP))
    columns.extend(Column(f"v{i}", t) for i, t in enumerate(value_types))
    key = [f"k{i}" for i in range(len(key_types))] + ["ts"]
    schema = Schema(columns, key)
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=60))
    rows = []
    seen_keys = set()
    for index, seed in enumerate(seeds):
        row = []
        for position, column in enumerate(schema.columns):
            if position == schema.ts_index:
                row.append((seed + index) % (2**40))
            else:
                row.append(value_for(column.type, seed + position))
        row = tuple(row)
        key_tuple = schema.key_of(row)
        if key_tuple in seen_keys:
            continue
        seen_keys.add(key_tuple)
        rows.append(row)
    rows.sort(key=schema.key_of)
    return schema, rows


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=schema_and_rows(),
       block_size=st.sampled_from([64, 256, 4096, 65536]),
       compression=st.sampled_from(["none", "zlib"]),
       bloom_bits=st.sampled_from([0, 10]))
def test_write_scan_round_trip(data, block_size, compression, bloom_bits):
    schema, rows = data
    disk = SimulatedDisk()
    writer = TabletWriter(disk, schema, block_size, compression, bloom_bits)
    meta = writer.write("t/tab.lt", rows, tablet_id=1, created_at=0)
    if not rows:
        assert meta is None
        return
    reader = TabletReader(disk, "t/tab.lt")
    got = list(reader.scan(KeyRange.all()))
    assert got == rows
    assert list(reader.scan(KeyRange.all(), descending=True)) == rows[::-1]
    # Footer metadata agrees with the data.
    timestamps = [schema.ts_of(row) for row in rows]
    assert meta.min_ts == min(timestamps)
    assert meta.max_ts == max(timestamps)
    assert meta.row_count == len(rows)
    reader.ensure_loaded()
    assert reader.schema == schema
    # Prefix scans agree with a Python filter, for each key depth.
    key_width = schema.key_width
    probe = schema.key_of(rows[len(rows) // 2])
    for depth in range(1, key_width):
        prefix = probe[:depth]
        expected = [row for row in rows
                    if schema.key_of(row)[:depth] == prefix]
        assert list(reader.scan(KeyRange.prefix(prefix))) == expected


class RowAtATimeSink(TabletSink):
    """The reference ``add_rows`` is checked against: PR 19's
    ``TabletSink.add_row`` and ``_note_row``, which decided block
    cuts, bounds and Bloom feeds one row at a time.  Kept here and
    nowhere in ``src/``."""

    def add_row(self, row):
        key = self.schema.key_of(row)
        size = self.schema_codec.size_of(row)
        if self.pending_bytes and \
                self.pending_bytes + size > self.block_size:
            self._cut_block()
        self._rows.append(row)
        self.pending_bytes += size
        ts = self.schema.ts_of(row)
        if self.min_ts is None or ts < self.min_ts:
            self.min_ts = ts
        if self.max_ts is None or ts > self.max_ts:
            self.max_ts = ts
        if self.first_key is None:
            self.first_key = key
        self.last_key = key
        self.row_count += 1
        if self.bloom_bits_per_row:
            self._bloom_add(key)


def runs_of(rows, chunking, block_rows):
    """Cut ``rows`` into consecutive runs: all in one, one row each,
    ending exactly where the reference cut its blocks, or by a cycle
    of run lengths."""
    if chunking == "whole":
        lengths = [len(rows)]
    elif chunking == "single rows":
        lengths = [1]
    elif chunking == "block cuts":
        lengths = block_rows
    else:
        lengths = chunking
    runs, start = [], 0
    for length in cycle(lengths):
        if start >= len(rows):
            return runs
        runs.append(rows[start:start + length])
        start += length


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=schema_and_rows(),
       block_size=st.sampled_from([1, 48, 256, 4096]),
       compression=st.sampled_from(["none", "zlib"]),
       bloom_bits=st.sampled_from([0, 10]),
       expect_exact=st.booleans(),
       hand_over=st.booleans(),
       chunking=st.one_of(
           st.sampled_from(["whole", "single rows", "block cuts"]),
           st.lists(st.integers(1, 25), min_size=1, max_size=6)))
def test_any_split_into_runs_writes_the_reference_bytes(
        data, block_size, compression, bloom_bits, expect_exact, hand_over,
        chunking):
    """The file does not depend on how a sorted run was split: every
    chunking, with the sink deriving keys and sizes or the caller
    handing them over, is byte-identical to feeding the rows one at a
    time through the old per-row rule."""
    schema, rows = data
    disk = SimulatedDisk()
    settings_ = dict(bloom_bits_per_row=bloom_bits,
                     expected_rows=len(rows) if expect_exact else 0)
    reference = RowAtATimeSink(disk, schema, block_size, compression,
                               **settings_)
    for row in rows:
        reference.add_row(row)
    block_rows = [len(rows)]
    if rows:
        reference._cut_block()
        block_rows = [entry.row_count for entry in reference._entries]
        if block_size == 1:
            assert block_rows == [1] * len(rows)
    expected = reference.finish("t/reference.lt", 1, 0)
    sink = TabletSink(disk, schema, block_size, compression, **settings_)
    for run in runs_of(rows, chunking, block_rows):
        if hand_over:
            sink.add_rows(run, keys=[schema.key_of(row) for row in run],
                          sizes=[sink.schema_codec.size_of(row)
                                 for row in run])
        else:
            sink.add_rows(tuple(run))
    meta = sink.finish("t/batched.lt", 1, 0)
    if not rows:
        assert meta is None and expected is None
        return
    assert replace(meta, filename="") == replace(expected, filename="")
    assert disk.storage.read_all("t/batched.lt") \
        == disk.storage.read_all("t/reference.lt")
