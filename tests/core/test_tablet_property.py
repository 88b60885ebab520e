"""Property-based fuzzing of the on-disk tablet format.

Random schemas (every column type, random key widths), random rows,
random block sizes and codecs: writing a tablet and scanning it back
must always return exactly the sorted input, and the footer metadata
must match.  This is the format's strongest regression net.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader, TabletWriter
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
