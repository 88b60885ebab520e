"""Codec throughput gate: v3 block paths vs the v1 per-value paths.

The block codec exists to keep per-value Python out of every hot path:
format v3 hands each column of a block to one C call (``array``,
strided ``bytes`` slices, ``accumulate``), so CI enforces that the
speedup stays real.  Batch encode and batch decode through v3 must each
beat the v1 row-at-a-time reference by at least 6x on the paper's
usage-row shape (the varint v2 codec it replaced measured 6.5x and
4.5x; v3 is 3-4x v2) and by at least 2x on a string-heavy event-log
shape, where slicing strings apart is per-value work in any format.
Wall-clock, not modeled time - this measures the Python the engine
actually executes.
"""

import time
import zlib

import pytest

from repro.core.block import BlockBuilder, decode_rows
from repro.core.codec import SchemaCodec, compiled_ops
from repro.core.encoding import RowCodec
from repro.core.schema import Column, ColumnType, Schema

ROWS = 40_000
BLOCK_ROWS = 2_000           # rows per block, both formats
EVENT_KINDS = ("assoc", "disassoc", "dhcp_lease", "auth_fail", "roam")


def usage_schema():
    return Schema(
        [
            Column("network", ColumnType.INT64),
            Column("device", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("bytes", ColumnType.INT64),
            Column("rate", ColumnType.DOUBLE),
        ],
        key=["network", "device", "ts"],
    )


def usage_rows():
    base_ts = 1_700_000_000_000_000
    return [
        (i // 1000, i % 1000, base_ts + i * 1_000_000, i * 17, i * 0.25)
        for i in range(ROWS)
    ]


def events_schema():
    return Schema(
        [
            Column("network", ColumnType.INT64),
            Column("device", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("event_id", ColumnType.INT64),
            Column("kind", ColumnType.STRING),
            Column("detail", ColumnType.STRING),
        ],
        key=["network", "device", "ts"],
    )


def events_rows():
    base_ts = 1_700_000_000_000_000
    return [
        (i // 1000, i % 16, base_ts + i * 1_000_000, i,
         EVENT_KINDS[i % 5],
         f"client {i * 2654435761 % (1 << 24):06x} {EVENT_KINDS[i % 5]} "
         f"on ssid corp-{i // 1000:02d}")
        for i in range(ROWS)
    ]


SHAPES = [
    pytest.param(usage_schema, usage_rows, 6.0, id="usage"),
    pytest.param(events_schema, events_rows, 2.0, id="events-strings"),
]


def chunks(rows):
    for i in range(0, len(rows), BLOCK_ROWS):
        yield rows[i:i + BLOCK_ROWS]


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def v1_blocks(reference, rows):
    """The v1 reference: blocks row-encoded one value at a time."""
    blocks = []
    for chunk in chunks(rows):
        builder = BlockBuilder(1 << 30)
        for row in chunk:
            builder.add(reference.encode_row(row))
        payload, count, _raw = builder.finish(0)   # codec 0 = none
        blocks.append((payload, count))
    return blocks


@pytest.mark.parametrize("make_schema, make_rows, floor", SHAPES)
def test_v3_batch_beats_v1_per_value(make_schema, make_rows, floor):
    schema = make_schema()
    rows = sorted(make_rows(), key=compiled_ops(schema).key_of)
    reference = RowCodec(schema)
    codec = SchemaCodec(schema)
    codec.encode_rows(rows[:BLOCK_ROWS])    # compile the row functions

    def encode_v3():
        return [codec.encode_rows(chunk) for chunk in chunks(rows)]

    v1, v1_encode_s = timed(lambda: v1_blocks(reference, rows))
    v3, v3_encode_s = timed(encode_v3)

    # --- decode: whole blocks back to row tuples ---
    def decode_v1():
        return [decode_rows(payload, reference, count)
                for payload, count in v1]

    def decode_v3():
        return [codec.decode_block(block) for block in v3]

    v1_rows, v1_decode_s = timed(decode_v1)
    v3_rows, v3_decode_s = timed(decode_v3)

    # Same data on both sides before comparing clocks.
    flat_v1 = [row for block in v1_rows for row in block]
    flat_v3 = [row for block, _keys in v3_rows for row in block]
    assert flat_v1 == flat_v3 == rows

    encode_speedup = v1_encode_s / v3_encode_s
    decode_speedup = v1_decode_s / v3_decode_s
    print(f"\nencode: v1={v1_encode_s * 1e3:.1f}ms "
          f"v3={v3_encode_s * 1e3:.1f}ms  ({encode_speedup:.2f}x)")
    print(f"decode: v1={v1_decode_s * 1e3:.1f}ms "
          f"v3={v3_decode_s * 1e3:.1f}ms  ({decode_speedup:.2f}x)")

    assert encode_speedup >= floor, (
        f"v3 batch encode only {encode_speedup:.2f}x the v1 per-value "
        f"path (floor {floor}x)")
    assert decode_speedup >= floor, (
        f"v3 batch decode only {decode_speedup:.2f}x the v1 per-value "
        f"path (floor {floor}x)")


@pytest.mark.parametrize("make_schema, make_rows, _floor", SHAPES)
def test_v3_blocks_are_no_larger(make_schema, make_rows, _floor):
    """Dropped planes keep raw v3 under v1's varints, and byte planes
    are what zlib wants: no larger raw, no larger compressed."""
    schema = make_schema()
    rows = sorted(make_rows(), key=compiled_ops(schema).key_of)
    v1 = [payload for payload, _count in v1_blocks(RowCodec(schema), rows)]
    codec = SchemaCodec(schema)
    v3 = [codec.encode_rows(chunk) for chunk in chunks(rows)]
    v1_raw, v3_raw = sum(map(len, v1)), sum(map(len, v3))
    v1_zlib = sum(len(zlib.compress(block)) for block in v1)
    v3_zlib = sum(len(zlib.compress(block)) for block in v3)
    print(f"\nraw: v1={v1_raw}B v3={v3_raw}B ({v3_raw / v1_raw:.2f}x)  "
          f"zlib: v1={v1_zlib}B v3={v3_zlib}B ({v3_zlib / v1_zlib:.2f}x)")
    assert v3_raw <= v1_raw
    assert v3_zlib <= v1_zlib
