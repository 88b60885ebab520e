"""Tests for repro.core.encoding (value and row codecs)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import RowCodec, decode_value, encode_value
from repro.core.errors import CorruptTabletError
from repro.core.schema import Column, ColumnType, Schema


def decode_row(schema, buf, offset=0):
    """One v1-encoded row back from ``buf``: ``(row, next_offset)``.
    The engine keeps only the encoder (footer keys, row sizes)."""
    values = []
    for column in schema.columns:
        value, offset = decode_value(column.type, buf, offset)
        values.append(value)
    return tuple(values), offset


def blob_schema():
    return Schema(
        [
            Column("a", ColumnType.INT32),
            Column("b", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("d", ColumnType.DOUBLE),
            Column("s", ColumnType.STRING),
            Column("blob", ColumnType.BLOB),
        ],
        key=["a", "b", "ts"],
    )


class TestValueCodec:
    @pytest.mark.parametrize(
        "column_type,value",
        [
            (ColumnType.INT32, 0),
            (ColumnType.INT32, -(1 << 31)),
            (ColumnType.INT32, (1 << 31) - 1),
            (ColumnType.INT64, -(1 << 63)),
            (ColumnType.INT64, (1 << 63) - 1),
            (ColumnType.TIMESTAMP, 0),
            (ColumnType.TIMESTAMP, 1 << 60),
            (ColumnType.DOUBLE, 3.14159),
            (ColumnType.DOUBLE, -0.0),
            (ColumnType.STRING, ""),
            (ColumnType.STRING, "ünïcødé ✓"),
            (ColumnType.BLOB, b""),
            (ColumnType.BLOB, bytes(range(256))),
        ],
    )
    def test_round_trip(self, column_type, value):
        encoded = encode_value(column_type, value)
        decoded, pos = decode_value(column_type, encoded, 0)
        assert decoded == value
        assert pos == len(encoded)

    def test_double_nan_round_trips(self):
        encoded = encode_value(ColumnType.DOUBLE, float("nan"))
        decoded, _pos = decode_value(ColumnType.DOUBLE, encoded, 0)
        assert math.isnan(decoded)

    def test_truncated_string_raises(self):
        encoded = encode_value(ColumnType.STRING, "hello")
        with pytest.raises(CorruptTabletError):
            decode_value(ColumnType.STRING, encoded[:-1], 0)

    def test_truncated_double_raises(self):
        with pytest.raises(CorruptTabletError):
            decode_value(ColumnType.DOUBLE, b"\x00\x01", 0)


class TestRowCodec:
    def test_row_round_trip(self):
        schema = blob_schema()
        row = (1, -5, 1000, 2.5, "text", b"\xde\xad")
        encoded = RowCodec(schema).encode_row(row)
        decoded, pos = decode_row(schema, encoded)
        assert decoded == row
        assert pos == len(encoded)

    def test_consecutive_rows(self):
        schema = blob_schema()
        codec = RowCodec(schema)
        rows = [
            (i, i * 2, 100 + i, float(i), f"s{i}", bytes([i]))
            for i in range(10)
        ]
        buf = b"".join(codec.encode_row(r) for r in rows)
        offset = 0
        decoded = []
        for _ in rows:
            row, offset = decode_row(schema, buf, offset)
            decoded.append(row)
        assert decoded == rows

    def test_key_round_trip(self):
        codec = RowCodec(blob_schema())
        key = (7, -9, 123456)
        decoded, pos = codec.decode_key(codec.encode_key(key))
        assert decoded == key

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(-(1 << 31), (1 << 31) - 1),
        b=st.integers(-(1 << 63), (1 << 63) - 1),
        ts=st.integers(0, 1 << 62),
        d=st.floats(allow_nan=False),
        s=st.text(max_size=100),
        blob=st.binary(max_size=100),
    )
    def test_row_round_trip_property(self, a, b, ts, d, s, blob):
        schema = blob_schema()
        row = (a, b, ts, d, s, blob)
        decoded, _pos = decode_row(schema, RowCodec(schema).encode_row(row))
        assert decoded == row
