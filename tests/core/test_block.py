"""Tests for repro.core.block."""

import pytest

from repro.core.block import (
    CODEC_NONE,
    CODEC_ZLIB,
    BlockBuilder,
    codec_id,
    compress,
    decode_rows,
    decompress,
)
from repro.core.encoding import RowCodec
from repro.core.errors import CorruptTabletError
from repro.core.schema import Column, ColumnType, Schema


def tiny_schema():
    return Schema(
        [Column("k", ColumnType.INT64), Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.STRING)],
        key=["k", "ts"],
    )


class TestCodecs:
    def test_codec_ids(self):
        assert codec_id("none") == CODEC_NONE
        assert codec_id("zlib") == CODEC_ZLIB

    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            codec_id("lzo")

    def test_zlib_round_trip(self):
        data = b"hello " * 100
        packed = compress(CODEC_ZLIB, data)
        assert len(packed) < len(data)
        assert decompress(CODEC_ZLIB, packed) == data

    def test_none_round_trip(self):
        data = b"raw bytes"
        assert compress(CODEC_NONE, data) == data
        assert decompress(CODEC_NONE, data) == data

    def test_corrupt_zlib_raises(self):
        with pytest.raises(CorruptTabletError):
            decompress(CODEC_ZLIB, b"not zlib data")


class TestBlockBuilder:
    def test_cuts_at_target(self):
        builder = BlockBuilder(target_bytes=100)
        row = b"x" * 40
        assert not builder.would_overflow(len(row))
        builder.add(row)
        builder.add(row)
        assert builder.would_overflow(len(row))  # 120 > 100

    def test_single_huge_row_allowed(self):
        builder = BlockBuilder(target_bytes=10)
        big = b"y" * 100
        assert not builder.would_overflow(len(big))  # empty block accepts it
        builder.add(big)
        payload, count, raw = builder.finish(CODEC_NONE)
        assert count == 1
        assert raw == 100
        assert payload == big

    def test_finish_resets(self):
        builder = BlockBuilder(target_bytes=100)
        builder.add(b"abc")
        builder.finish(CODEC_NONE)
        assert len(builder) == 0
        assert builder.size_bytes == 0

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)


class TestDecodeBlock:
    def test_round_trip(self):
        schema = tiny_schema()
        codec = RowCodec(schema)
        rows = [(i, 100 + i, f"row{i}") for i in range(20)]
        builder = BlockBuilder(target_bytes=1 << 20)
        for row in rows:
            builder.add(codec.encode_row(row))
        payload, count, _raw = builder.finish(CODEC_ZLIB)
        raw = decompress(CODEC_ZLIB, payload)
        assert decode_rows(raw, codec, count) == rows

    def test_row_count_mismatch_raises(self):
        schema = tiny_schema()
        codec = RowCodec(schema)
        builder = BlockBuilder(target_bytes=1 << 20)
        builder.add(codec.encode_row((1, 2, "a")))
        builder.add(codec.encode_row((2, 3, "b")))
        payload, _count, _raw = builder.finish(CODEC_NONE)
        with pytest.raises(CorruptTabletError):
            decode_rows(payload, codec, 1)  # too few
