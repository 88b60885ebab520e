"""Tests for repro.core.block."""

import pytest

from repro.core.block import (
    CODEC_NONE,
    CODEC_ZLIB,
    codec_id,
    compress,
    decompress,
)
from repro.core.errors import CorruptTabletError


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

