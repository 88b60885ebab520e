"""Schema-compiled codec: roundtrip, fuzz, corruption, and v1 compat.

The block format v2 codec (``core/codec.py``) compiles per-schema
encode/decode functions.  These tests pin down:

* bit-exact roundtrips over randomized schemas and value distributions
  (including varint width edges, NaN/inf doubles, empty and long
  strings, zero-byte blobs);
* agreement between the compiled row sizer and the reference
  ``RowCodec``'s v1 encoding;
* the interpreted key-column reader agreeing with the compiled
  whole-block decoder;
* corrupt or truncated buffers failing with ``CorruptTabletError``
  and nothing else;
* the checked-in v1 tablet fixture (written before format v2 existed)
  still reading back every row exactly, and the checked-in v1 data
  directory merging with new v2 tablets cleanly into v2.
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro.core.codec import (BLOCK_FORMAT_V1, BLOCK_FORMAT_V2, SchemaCodec,
                              compiled_ops)
from repro.core.encoding import RowCodec, decode_value
from repro.core.errors import CorruptTabletError, ValidationError
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader
from repro.disk import SimulatedDisk

FIXTURES = Path(__file__).parent / "fixtures"

# --------------------------------------------------------------- helpers

_VALUE_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.DOUBLE,
                ColumnType.STRING, ColumnType.BLOB]

_INT32_EDGES = [0, 1, -1, 127, 128, -128, 2**31 - 1, -(2**31), 16383, 16384]
_INT64_EDGES = [0, 1, -1, 2**63 - 1, -(2**63), 2**32, -(2**32),
                (1 << 35) - 1, 1 << 35]
_TS_EDGES = [0, 1, 127, 128, 2**31, 2**62 - 1]
_DOUBLE_EDGES = [0.0, -0.0, 1.5, -1e308, 1e-308, float("inf"),
                 float("-inf"), float("nan")]
_STRING_EDGES = ["", "a", "x" * 300, "snowman ☃", "é" * 5]
_BLOB_EDGES = [b"", b"\x00", b"\xff" * 200]


def random_schema(rng):
    """A random schema: 1-3 key columns (plus ts), 0-4 value columns."""
    n_key = rng.randint(0, 2)
    columns, key = [], []
    for i in range(n_key):
        kind = rng.choice([ColumnType.STRING, ColumnType.INT64,
                           ColumnType.INT32])
        columns.append(Column(f"k{i}", kind))
        key.append(f"k{i}")
    columns.append(Column("ts", ColumnType.TIMESTAMP))
    key.append("ts")
    for i in range(rng.randint(0, 4)):
        columns.append(Column(f"v{i}", rng.choice(_VALUE_TYPES)))
    return Schema(columns, key=key)


def random_value(rng, column_type):
    if column_type is ColumnType.INT32:
        if rng.random() < 0.3:
            return rng.choice(_INT32_EDGES)
        return rng.randint(-(2**31), 2**31 - 1)
    if column_type is ColumnType.INT64:
        if rng.random() < 0.3:
            return rng.choice(_INT64_EDGES)
        return rng.randint(-(2**63), 2**63 - 1)
    if column_type is ColumnType.TIMESTAMP:
        if rng.random() < 0.2:
            return rng.choice(_TS_EDGES)
        return rng.randint(0, 2**48)
    if column_type is ColumnType.DOUBLE:
        if rng.random() < 0.3:
            return rng.choice(_DOUBLE_EDGES)
        return rng.uniform(-1e6, 1e6)
    if column_type is ColumnType.STRING:
        if rng.random() < 0.3:
            return rng.choice(_STRING_EDGES)
        length = rng.randint(0, 40)
        return "".join(rng.choice("abcdefghij é☃")
                       for _ in range(length))
    if column_type is ColumnType.BLOB:
        if rng.random() < 0.3:
            return rng.choice(_BLOB_EDGES)
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 40)))
    raise AssertionError(column_type)


def random_rows(rng, schema, count):
    """Sorted, key-unique random rows for ``schema``."""
    key_of = compiled_ops(schema).key_of
    rows, seen = [], set()
    types = [c.type for c in schema.columns]
    while len(rows) < count:
        row = tuple(random_value(rng, t) for t in types)
        key = key_of(row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    rows.sort(key=key_of)
    return rows


def values_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return a == b and type(a) is type(b)


def rows_equal(xs, ys):
    return len(xs) == len(ys) and all(
        len(x) == len(y) and all(values_equal(a, b) for a, b in zip(x, y))
        for x, y in zip(xs, ys))


# ------------------------------------------------------- fuzz roundtrips

class TestFuzzRoundtrip:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_schema_roundtrip(self, seed):
        rng = random.Random(0xC0DEC + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        rows = random_rows(rng, schema, rng.randint(1, 120))
        block = codec.encode_rows(rows)
        decoded, keys = codec.decode_block(block)
        assert rows_equal(decoded, rows)
        key_of = compiled_ops(schema).key_of
        assert keys == [key_of(r) for r in rows]

    @pytest.mark.parametrize("seed", range(12))
    def test_v1_row_encoder_matches_reference(self, seed):
        rng = random.Random(0xBEEF + seed)
        schema = random_schema(rng)
        ops = compiled_ops(schema)
        reference = RowCodec(schema)
        for row in random_rows(rng, schema, 40):
            assert ops.size_of(row) == len(reference.encode_row(row))

    @pytest.mark.parametrize("seed", range(8))
    def test_validate_and_size_matches_encoded_length(self, seed):
        rng = random.Random(0xFACE + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        reference = RowCodec(schema)
        for row in random_rows(rng, schema, 40):
            validated, size = codec.validate_and_size(row)
            assert size == len(reference.encode_row(validated))

    @pytest.mark.parametrize("seed", range(8))
    def test_decode_key_columns_matches_full_decode(self, seed):
        """The interpreted key-column reader (Bloom prefixes of
        passed-through blocks) agrees with the compiled decoder."""
        rng = random.Random(0xD00D + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        rows = random_rows(rng, schema, 200)
        block = codec.encode_rows(rows)
        _rows, keys = codec.decode_block(block)
        assert list(zip(*codec.decode_key_columns(block))) == keys
        prefixes = codec.decode_key_columns(block, include_ts=False)
        if prefixes:    # a bare-ts key has no prefix columns
            assert list(zip(*prefixes)) == [key[:-1] for key in keys]


class TestBoundaryValues:
    def test_edge_value_matrix(self):
        schema = Schema([
            Column("k", ColumnType.STRING),
            Column("ts", ColumnType.TIMESTAMP),
            Column("i32", ColumnType.INT32),
            Column("i64", ColumnType.INT64),
            Column("d", ColumnType.DOUBLE),
            Column("s", ColumnType.STRING),
            Column("b", ColumnType.BLOB),
        ], key=["k", "ts"])
        codec = SchemaCodec(schema)
        rows = []
        for i, (i32, i64, ts, d, s, b) in enumerate(zip(
                _INT32_EDGES, _INT64_EDGES * 2, _TS_EDGES * 2,
                _DOUBLE_EDGES * 2, _STRING_EDGES * 2, _BLOB_EDGES * 4)):
            rows.append((f"key-{i:04d}", ts + i, i32, i64, d, s, b))
        rows.sort(key=compiled_ops(schema).key_of)
        decoded, _keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)

    def test_single_row_and_ts_only_key(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("v", ColumnType.DOUBLE)], key=["ts"])
        codec = SchemaCodec(schema)
        rows = [(123456789, float("nan"))]
        decoded, keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)
        assert keys == [(123456789,)]

    def test_restart_interval_boundaries(self):
        # Row counts straddling multiples of the restart interval.
        schema = Schema([Column("k", ColumnType.STRING),
                         Column("ts", ColumnType.TIMESTAMP)], key=["k", "ts"])
        codec = SchemaCodec(schema)
        for n in (1, 15, 16, 17, 31, 32, 33, 160):
            rows = [(f"prefix-shared-{i:06d}", 1000 + i) for i in range(n)]
            decoded, _keys = codec.decode_block(codec.encode_rows(rows))
            assert rows_equal(decoded, rows)

    def test_validation_errors_still_raise(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("n", ColumnType.INT32)], key=["ts"])
        codec = SchemaCodec(schema)
        with pytest.raises(ValidationError):
            codec.validate_and_size((100, 2**31))       # int32 overflow
        with pytest.raises(ValidationError):
            codec.validate_and_size((-5, 0))            # negative ts
        with pytest.raises(ValidationError):
            codec.validate_and_size((100, "nope"))      # wrong type


# ------------------------------------------------------------ corruption

class TestCorruption:
    def _block(self):
        schema = Schema([
            Column("host", ColumnType.STRING),
            Column("ts", ColumnType.TIMESTAMP),
            Column("v", ColumnType.DOUBLE),
            Column("note", ColumnType.STRING),
        ], key=["host", "ts"])
        codec = SchemaCodec(schema)
        rows = [(f"host-{i % 7}", 1000 + i, i * 0.5, f"n{i}")
                for i in range(100)]
        rows.sort(key=compiled_ops(schema).key_of)
        return codec, codec.encode_rows(rows)

    def test_truncations_raise_corrupt(self):
        codec, block = self._block()
        for cut in list(range(0, 40)) + [len(block) // 2, len(block) - 1]:
            with pytest.raises(CorruptTabletError):
                codec.decode_block(block[:cut])

    def test_trailing_garbage_raises_corrupt(self):
        codec, block = self._block()
        with pytest.raises(CorruptTabletError):
            codec.decode_block(block + b"\x00")

    def test_bad_version_byte_raises_corrupt(self):
        codec, block = self._block()
        with pytest.raises(CorruptTabletError):
            codec.decode_block(b"\x07" + block[1:])

    def test_bit_flips_never_raise_anything_else(self):
        # A flipped bit may still decode (e.g. inside a double), but it
        # must never escape as anything but CorruptTabletError.
        codec, block = self._block()
        rng = random.Random(42)
        for _ in range(300):
            pos = rng.randrange(len(block))
            bit = 1 << rng.randrange(8)
            mutated = bytearray(block)
            mutated[pos] ^= bit
            try:
                codec.decode_block(bytes(mutated))
            except CorruptTabletError:
                pass

    def test_decode_value_truncated_length_prefix(self):
        # decode_value must turn an over-long length prefix into
        # CorruptTabletError before slicing.
        bad = bytes([0x80, 0x80, 0x04]) + b"ab"   # says 65536 bytes follow
        with pytest.raises(CorruptTabletError):
            decode_value(ColumnType.STRING, bad, 0)
        with pytest.raises(CorruptTabletError):
            decode_value(ColumnType.BLOB, bad, 0)


# ------------------------------------------------------ v1 compatibility

def load_fixture_schema():
    return Schema.from_dict(
        json.loads((FIXTURES / "v1_tablet_schema.json").read_text()))


def load_fixture_rows(schema):
    raw = json.loads((FIXTURES / "v1_tablet_rows.json").read_text())
    blob_idx = [i for i, c in enumerate(schema.columns)
                if c.type is ColumnType.BLOB]
    rows = []
    for row in raw:
        row = list(row)
        for i in blob_idx:
            row[i] = bytes.fromhex(row[i])
        rows.append(tuple(row))
    return rows


class TestV1Compat:
    @pytest.mark.parametrize("name", ["v1_tablet_none.bin",
                                      "v1_tablet_zlib.bin"])
    def test_fixture_reads_bit_exactly(self, name):
        """Tablets written before format v2 existed still read exactly."""
        disk = SimulatedDisk()
        filename = "t/fixture.lt"
        disk.write_file(filename, (FIXTURES / name).read_bytes())
        reader = TabletReader(disk, filename)
        reader.ensure_loaded()
        assert reader.block_format == BLOCK_FORMAT_V1
        schema = load_fixture_schema()
        assert reader.schema.to_dict() == schema.to_dict()
        expected = load_fixture_rows(schema)
        from repro.core.row import KeyRange
        got = list(reader.scan(KeyRange.all()))
        assert rows_equal(got, expected)

    def test_fixture_probe_key(self):
        disk = SimulatedDisk()
        disk.write_file("t/f.lt",
                        (FIXTURES / "v1_tablet_zlib.bin").read_bytes())
        reader = TabletReader(disk, "t/f.lt")
        reader.ensure_loaded()
        schema = load_fixture_schema()
        rows = load_fixture_rows(schema)
        key_of = compiled_ops(schema).key_of
        assert reader.probe_key(key_of(rows[0]))
        assert reader.probe_key(key_of(rows[len(rows) // 2]))
        assert reader.probe_key(key_of(rows[-1]))
        missing = list(rows[0])
        missing[0] = "host-that-does-not-exist"
        assert not reader.probe_key(key_of(tuple(missing)))


class TestMixedFormatMerge:
    def test_v1_tablets_merge_to_v2(self, clock, small_config):
        from repro.core import LittleTable, Query

        from ..conftest import load_v1_datadir

        # Two tablets written in the legacy format (one minute apart,
        # by the last commit that had a v1 writer)...
        disk, recorded = load_v1_datadir()
        clock.advance_seconds(120)
        db = LittleTable(disk=disk, config=small_config, clock=clock)
        table = db.table("mixed")
        assert len(table.on_disk_tablets) == 2
        key_of = table.schema.key_of
        assert rows_equal(
            table.query(Query()).rows,
            sorted((tuple(row.values()) for row in recorded["mixed"]),
                   key=key_of))
        # ...one written as v2...
        table.insert([
            {"network": 2, "device": d, "ts": clock.now(),
             "bytes": d, "rate": 0.0} for d in range(50)])
        table.flush_all()
        formats = set()
        for meta in table.on_disk_tablets:
            reader = table._reader(meta)
            reader.ensure_loaded()
            formats.add(reader.block_format)
        assert formats == {BLOCK_FORMAT_V1, BLOCK_FORMAT_V2}
        before = table.query(Query()).rows
        # ...merging the mixed set must upgrade everything to v2.
        while table.maybe_merge() is not None:
            pass
        after = table.query(Query()).rows
        assert sorted(after) == sorted(before)
        for meta in table.on_disk_tablets:
            reader = table._reader(meta)
            reader.ensure_loaded()
            assert reader.block_format == BLOCK_FORMAT_V2
        counters = db.metrics.snapshot()["counters"]
        assert counters.get("codec.blocks_upgraded_v1_to_v2", 0) > 0
