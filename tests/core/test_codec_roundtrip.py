"""Block codec: roundtrip, fuzz, corruption, size, and v1/v2 compat.

``core/codec.py`` compiles per-schema row functions and encodes blocks
in format v3 (frame-of-reference byte planes).  These tests pin down:

* bit-exact roundtrips over randomized schemas and value distributions
  (``INT64`` min and max in one block, NaN/-0.0/inf doubles, empty and
  non-ASCII strings, zero-byte blobs, single rows, constant columns),
  sorted and in insertion order;
* agreement between the compiled row sizer and the reference
  ``RowCodec``'s v1 encoding;
* the key-column reader agreeing with the whole-block decoder;
* what a column costs: ``ceil(bit_length(max - lo) / 8)`` bytes a value;
* corrupt or truncated buffers failing with ``CorruptTabletError``
  and nothing else;
* raw v3 no larger than the raw v2 the last v2 writer produced for the
  same recorded rows (the WAL body and the read cache pay raw bytes);
* the checked-in v1 tablet fixture and the checked-in v2 data directory
  still reading back every row exactly, and v1 + v2 + v3 tablets
  merging into v3.
"""

import json
import random
import struct
import zlib
from pathlib import Path

import pytest

from repro.core import LittleTable, Query
from repro.core.codec import (BLOCK_FORMAT_V1, BLOCK_FORMAT_V2,
                              BLOCK_FORMAT_V3, SchemaCodec, compiled_ops)
from repro.core.encoding import RowCodec, decode_value
from repro.core.errors import (CorruptTabletError, DuplicateKeyError,
                               ValidationError)
from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader
from repro.disk import SimulatedDisk
from repro.util.clock import VirtualClock

from ..conftest import BASE_TIME, load_v2_datadir

FIXTURES = Path(__file__).parent / "fixtures"

# --------------------------------------------------------------- helpers

_VALUE_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.DOUBLE,
                ColumnType.STRING, ColumnType.BLOB]

_INT32_EDGES = [0, 1, -1, 127, 128, -128, 2**31 - 1, -(2**31), 16383, 16384]
_INT64_EDGES = [0, 1, -1, 2**63 - 1, -(2**63), 2**32, -(2**32),
                (1 << 35) - 1, 1 << 35]
_TS_EDGES = [0, 1, 127, 128, 2**31, 2**62 - 1, 2**63 - 1]
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
        # Bit for bit: NaN payloads and the sign of zero included.
        return struct.pack("<d", a) == struct.pack("<d", b)
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
        assert block[0] == BLOCK_FORMAT_V3
        decoded, keys = codec.decode_block(block)
        assert rows_equal(decoded, rows)
        key_of = compiled_ops(schema).key_of
        assert keys == [key_of(r) for r in rows]
        assert rows_equal(list(zip(*codec.decode_block_columns(block))), rows)

    @pytest.mark.parametrize("seed", range(6))
    def test_insertion_order_batches_roundtrip(self, seed):
        """A WAL body holds a batch as it arrived: unsorted keys,
        timestamps that step backwards."""
        rng = random.Random(0xBA7C4 + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        rows = random_rows(rng, schema, rng.randint(2, 60))
        rng.shuffle(rows)
        decoded, _keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)

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
        """The key-column reader (Bloom prefixes of passed-through
        blocks) skips the other segments and agrees with the whole
        decode."""
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
            rows.append((f"key-{i:04d}", ts, i32, i64, d, s, b))
        # The widest frames there are, each in one block: INT64 min and
        # max (offsets span all 64 bits) and timestamps 0 and 2**63 - 1.
        assert {2**63 - 1, -(2**63)} <= {row[3] for row in rows}
        assert {0, 2**63 - 1} <= {row[1] for row in rows}
        rows.sort(key=compiled_ops(schema).key_of)
        decoded, _keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)

    def test_nan_payload_and_negative_zero_are_bit_exact(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("v", ColumnType.DOUBLE)], key=["ts"])
        codec = SchemaCodec(schema)
        (payload_nan,) = struct.unpack("<d", bytes.fromhex("010000000000f8ff"))
        rows = [(1, payload_nan), (2, -0.0), (3, 0.0), (4, float("nan"))]
        decoded, _keys = codec.decode_block(codec.encode_rows(rows))
        assert [struct.pack("<d", row[1]) for row in decoded] == \
            [struct.pack("<d", row[1]) for row in rows]

    def test_single_row_and_ts_only_key(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("v", ColumnType.DOUBLE)], key=["ts"])
        codec = SchemaCodec(schema)
        rows = [(123456789, float("nan"))]
        decoded, keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)
        assert keys == [(123456789,)]

    def test_constant_columns_at_every_row_count(self):
        """Equal values, equal string lengths and evenly spaced
        timestamps are constant columns: no planes at all, whatever the
        row count (one row has no timestamp differences to store)."""
        schema = Schema([Column("k", ColumnType.STRING),
                         Column("ts", ColumnType.TIMESTAMP),
                         Column("n", ColumnType.INT64)], key=["k", "ts"])
        codec = SchemaCodec(schema)
        sizes = []
        for n in (1, 2, 3, 16, 17, 160):
            rows = [(f"prefix-shared-{i:06d}", 1000 + 7 * i, -5)
                    for i in range(n)]
            block = codec.encode_rows(rows)
            decoded, _keys = codec.decode_block(block)
            assert rows_equal(decoded, rows)
            sizes.append(len(block) - 20 * n)      # 20-character keys
        assert len(set(sizes)) == 1

    @pytest.mark.parametrize("lo, span, planes", [
        (0, 0, 0), (-9, 0, 0), (5, 255, 1), (5, 256, 2), (-(2**31), 2**32 - 1, 4),
        (1 << 40, 65535, 2), (-(2**63), 2**64 - 1, 8), (0, 2**56, 8),
        (3, 250, 1),        # lo = 0 costs no extra plane: nothing subtracted
    ])
    def test_a_column_costs_its_range_in_whole_bytes(self, lo, span, planes):
        """``ceil(bit_length(max - lo) / 8)`` bytes a value, 0 to 8."""
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("n", ColumnType.INT64)], key=["ts"])
        codec = SchemaCodec(schema)
        n = 50
        rows = [(i, lo + (span if i % 2 else 0)) for i in range(n)]
        block = codec.encode_rows(rows)
        # header 5; ts: first value 8 + frame 9, unit steps are
        # constant; n: frame 9 + planes.
        assert len(block) == 5 + 8 + 9 + 9 + planes * n
        assert rows_equal(codec.decode_block(block)[0], rows)

    def test_validation_errors_still_raise(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("n", ColumnType.INT32)], key=["ts"])
        codec = SchemaCodec(schema)
        with pytest.raises(ValidationError):
            codec.validate_and_size((100, 2**31))       # int32 overflow
        with pytest.raises(ValidationError):
            codec.validate_and_size((-5, 0))            # negative ts
        with pytest.raises(ValidationError):
            codec.validate_and_size((2**63, 0))         # ts past 63 bits
        with pytest.raises(ValidationError):
            codec.validate_and_size((100, "nope"))      # wrong type
        assert codec.validate_and_size((2**63 - 1, 0))[0] == (2**63 - 1, 0)

    @pytest.mark.parametrize("row", [(100,), (100, 1, 2)])
    def test_rows_of_another_width_are_refused(self, row):
        """``zip`` pairs what it can: rows a column short (a memtable
        from before an ``append_column``) once encoded without it."""
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("n", ColumnType.INT32)], key=["ts"])
        with pytest.raises(ValueError, match="schema has 2"):
            SchemaCodec(schema).encode_rows([row])


# ------------------------------------------------------------ corruption

class TestCorruption:
    def _block(self):
        schema = Schema([
            Column("host", ColumnType.STRING),
            Column("ts", ColumnType.TIMESTAMP),
            Column("v", ColumnType.DOUBLE),
            Column("note", ColumnType.STRING),
            Column("n", ColumnType.INT64),
            Column("raw", ColumnType.BLOB),
        ], key=["host", "ts"])
        codec = SchemaCodec(schema)
        rows = [(f"host-{i % 7}", 1000 + i, i * 0.5, f"n{i}é", i * i - 50,
                 bytes(i % 5))
                for i in range(100)]
        rows.sort(key=compiled_ops(schema).key_of)
        return codec, codec.encode_rows(rows)

    def test_truncations_raise_corrupt(self):
        codec, block = self._block()
        for cut in range(len(block)):
            with pytest.raises(CorruptTabletError):
                codec.decode_block(block[:cut])
            with pytest.raises(CorruptTabletError):
                codec.decode_key_columns(block[:cut])

    def test_trailing_garbage_raises_corrupt(self):
        codec, block = self._block()
        with pytest.raises(CorruptTabletError):
            codec.decode_block(block + b"\x00")

    def test_bad_version_byte_raises_corrupt(self):
        codec, block = self._block()
        for byte in (0, 1, 4, 7, 255):
            with pytest.raises(CorruptTabletError):
                codec.decode_block(bytes([byte]) + block[1:])
        with pytest.raises(CorruptTabletError):     # a v3 body is not v2
            codec.decode_block(b"\x02" + block[1:])

    def test_plane_count_above_eight_raises_corrupt(self):
        codec, block = self._block()
        # host lengths: [u8 3][u32 n] then [i64 lo][u8 planes].
        assert block[13] <= 8
        for planes in (9, 200, 255):
            mutated = bytearray(block)
            mutated[13] = planes
            with pytest.raises(CorruptTabletError):
                codec.decode_block(bytes(mutated))

    def test_row_count_damage_fails_a_bound_before_it_sizes_anything(self):
        codec, block = self._block()
        for n in (0, 99, 101, 2**24, 2**32 - 1):
            mutated = block[:1] + struct.pack("<I", n) + block[5:]
            with pytest.raises(CorruptTabletError):
                codec.decode_block(mutated)

    def test_string_lengths_must_sum_to_the_body(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("s", ColumnType.STRING)], key=["ts"])
        codec = SchemaCodec(schema)
        block = bytearray(codec.encode_rows([(1, "ab"), (2, "abc")]))
        # header 5, ts 8 + 9; s lengths: [i64 lo = 0][u8 1][plane: 2, 3].
        assert block[22:33] == struct.pack("<qB", 0, 1) + bytes([2, 3])
        block[32] = 4           # lengths 2 + 4 != 5
        with pytest.raises(CorruptTabletError):
            codec.decode_block(bytes(block))
        block[32] = 3
        block[22:30] = struct.pack("<q", -1)    # lengths 1 + 2: negative lo
        with pytest.raises(CorruptTabletError):
            codec.decode_block(bytes(block))

    def test_bit_flips_never_raise_anything_else(self):
        # A flipped bit may still decode (e.g. inside a double), but it
        # must never escape as anything but CorruptTabletError.
        codec, block = self._block()
        for pos in range(len(block)):
            for bit in range(8):
                mutated = bytearray(block)
                mutated[pos] ^= 1 << bit
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


# ------------------------------------------------------------- raw size

def stored_rows(db, name, recorded):
    """Every row of a ``v2_datadir`` bench table, checked against the
    digest recorded when it was written."""
    rows = db.table(name).query(Query()).rows
    assert len(rows) == recorded["rows"]
    assert sum(zlib.crc32(repr(row).encode("utf-8")) for row in rows) \
        == recorded["row_crc_sum"]
    return rows


class TestRawSize:
    """Raw v3 must not outgrow raw v2.  Compression hides raw size from
    a tablet file, but two readers pay it in full: a ``KIND_BLOCK`` WAL
    body is not compressed (plain 8-byte columns took ``ingest-wire``
    ``write_amp`` from 1.26 to 1.66), and ``ReadCache.put_block``
    charges a block its raw length - ``ingest-wire``'s cold scans sit on
    an LRU cliff where a raw length 5 % above v2's took block misses
    from 386 to 622 and ``scan_rows_per_s`` from 225k to 185k."""

    @pytest.mark.parametrize("name, slack", [("usage", 1.0),
                                             ("events", 1.08)])
    def test_raw_v3_within_recorded_raw_v2(self, name, slack):
        disk, _rows, manifest = load_v2_datadir()
        recorded = manifest["tables"][name]
        db = LittleTable(disk=disk, clock=VirtualClock(start=BASE_TIME))
        rows = stored_rows(db, name, recorded)
        encode = compiled_ops(db.table(name).schema).encode_rows
        step = recorded["sorted_block_rows"]
        blocks = [len(encode(rows[i:i + step]))
                  for i in range(0, len(rows), step)]
        assert all(v3 <= v2 for v3, v2 in zip(
            blocks, recorded["v2_sorted_block_bytes"])), blocks
        # Insertion order is timestamp order (one poller, one clock).
        # 16-row batches of six columns carry 60 bytes of per-column
        # headers that v2's varints did not: within 8 % there.
        arrival = sorted(rows, key=lambda row: row[2])
        step = recorded["batch_rows"]
        batches = sum(len(encode(arrival[i:i + step]))
                      for i in range(0, len(arrival), step))
        assert batches <= slack * recorded["v2_batch_bytes"]


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


# ------------------------------------------------------ v2 compatibility

def tablet_formats(table):
    """``{tablet id: (block format, block count)}`` of a table."""
    formats = {}
    for meta in table.on_disk_tablets:
        reader = table._reader(meta)
        reader.ensure_loaded()
        formats[meta.tablet_id] = (reader.block_format, reader.block_count)
    return formats


class TestV2Compat:
    """The data directory of the last commit that wrote format v2."""

    def test_fixture_tables_read_bit_exactly(self, clock):
        disk, recorded, manifest = load_v2_datadir()
        db = LittleTable(disk=disk, clock=clock)
        mixed = db.table("mixed")
        assert {fmt for fmt, _blocks in tablet_formats(mixed).values()} \
            == {BLOCK_FORMAT_V1, BLOCK_FORMAT_V2}
        assert rows_equal(
            mixed.query(Query()).rows,
            sorted(tuple(row.values()) for row in recorded["mixed"]))
        for name in ("usage", "events"):
            table = db.table(name)
            assert {fmt for fmt, _blocks in tablet_formats(table).values()} \
                == {BLOCK_FORMAT_V2}
            stored_rows(db, name, manifest["tables"][name])
        counters = db.metrics.snapshot()["counters"]
        assert counters["codec.blocks_decoded"] > 0
        assert counters.get("codec.blocks_encoded", 0) == 0

    def test_fixture_probe_key(self, clock):
        disk, recorded, _manifest = load_v2_datadir()
        table = LittleTable(disk=disk, clock=clock).table("mixed")
        formats = tablet_formats(table)
        v2 = [meta for meta in table.on_disk_tablets
              if formats[meta.tablet_id][0] == BLOCK_FORMAT_V2]
        assert len(v2) == 2
        key_of = table.schema.key_of
        rows = sorted((tuple(row.values()) for row in recorded["mixed"]),
                      key=key_of)
        for meta in v2:
            reader = table._reader(meta)
            held = [row for row in rows
                    if meta.min_key <= key_of(row) <= meta.max_key]
            assert len(held) == meta.row_count
            for row in (held[0], held[len(held) // 2], held[-1]):
                assert reader.probe_key(key_of(row))
            network, device, ts = key_of(held[0])
            assert not reader.probe_key((network, device, ts + 999))

    def test_fixture_rows_are_still_unique_keys(self, clock):
        """The uniqueness slow path probes v2 blocks: a late duplicate
        of a stored row is refused, a late new row is admitted."""
        from repro.core.errors import DuplicateKeyError

        disk, recorded, _manifest = load_v2_datadir()
        table = LittleTable(disk=disk, clock=clock).table("mixed")
        stored = dict(recorded["mixed"][-1])
        assert stored["network"] == 3
        with pytest.raises(DuplicateKeyError):
            table.insert([stored])
        stored["ts"] -= 1
        assert table.insert([stored]) == 1


class TestMixedFormatMerge:
    def test_v1_v2_v3_tablets_merge_to_v3(self, clock, small_config):
        # Two tablets in the v1 format and two in v2, as the last
        # commit with a v2 writer left them...
        disk, recorded, _manifest = load_v2_datadir()
        clock.advance_seconds(600)
        db = LittleTable(disk=disk, config=small_config, clock=clock)
        table = db.table("mixed")
        before = tablet_formats(table)
        assert sorted(fmt for fmt, _blocks in before.values()) == [
            BLOCK_FORMAT_V1, BLOCK_FORMAT_V1, BLOCK_FORMAT_V2,
            BLOCK_FORMAT_V2]
        # ...one written today...
        fresh = [{"network": 1, "device": d, "ts": clock.now() + d,
                  "bytes": -d, "rate": d / 4} for d in range(50)]
        table.insert(fresh)
        (meta,) = table.flush_all()
        assert tablet_formats(table)[meta.tablet_id][0] == BLOCK_FORMAT_V3
        # ...merge into one v3 tablet holding exactly the rows written.
        while table.maybe_merge() is not None:
            pass
        after = tablet_formats(table)
        assert [fmt for fmt, _blocks in after.values()] == [BLOCK_FORMAT_V3]
        oracle = sorted(tuple(row.values())
                        for row in recorded["mixed"] + fresh)
        assert rows_equal(table.query(Query()).rows, oracle)
        counters = db.metrics.snapshot()["counters"]
        assert counters["codec.blocks_upgraded"] == sum(
            blocks for fmt, blocks in before.values())
