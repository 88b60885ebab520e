"""A cached block decodes what its readers take.

A block enters the read cache as its walked v3 body
(``codec.BlockBody``): the walk checks all of it, and nothing is
decoded.  A key column is decoded whole the first time a scan bisects
it; every other column only for the row stretch a scan builds.  These
tests pin what that rests on: the stretch decoder returns exactly the
rows' values in any order of stretches, threads sharing a cold entry
each get their rows, an entry read whole drops its body and still
answers, a damaged block still fails when it is opened whatever
stretch is read, and a cold scan decodes the count of values below (a
count, so a change that decodes whole blocks again fails here on any
host).
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import SchemaCodec, compiled_ops
from repro.core.errors import CorruptTabletError
from repro.core.readcache import CachedBlock, ReadCache
from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader, TabletWriter
from repro.disk import SimulatedDisk
from repro.obs.metrics import MetricsRegistry

# ------------------------------------------------- the stretch decoder

ALL_TYPES = Schema([
    Column("i32", ColumnType.INT32),
    Column("i64", ColumnType.INT64),
    Column("ts", ColumnType.TIMESTAMP),
    Column("d", ColumnType.DOUBLE),
    Column("s", ColumnType.STRING),
    Column("b", ColumnType.BLOB),
], key=["i64", "ts"])

VALUES = {
    "i32": st.integers(-(1 << 31), (1 << 31) - 1),
    # all-negative draws give the column a negative frame of reference
    "i64": st.one_of(st.integers(-(1 << 63), -1),
                     st.integers(-(1 << 63), (1 << 63) - 1)),
    "ts": st.integers(0, (1 << 63) - 1),
    "d": st.floats(allow_nan=False),
    "s": st.text(max_size=6),       # non-ASCII and empty strings
    "b": st.binary(max_size=4),     # empty blobs
}


@st.composite
def blocks(draw):
    """Rows over all six types; a column is constant (no planes kept)
    or drawn value by value."""
    n = draw(st.integers(1, 40))
    columns = []
    for column in ALL_TYPES.columns:
        values = VALUES[column.name]
        if draw(st.booleans()):
            columns.append([draw(values)] * n)
        else:
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    return list(zip(*columns))


@st.composite
def stretches(draw, n):
    """A scan's stretches over ``[0, n)``: consecutive pieces, taken
    ascending or descending, then a few anywhere."""
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=6)))
                  | {0, n}) if n > 1 else [0, 1]
    pieces = list(zip(cuts, cuts[1:]))
    if draw(st.booleans()):
        pieces.reverse()
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, n - 1))
        pieces.append((lo, draw(st.integers(lo + 1, n))))
    return pieces


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_stretch_is_the_full_decodes_slice(data):
    rows = data.draw(blocks())
    ops = compiled_ops(ALL_TYPES)
    raw = ops.encode_rows(rows)
    full = ops.decode_block_columns(raw)
    body = ops.walk_block(raw)
    for lo, hi in data.draw(stretches(len(rows))):
        for index in range(len(ALL_TYPES.columns)):
            got = body.column(index, lo, hi)
            assert got == full[index][lo:hi]
            assert got == [row[index] for row in rows[lo:hi]]


def test_threads_taking_stretches_of_one_cold_entry_get_their_rows():
    """Four threads build different stretches of one cold entry, two
    ascending and two descending, sharing its running-column
    checkpoints with the interpreter switching every microsecond."""
    schema = Schema([Column("net", ColumnType.INT64),
                     Column("ts", ColumnType.TIMESTAMP),
                     Column("note", ColumnType.STRING),
                     Column("v", ColumnType.DOUBLE)], key=["net", "ts"])
    rows = [(net, 1000 + 7 * i + net, f"n{i}é" * (i % 3), i / 3)
            for net in range(4) for i in range(300)]
    disk = SimulatedDisk()
    TabletWriter(disk, schema, 1 << 20, "zlib").write(
        "t/tab-1.lt", rows, tablet_id=1, created_at=0)
    cuts = list(range(0, len(rows) + 1, 37)) + [len(rows)]
    pieces = list(zip(cuts, cuts[1:]))
    plans = [pieces[0::2], pieces[1::2][::-1], pieces[1::2],
             pieces[0::2][::-1]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            reader = TabletReader(disk, "t/tab-1.lt", cache=ReadCache(1 << 24))
            entry = reader._scan_block(0)
            got = [[] for _ in plans]
            errors = []

            def take(plan, out):
                try:
                    for lo, hi in plan:
                        out.append((lo, hi, reader._built_rows(entry, lo, hi)))
                except Exception as exc:     # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=take, args=(plan, out))
                       for plan, out in zip(plans, got)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            for out, plan in zip(got, plans):
                assert [(lo, hi) for lo, hi, _rows in out] == plan
                for lo, hi, taken in out:
                    assert taken == rows[lo:hi]
            assert entry.rows == rows
            assert entry.body is None   # gone once the entry is complete
            assert list(zip(*reader.scan_block_columns(0))) == rows
    finally:
        sys.setswitchinterval(interval)


NOTES = Schema([Column("net", ColumnType.INT64),
                Column("ts", ColumnType.TIMESTAMP),
                Column("note", ColumnType.STRING)], key=["net", "ts"])
NOTE_ROWS = [(net, 1000 + i, "abc"[:1 + i % 3])
             for net in range(3) for i in range(50)]


@pytest.mark.parametrize("descending", [False, True])
def test_a_block_read_whole_drops_its_body(descending):
    """A scan that builds every row of a block leaves nothing for the
    body to decode: it goes, and a column asked for whole afterwards
    (a key bisect, an aggregate) comes from the rows."""
    disk = SimulatedDisk()
    TabletWriter(disk, NOTES, 1 << 20, "zlib").write(
        "t/tab-1.lt", NOTE_ROWS, tablet_id=1, created_at=0)
    reader = TabletReader(disk, "t/tab-1.lt", cache=ReadCache(1 << 24))
    got = list(reader.scan(KeyRange.all(), descending))
    assert got == (NOTE_ROWS[::-1] if descending else NOTE_ROWS)
    entry = reader._scan_block(0)
    assert entry.body is None and entry.columns == [None] * 3
    assert list(zip(*reader.scan_block_columns(0))) == NOTE_ROWS
    assert list(reader.scan(KeyRange.prefix((1,)))) == NOTE_ROWS[50:100]


# ------------------------------------------- damage found on admission

def _not_utf8(raw, rows):
    # the last bytes are the note column's body, ending in ASCII
    return raw[:-1] + b"\xff"


def _lengths_off(raw, rows):
    # the byte before the body's u32 length is the last row's length
    body_len = sum(len(row[2]) for row in rows)
    at = len(raw) - body_len - 5
    return raw[:at] + bytes([raw[at] + 1]) + raw[at + 1:]


def _truncated(raw, rows):
    return raw[:-1]


@pytest.mark.parametrize("damage, encoded", [
    pytest.param(_not_utf8, None, id="string-body-not-utf8"),
    pytest.param(_lengths_off, None, id="lengths-do-not-sum-to-the-body"),
    pytest.param(_truncated, None, id="truncated-segment"),
    # the footer counts every row; the body holds one fewer
    pytest.param(None, lambda rows: rows[:-1], id="row-count-not-footers"),
])
def test_damage_fails_the_first_scan_block(monkeypatch, damage, encoded):
    """The damage sits in the block's last row; the scan wants only
    network 0, at its start.  The walk on admission still finds it."""
    disk = SimulatedDisk()
    encode = SchemaCodec.encode_rows
    with monkeypatch.context() as patch:
        patch.setattr(SchemaCodec, "encode_rows", lambda self, rows: (
            encode(self, encoded(rows)) if encoded
            else damage(encode(self, rows), rows)))
        TabletWriter(disk, NOTES, 1 << 20, "zlib").write(
            "t/tab-1.lt", NOTE_ROWS, tablet_id=1, created_at=0)
    reader = TabletReader(disk, "t/tab-1.lt", cache=ReadCache(1 << 24))
    with pytest.raises(CorruptTabletError):
        reader._scan_block(0)
    reader = TabletReader(disk, "t/tab-1.lt", cache=ReadCache(1 << 24))
    with pytest.raises(CorruptTabletError):
        next(reader.scan(KeyRange.prefix((0,))))
    with pytest.raises(CorruptTabletError):
        reader.scan_block_columns(0, [1])


# ------------------------------------------------- the count gate

GATE = Schema([Column("net", ColumnType.INT64),
               Column("dev", ColumnType.INT64),
               Column("ts", ColumnType.TIMESTAMP),
               Column("value", ColumnType.STRING)],
              key=["net", "dev", "ts"])
GATE_ROWS = [(net, dev, 1000 + 60 * sample, f"v{net}.{dev}.{sample}")
             for net in range(8) for dev in range(10)
             for sample in range(40)]


def _cold_scan_counters():
    """One network's rows read cold from a fixed 3,200-row tablet."""
    disk = SimulatedDisk()
    TabletWriter(disk, GATE, 8192, "zlib").write(
        "t/tab-1.lt", GATE_ROWS, tablet_id=1, created_at=0)
    metrics = MetricsRegistry()
    reader = TabletReader(disk, "t/tab-1.lt", metrics,
                          cache=ReadCache(1 << 24))
    got = list(reader.scan(KeyRange.prefix((3,))))
    assert got == [row for row in GATE_ROWS if row[0] == 3]
    return reader, metrics.snapshot()["counters"]


def test_a_cold_scan_decodes_its_rows_not_its_blocks():
    """The 400 rows of network 3 lie in two blocks of 1,393 rows in all
    (``block.decoded``).  The network column is decoded whole in each
    (1,393 values) and the other three columns for the 400 rows
    (1,200 values): 2,593 values, 648 rows' worth of four columns.
    Decoding whole blocks, as the cache did before, is 1,393 rows."""
    reader, counters = _cold_scan_counters()
    touched = [entry.row_count for entry in reader.block_entries()][1:3]
    assert counters["block.decoded"] == 2
    assert sum(touched) == 1393
    assert counters["codec.rows_decoded"] == (1393 + 3 * 400) // 4 == 648
    assert counters["block.rows_decoded"] == 648
    assert counters["readcache.rows_built"] == 400


def test_the_gate_fails_when_blocks_decode_whole(monkeypatch):
    """What the gate above is for: put back a cache that decodes every
    column on admission and the count moves to the blocks' rows."""
    def scan_block_whole(self, index):
        entry = self._cache.get_block(self.cache_uid, index)
        if entry is None:
            columns, body = self.decode_payload(
                index, self.read_block_payload(index))
            entry = CachedBlock(body)
            entry.columns[:] = columns
            self._cache.put_block(self.cache_uid, index, entry)
        return entry

    monkeypatch.setattr(TabletReader, "_scan_block", scan_block_whole)
    _reader, counters = _cold_scan_counters()
    assert counters["block.decoded"] == 2
    assert counters["codec.rows_decoded"] == 1393 != 648
