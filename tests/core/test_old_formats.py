"""Old on-disk formats are refused, never read, moved or skipped.

The engine reads one layout: v3 blocks in checksummed (v2.1) tablets
and v3 ``KIND_BLOCK`` WAL records.  ``fixtures/`` keeps the bytes
earlier writers left in every other layout:

* ``v1_tablet_*.bin`` - tablets ending in the pre-v2.1 16-byte trailer;
* ``v1_datadir`` - v1 (row-major) blocks in v2.1 tablets;
* ``v2_datadir`` - v2 (varint-column) blocks in v2.1 tablets;
* ``wal_kind_rows_segment.bin`` - ``KIND_ROWS`` WAL records;
* ``wal_kind_block_v2_segment.bin`` - ``KIND_BLOCK`` records whose
  bodies are v2 blocks.

Each is refused with :class:`UnsupportedFormatError` at whichever door
meets it first - an embedded open or read, a 2-shard router, ``ltdb
fsck`` with and without ``--repair``, ``ltdb serve`` - and every case
checks that the data directory is byte-identical afterwards: nothing
quarantined, skipped, recycled or rewritten, and no shard marked down.
A pre-v2.1 trailer or an old WAL record fails the open (the startup
scrub and replay meet them); v1 and v2 blocks sit behind a sound v2.1
trailer, so their open succeeds and the first footer load refuses
them.  Their rows live on in ``fixtures/v3/`` (``conftest.py``).
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import fsck_main, serve_main
from repro.core import DurabilityPolicy, LittleTable, Query
from repro.core.descriptor import TableDescriptor
from repro.core.errors import (SUPPORTED_FORMAT, CorruptTabletError,
                               UnsupportedFormatError)
from repro.core.row import KeyRange, TimeRange
from repro.core.schema import Schema
from repro.core.tablet import TabletMeta
from repro.core.vector import AggregateSpec
from repro.disk import SimulatedDisk
from repro.disk.storage import FileStorage
from repro.net.shard import ShardRouter, open_layout
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import usage_schema

FIXTURES = Path(__file__).parent / "fixtures"
BASE = 10_000 * MICROS_PER_DAY


def legacy_tablet(name, root):
    """A table whose one tablet is ``name``, as the v1 writer left it."""
    data = (FIXTURES / name).read_bytes()
    schema = Schema.from_dict(
        json.loads((FIXTURES / "v1_tablet_schema.json").read_text()))
    rows = json.loads((FIXTURES / "v1_tablet_rows.json").read_text())
    ts = [row[schema.ts_index] for row in rows]
    meta = TabletMeta(1, "tables/t/tab-00000001.lt", min(ts), max(ts),
                      len(rows), len(data), schema.version, max(ts))
    disk = SimulatedDisk(FileStorage(str(root)))
    disk.write_file(meta.filename, data)
    TableDescriptor("t", schema, tablets=[meta], next_tablet_id=2).save(disk)


def old_datadir(name, root):
    shutil.copytree(FIXTURES / name / "tables", root / "tables")


def old_wal_segment(name, root):
    """A wal-tier table ``t`` whose log is the recorded segment."""
    recorded = json.loads((FIXTURES / f"{name}.json").read_text())
    db = LittleTable.open(str(root), clock=VirtualClock(start=BASE),
                          durability=DurabilityPolicy(tier="wal"))
    db.create_table("t", usage_schema())
    db.close()
    (root / recorded["segment"]).write_bytes(
        (FIXTURES / f"{name}_segment.bin").read_bytes())


CASES = {
    "v1_tablet_none.bin": legacy_tablet,
    "v1_tablet_zlib.bin": legacy_tablet,
    "v1_datadir": old_datadir,
    "v2_datadir": old_datadir,
    "wal_kind_rows": old_wal_segment,
    "wal_kind_block_v2": old_wal_segment,
}
#: Met by the startup scrub or by replay, so the open itself fails.
REFUSED_AT_OPEN = ["v1_tablet_none.bin", "v1_tablet_zlib.bin",
                   "wal_kind_rows", "wal_kind_block_v2"]


def build(case, root):
    root.mkdir(parents=True)
    CASES[case](case, root)


def router_dir(case, root):
    """``case`` as shard 0 of a 2-shard router's directory, beside the
    manifest that router writes first."""
    open_layout(str(root), 2)
    build(case, root / "shard-00")


def files(root):
    """Every file under ``root`` with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def open_db(root):
    return LittleTable.open(str(root), clock=VirtualClock(start=BASE))


def count_rows(table):
    return table.aggregate_partials(AggregateSpec(
        key_range=KeyRange.all(), time_range=TimeRange.all(),
        group_indexes=(), bucket_width=None,
        aggregates=(("COUNT", None),), residuals=()))


READS = [lambda table: table.query(Query()),
         lambda table: table.latest(table.on_disk_tablets[0].min_key[:1]),
         count_rows]


@pytest.mark.parametrize("case", sorted(CASES))
def test_embedded_open_or_first_read_refuses(case, tmp_path):
    root = tmp_path / "db"
    build(case, root)
    before = files(root)
    if case in REFUSED_AT_OPEN:
        with pytest.raises(UnsupportedFormatError, match=SUPPORTED_FORMAT):
            open_db(root)
    else:
        with open_db(root) as db:
            for name in db.table_names():
                table = db.table(name)
                held = list(table.on_disk_tablets)
                for read in READS:
                    with pytest.raises(UnsupportedFormatError,
                                       match=SUPPORTED_FORMAT):
                        read(table)
                assert table.on_disk_tablets == held
            counters = db.metrics.snapshot()["counters"]
            assert counters.get("storage.quarantined_tablets", 0) == 0
    assert files(root) == before


def twin_tables(root, shard):
    """Shard ``shard`` under ``root`` holding, empty, the tables the
    old data in shard 0 has."""
    source = SimulatedDisk(FileStorage(str(root / "shard-00")))
    with LittleTable.open(str(root / f"shard-{shard:02d}")) as db:
        for name in TableDescriptor.list_tables(source):
            db.create_table(name, TableDescriptor.load(source, name).schema)


@pytest.mark.parametrize("case", sorted(CASES))
def test_two_shard_router_refuses_and_stays_up(case, tmp_path):
    root = tmp_path / "db"
    router_dir(case, root)
    if case in REFUSED_AT_OPEN:
        before = files(root)
        with pytest.raises(UnsupportedFormatError, match=SUPPORTED_FORMAT):
            ShardRouter(shards=2, data_dir=str(root))
        assert files(root) == before
        return
    twin_tables(root, 1)
    before = files(root)
    router = ShardRouter(shards=2, data_dir=str(root),
                         clock=VirtualClock(start=BASE))
    try:
        for name in router.table_names():
            with pytest.raises(UnsupportedFormatError,
                               match=SUPPORTED_FORMAT):
                router.table(name).query(Query())
        assert router.degraded_shards == {}
    finally:
        router.close()
    assert files(root) == before


@pytest.mark.parametrize("repair", [False, True], ids=["check", "repair"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fsck_exits_2_and_repairs_nothing(case, repair, tmp_path, capsys):
    root = tmp_path / "db"
    build(case, root)
    before = files(root)
    argv = ["--data", str(root)] + (["--repair"] if repair else [])
    assert fsck_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fsck: unsupported format: ")
    assert SUPPORTED_FORMAT in err
    assert files(root) == before


@pytest.mark.parametrize("case", REFUSED_AT_OPEN)
def test_serve_exits_nonzero(case, tmp_path, capsys):
    root = tmp_path / "db"
    router_dir(case, root)
    before = files(root)
    assert serve_main(["--data", str(root), "--shards", "2",
                       "--port", "0"]) != 0
    assert capsys.readouterr().err.startswith("serve: unsupported format: ")
    assert files(root) == before


def test_refusal_is_not_corruption():
    """Nothing that handles damage - quarantine, the WAL's torn-tail
    stop, the shard router's crash isolation - handles this."""
    assert not issubclass(UnsupportedFormatError, CorruptTabletError)


def fresh_tablet():
    db = LittleTable(disk=SimulatedDisk(), clock=VirtualClock(start=BASE))
    table = db.create_table("t", usage_schema())
    table.insert([{"network": 1, "device": d, "ts": BASE + d, "bytes": d,
                   "rate": 0.0} for d in range(50)])
    table.flush_all()
    return db, table.on_disk_tablets[0]


def test_descriptor_without_checksum_fails_the_open():
    db, _meta = fresh_tablet()
    path = "tables/t/descriptor.json"
    body = json.loads(db.disk.storage.read_all(path))
    del body["checksum"]
    unchecked = json.dumps(body, sort_keys=True).encode("utf-8")
    db.disk.storage.delete(path)
    db.disk.storage.write_file(path, unchecked)
    with pytest.raises(UnsupportedFormatError,
                       match="descriptor of table 't': no checksum"):
        LittleTable(disk=db.disk, clock=VirtualClock(start=BASE))
    assert db.disk.storage.read_all(path) == unchecked
