"""Tests for repro.core.descriptor."""

import dataclasses

import pytest

from repro.core import LittleTable
from repro.core.descriptor import TableDescriptor
from repro.core.errors import CorruptTabletError
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletMeta
from repro.disk import SimulatedDisk
from repro.disk.faults import CrashPoint, FaultyVFS, InjectedIOError
from repro.util.clock import VirtualClock

from ..conftest import BASE_TIME as BASE


def make_schema():
    return Schema(
        [Column("k", ColumnType.INT64), Column("ts", ColumnType.TIMESTAMP)],
        key=["k", "ts"],
    )


def make_meta(tablet_id=1):
    return TabletMeta(
        tablet_id=tablet_id, filename=f"tables/t/tab-{tablet_id:08d}.lt",
        min_ts=100, max_ts=200, row_count=10, size_bytes=1234,
        schema_version=1, created_at=50,
    )


class TestDescriptor:
    def test_save_load_round_trip(self):
        disk = SimulatedDisk()
        desc = TableDescriptor("t", make_schema(), ttl_micros=999,
                               tablets=[make_meta()])
        desc.save(disk)
        loaded = TableDescriptor.load(disk, "t")
        assert loaded.name == "t"
        assert loaded.schema == make_schema()
        assert loaded.ttl_micros == 999
        assert len(loaded.tablets) == 1
        assert loaded.tablets[0] == make_meta()

    def test_save_replaces_atomically(self):
        disk = SimulatedDisk()
        desc = TableDescriptor("t", make_schema())
        desc.save(disk)
        desc = dataclasses.replace(desc, tablets=(make_meta(),),
                                   generation=desc.generation + 1)
        desc.save(disk)
        loaded = TableDescriptor.load(disk, "t")
        assert len(loaded.tablets) == 1
        # No temp files left behind.
        assert disk.list("tables/t/") == ["tables/t/descriptor.json"]

    def test_tablet_id_allocation(self):
        """Ids come from the table's counter; each published version
        records it."""
        clock = VirtualClock(start=BASE)
        table = LittleTable(clock=clock).create_table("t", make_schema())
        assert table.descriptor.next_tablet_id == 1
        for k in (1, 2):
            table.insert([{"k": k, "ts": clock.now()}])
            table.flush_all()
        assert [t.tablet_id for t in table.descriptor.tablets] == [1, 2]
        assert table.descriptor.next_tablet_id == 3

    def test_allocation_survives_round_trip(self):
        disk = SimulatedDisk()
        TableDescriptor("t", make_schema(), next_tablet_id=3).save(disk)
        loaded = TableDescriptor.load(disk, "t")
        assert loaded.next_tablet_id == 3
        table = LittleTable(disk=disk).table("t")
        table.insert([{"k": 1, "ts": BASE}])
        assert [t.tablet_id for t in table.flush_all()] == [3]

    def test_failed_save_leaves_no_temp_and_retries(self):
        disk = FaultyVFS()
        desc = TableDescriptor("t", make_schema(), generation=4)
        desc.save(disk)
        nxt = dataclasses.replace(desc, tablets=(make_meta(),),
                                  generation=5)
        disk.failpoints.set("descriptor.before_rename", "eio")
        with pytest.raises(InjectedIOError):
            nxt.save(disk)
        assert disk.list("tables/t/") == ["tables/t/descriptor.json"]
        assert TableDescriptor.load(disk, "t").tablets == ()
        nxt.save(disk)  # the same temp name again
        assert TableDescriptor.load(disk, "t").tablets == (make_meta(),)

    def test_crash_leaves_the_temp_for_the_scrub(self):
        disk = FaultyVFS()
        desc = TableDescriptor("t", make_schema(), generation=2)
        disk.failpoints.set("descriptor.before_rename", "crash")
        with pytest.raises(CrashPoint):
            desc.save(disk)
        assert disk.list("tables/t/") == ["tables/t/descriptor.json.tmp-2"]

    def test_tablet_filename(self):
        desc = TableDescriptor("usage", make_schema())
        assert desc.tablet_filename(7) == "tables/usage/tab-00000007.lt"

    def test_exists_and_list(self):
        disk = SimulatedDisk()
        assert not TableDescriptor.exists(disk, "t")
        TableDescriptor("t", make_schema()).save(disk)
        TableDescriptor("usage", make_schema()).save(disk)
        assert TableDescriptor.exists(disk, "t")
        assert TableDescriptor.list_tables(disk) == ["t", "usage"]

    def test_corrupt_json_raises(self):
        disk = SimulatedDisk()
        disk.write_file("tables/bad/descriptor.json", b"{not json")
        with pytest.raises(CorruptTabletError):
            TableDescriptor.load(disk, "bad")

    def test_missing_fields_raise(self):
        disk = SimulatedDisk()
        disk.write_file("tables/bad/descriptor.json", b"{}")
        with pytest.raises(CorruptTabletError):
            TableDescriptor.load(disk, "bad")
