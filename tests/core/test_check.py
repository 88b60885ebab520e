"""Tests for the integrity checker (repro.core.check)."""

import dataclasses

import pytest

from repro.core import LittleTable, Query, check_database, check_table, \
    is_healthy
from repro.core.check import ERROR, WARNING, repair_database
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

from ..conftest import usage_schema

BASE = 10_000 * MICROS_PER_DAY


@pytest.fixture
def world():
    clock = VirtualClock(start=BASE)
    db = LittleTable(disk=SimulatedDisk(), clock=clock)
    table = db.create_table("t", usage_schema())
    for batch in range(3):
        table.insert([
            {"network": 1, "device": d, "ts": clock.now(), "bytes": batch,
             "rate": 0.0}
            for d in range(10)
        ])
        clock.advance(MICROS_PER_MINUTE)
        table.flush_all()
    return db, table, clock


class TestHealthy:
    def test_fresh_table_is_clean(self, world):
        db, table, _clock = world
        assert check_table(table) == []
        assert is_healthy(db)

    def test_after_merging(self, world):
        db, table, clock = world
        clock.advance(120_000_000)
        while table.maybe_merge() is not None:
            pass
        assert check_table(table) == []

    def test_after_bulk_delete(self, world):
        db, table, _clock = world
        table.bulk_delete((1, 3))
        assert check_table(table) == []

    def test_after_schema_change(self, world):
        from repro.core import Column, ColumnType

        db, table, _clock = world
        table.append_column(Column("extra", ColumnType.INT64))
        table.insert([{"network": 2, "device": 1, "bytes": 0, "rate": 0.0,
                       "extra": 1}])
        table.flush_all()
        assert check_table(table) == []

    def test_empty_database(self):
        db = LittleTable(disk=SimulatedDisk(),
                         clock=VirtualClock(start=BASE))
        assert check_database(db) == {}
        assert is_healthy(db)


class TestDetection:
    def test_missing_file(self, world):
        db, table, _clock = world
        victim = table.on_disk_tablets[0]
        db.disk.delete(victim.filename)
        table.evict_reader_cache()
        issues = check_table(table)
        assert any("missing file" in issue.message for issue in issues)
        assert not is_healthy(db)

    def test_row_count_mismatch(self, world):
        db, table, _clock = world
        table.descriptor.tablets[0].row_count += 5
        table.evict_reader_cache()
        issues = check_table(table)
        assert any("row count mismatch" in issue.message
                   for issue in issues)

    def test_timespan_mismatch(self, world):
        db, table, _clock = world
        table.descriptor.tablets[0].min_ts -= 1000
        table.evict_reader_cache()
        issues = check_table(table)
        assert any("timespan mismatch" in issue.message for issue in issues)

    def test_size_mismatch(self, world):
        db, table, _clock = world
        table.descriptor.tablets[0].size_bytes += 1
        table.evict_reader_cache()
        issues = check_table(table)
        assert any("size mismatch" in issue.message for issue in issues)

    def test_duplicate_tablet_id(self, world):
        db, table, _clock = world
        version = table.descriptor
        table.descriptor = dataclasses.replace(
            version, tablets=version.tablets + version.tablets[:1])
        issues = check_table(table)
        assert any("duplicate tablet id" in issue.message
                   for issue in issues)

    def test_next_id_reuse(self, world):
        db, table, _clock = world
        table.descriptor = dataclasses.replace(table.descriptor,
                                               next_tablet_id=1)
        issues = check_table(table)
        assert any("reuse" in issue.message for issue in issues)

    def test_key_held_by_two_live_tablets(self, world):
        """Each tablet is sorted and unique by itself, but a second
        copy of one under another id serves every row twice."""
        db, table, _clock = world
        version = table.descriptor
        original = version.tablets[0]
        twin = dataclasses.replace(
            original, tablet_id=version.next_tablet_id,
            filename=version.tablet_filename(version.next_tablet_id))
        db.disk.storage.write_file(
            twin.filename, db.disk.storage.read_all(original.filename))
        table.descriptor = dataclasses.replace(
            version, tablets=version.tablets + (twin,),
            next_tablet_id=twin.tablet_id + 1)
        issues = check_table(table)
        shared = [issue for issue in issues
                  if "is held by live tablets" in issue.message]
        assert len(shared) == 1
        assert shared[0].severity == ERROR
        assert shared[0].tablet_id == 0  # no copy is the damaged one
        assert shared[0].message.endswith(
            f"tablets {original.tablet_id} and {twin.tablet_id}")
        assert not is_healthy(db)
        assert repair_database(db) == {}

    def test_corrupt_footer(self, world):
        db, table, _clock = world
        victim = table.on_disk_tablets[0]
        data = bytearray(db.disk.storage.read_all(victim.filename))
        data[-8:] = b"\xff" * 8
        db.disk.storage.delete(victim.filename)
        db.disk.storage.write_file(victim.filename, bytes(data))
        table.evict_reader_cache()
        issues = check_table(table)
        assert any(issue.severity == ERROR for issue in issues)

    def test_missing_bloom_is_warning(self, world):
        db, table, _clock = world
        # Write one tablet without a Bloom filter by flipping config
        # during a flush, then restore it.
        table.config.bloom_filters = False
        table.insert([{"network": 9, "device": 1, "bytes": 0, "rate": 0.0}])
        table.flush_all()
        table.config.bloom_filters = True
        table.evict_reader_cache()
        issues = check_table(table)
        assert issues
        assert all(issue.severity == WARNING for issue in issues)
        assert is_healthy(db)  # warnings do not fail health

    def test_issue_str_is_readable(self, world):
        db, table, _clock = world
        table.descriptor.tablets[0].row_count += 1
        table.evict_reader_cache()
        issue = check_table(table)[0]
        text = str(issue)
        assert "t/tab-" in text
        assert "[error]" in text
