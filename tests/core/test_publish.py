"""A table's version changes only by a publish that writes it first.

``Table._publish`` builds the next frozen ``TableDescriptor``, writes
it, and only then binds it and runs the caller's bookkeeping.  So when
the write fails, every operation that publishes - flush, merge, TTL
expiry, cold migration, bulk delete's rewrite, quarantine and the DDL
calls - leaves the table as it was, in memory and on disk, and running
it again succeeds.
"""

import pytest

from repro.core import (Column, ColumnType, EngineConfig, LittleTable,
                        Query, is_healthy)
from repro.core.descriptor import TableDescriptor
from repro.core.errors import NoSuchTableError
from repro.disk import SimulatedDisk
from repro.disk.storage import StorageError
from repro.disk.faults import FaultyVFS, InjectedIOError
from repro.util.clock import MICROS_PER_HOUR, MICROS_PER_WEEK, VirtualClock

from ..conftest import BASE_TIME, usage_schema

SITE = "descriptor.before_rename"


def row(device, ts, network=1):
    return {"network": network, "device": device, "ts": ts, "bytes": device,
            "rate": 0.0}


@pytest.fixture
def world():
    """An old tablet ten weeks back and three recent ones in one
    period (a merge is due), everything flushed."""
    clock = VirtualClock(start=BASE_TIME)
    db = LittleTable(disk=FaultyVFS(), clock=clock, cold_disk=SimulatedDisk(),
                     config=EngineConfig(merge_min_age_micros=0))
    table = db.create_table("usage", usage_schema())
    table.insert([row(d, clock.now() - 10 * MICROS_PER_WEEK)
                  for d in range(5)])
    table.flush_all()
    for batch in range(3):
        table.insert([row(d, clock.now() + batch) for d in range(5)])
        table.flush_all()
    return db, table, clock


def rows(table):
    return list(table.scan(Query()))


def recent(table_rows):
    """All but the old tablet's rows."""
    return [r for r in table_rows if r[2] >= BASE_TIME]


def on_disk(db, table):
    return TableDescriptor.load(db.disk, table.name).to_json()


def run_flush(table, clock):
    return table.flush_all()


def check_flush(table, before, written):
    assert len(written) == 1
    assert table.unflushed_memtable_count == 0
    assert rows(table) == before


def run_merge(table, clock):
    return table.maybe_merge()


def check_merge(table, before, plan):
    assert plan is not None and len(plan.tablets) == 3
    assert len(table.descriptor.tablets) == 2
    assert rows(table) == before


def run_expire(table, clock):
    return table.expire_tablets()


def check_expire(table, before, expired):
    assert expired == 1
    assert len(table.descriptor.tablets) == 3
    assert rows(table) == before


def run_migrate(table, clock):
    return table.migrate_to_cold(clock.now() - MICROS_PER_WEEK)


def check_migrate(table, before, migrated):
    assert migrated == 1
    assert sorted(t.tier for t in table.descriptor.tablets) == [
        "cold", "hot", "hot", "hot"]
    table.evict_reader_cache()
    assert rows(table) == before


def run_bulk_delete(table, clock):
    return table.bulk_delete((1, 3))


def check_bulk_delete(table, before, removed):
    assert removed == 4
    assert rows(table) == [r for r in before if r[:2] != (1, 3)]


def run_quarantine(table, clock):
    return table.quarantine_tablet(table.descriptor.tablets[0], "test")


def check_quarantine(table, before, moved):
    assert moved is True
    assert len(table.descriptor.tablets) == 3
    assert rows(table) == recent(before)


def run_set_ttl(table, clock):
    return table.set_ttl(MICROS_PER_WEEK)


def check_set_ttl(table, before, _result):
    assert table.descriptor.ttl_micros == MICROS_PER_WEEK
    assert rows(table) == recent(before)  # reads apply the TTL


def run_append_column(table, clock):
    return table.append_column(Column("extra", ColumnType.INT64))


def check_append_column(table, before, _result):
    assert len(table.schema.columns) == 6
    assert rows(table) == [r + (0,) for r in before]


OPERATIONS = {
    "flush": (run_flush, check_flush),
    "merge": (run_merge, check_merge),
    "ttl_expiry": (run_expire, check_expire),
    "cold_migration": (run_migrate, check_migrate),
    "bulk_delete": (run_bulk_delete, check_bulk_delete),
    "quarantine": (run_quarantine, check_quarantine),
    "set_ttl": (run_set_ttl, check_set_ttl),
    "append_column": (run_append_column, check_append_column),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_failed_publish_changes_nothing_and_the_retry_succeeds(world, name):
    db, table, clock = world
    run, check = OPERATIONS[name]
    if name == "flush":
        table.insert([row(d, clock.now() + 10) for d in range(5, 10)])
    if name == "ttl_expiry":
        table.set_ttl(MICROS_PER_WEEK)
    version = table.descriptor
    before = rows(table)
    db.disk.failpoints.set(SITE, "eio")
    with pytest.raises(InjectedIOError):
        run(table, clock)
    assert db.disk.failpoints.fired.get(SITE) == 1
    assert table.descriptor is version
    assert rows(table) == before
    assert on_disk(db, table) == version.to_json()
    assert not [name for name in db.disk.list("tables/usage/")
                if ".tmp-" in name]
    db.disk.failpoints.clear()
    check(table, before, run(table, clock))
    assert on_disk(db, table) == table.descriptor.to_json()
    assert table.descriptor.generation > version.generation
    assert is_healthy(db)


def test_a_failed_flush_is_served_once_and_flushed_once(world):
    """The group stays queued, so the next maintenance pass publishes
    it, and no tablet ever repeats its rows."""
    db, table, clock = world
    table.insert([row(d, clock.now() + 10, network=2) for d in range(10)])
    expected = rows(table)
    db.disk.failpoints.set(SITE, "eio")
    with pytest.raises(InjectedIOError):
        table.flush_all()
    assert rows(table) == expected
    assert table.flush_pending_count == 1
    report = db.maintenance()
    assert report.flushed == 1 and not report.errors
    assert table.unflushed_memtable_count == 0
    assert rows(table) == expected
    assert is_healthy(db)
    reopened = db.simulate_crash().table("usage")
    assert list(reopened.scan(Query())) == expected


def test_a_failed_ddl_call_takes_no_effect(world):
    db, table, clock = world
    db.disk.failpoints.set(SITE, "eio", count=2)
    with pytest.raises(InjectedIOError):
        table.set_ttl(1)
    with pytest.raises(InjectedIOError):
        table.append_column(Column("extra", ColumnType.INT64))
    assert table.descriptor.ttl_micros is None
    assert len(table.schema.columns) == 5
    clock.advance(MICROS_PER_HOUR)
    db.maintenance()  # its merge publishes the version as it is
    assert on_disk(db, table) == table.descriptor.to_json()
    reopened = db.simulate_crash().table("usage")
    assert reopened.descriptor.ttl_micros is None
    assert len(reopened.schema.columns) == 5
    assert len(list(reopened.scan(Query()))) == 20


def test_a_fault_after_the_write_leaves_the_version_published(world):
    """The version is bound once written: the group leaves the read
    set with it, and a retry has nothing left to flush."""
    db, table, clock = world
    table.insert([row(d, clock.now() + 10, network=2) for d in range(10)])
    expected = rows(table)
    db.disk.failpoints.set("flush.after_descriptor", "eio")
    with pytest.raises(InjectedIOError):
        table.flush_all()
    assert on_disk(db, table) == table.descriptor.to_json()
    assert table.unflushed_memtable_count == 0
    assert rows(table) == expected
    assert table.flush_all() == []


def test_a_file_that_cannot_be_reclaimed_does_not_fail_the_merge(world):
    """The merge is published before its inputs are deleted; a delete
    that fails leaves orphans for the startup scrub."""
    db, table, clock = world
    before = rows(table)
    db.disk.failpoints.set("disk.delete", "eio", count=3)
    plan = table.maybe_merge()
    assert plan is not None and len(table.descriptor.tablets) == 2
    assert all(db.disk.exists(meta.filename) for meta in plan.tablets)
    assert rows(table) == before and is_healthy(db)
    reopened = db.simulate_crash()
    assert len(reopened.last_scrub.orphans_removed) == 3
    assert list(reopened.table("usage").scan(Query())) == before


@pytest.mark.parametrize("recreate", [False, True])
def test_a_dropped_table_publishes_nothing(world, recreate):
    """A read pinned before the drop meets vanished files; its
    quarantine must not save the dropped version back to disk."""
    db, table, clock = world
    with table._read_plan() as plan:
        db.drop_table("usage")
        if recreate:
            fresh = db.create_table("usage", usage_schema())
            fresh.insert([row(d, clock.now() + 20) for d in range(3)])
            fresh.flush_all()
            expected = rows(fresh)
        with pytest.raises((NoSuchTableError, StorageError)):
            for meta in plan.version.tablets:
                list(plan.tablet_rows(meta))
    if not recreate:
        assert not TableDescriptor.exists(db.disk, "usage")
        assert "usage" not in db.simulate_crash().table_names()
        return
    assert on_disk(db, fresh) == fresh.descriptor.to_json()
    assert list(db.simulate_crash().table("usage").scan(Query())) == expected
