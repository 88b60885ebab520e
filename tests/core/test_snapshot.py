"""Point-in-time snapshot / restore suites.

``db.snapshot(dest)`` captures a consistent cut - COW descriptor
capture plus hard-linked (or copied) sealed tablets plus sidecar
tablets for unflushed memtable rows - while inserts and background
merges keep running.  The result is itself a valid LittleTable data
directory; ``repro.restore(src)`` / ``db.restore(src)`` copy it back
into a live engine.
"""

import threading

import pytest

import repro
from repro.core import (
    Column,
    ColumnType,
    DurabilityPolicy,
    EngineConfig,
    LittleTable,
    Query,
    SnapshotError,
    is_healthy,
)
from repro.core.memtable import MemTable
from repro.core.snapshot import SNAPSHOT_MANIFEST, load_manifest
from repro.disk import MemoryStorage, SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import usage_schema

BASE = 10_000 * MICROS_PER_DAY


def small_config() -> EngineConfig:
    return EngineConfig(
        block_size_bytes=1024,
        flush_size_bytes=16 * 1024,
        max_merged_tablet_bytes=256 * 1024,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
    )


def row_for(device: int, index: int) -> dict:
    return {"network": 1, "device": device, "ts": BASE + index,
            "bytes": index, "rate": 0.0}


def build_db(durability=None):
    clock = VirtualClock(start=BASE)
    db = LittleTable(disk=SimulatedDisk(), clock=clock,
                     config=small_config(), durability=durability)
    db.create_table("t", usage_schema())
    return db, clock


class TestRoundTrip:
    def test_sealed_plus_memtable_rows(self):
        db, clock = build_db()
        table = db.table("t")
        table.insert([row_for(1, i) for i in range(100)])
        table.flush_all()                       # sealed tablet
        table.insert([row_for(1, 100 + i) for i in range(50)])  # memtable
        dest = MemoryStorage()
        summary = db.snapshot(dest)
        assert summary["tables"]["t"]["memtable_rows_captured"] == 50
        # The snapshot is a valid data directory in its own right.
        standalone = LittleTable(disk=SimulatedDisk(dest),
                                 clock=VirtualClock(start=BASE))
        assert len(standalone.table("t").query(Query()).rows) == 150
        assert is_healthy(standalone)
        # And restores into a fresh engine.
        restored = repro.restore(dest)
        rows = restored.table("t").query(Query()).rows
        assert rows == db.table("t").query(Query()).rows
        assert restored.table("t").schema.to_dict() == \
            table.schema.to_dict()
        restored.close()

    def test_memtable_older_than_a_schema_change(self):
        """A memtable filled before ``append_column`` holds rows of
        the old width until it is flushed; its sidecar tablet is
        written under that schema, as the flush would write it."""
        db, clock = build_db()
        table = db.table("t")
        table.insert([row_for(1, i) for i in range(50)])
        table.append_column(Column("extra", ColumnType.INT64, default=7))
        table.insert([dict(row_for(2, i), extra=i) for i in range(5)])
        dest = MemoryStorage()
        summary = db.snapshot(dest)
        assert summary["tables"]["t"]["memtable_rows_captured"] == 55
        restored = repro.restore(dest)
        rows = restored.table("t").query(Query()).rows
        assert rows == db.table("t").query(Query()).rows
        assert [row[-1] for row in rows] == [7] * 50 + list(range(5))
        restored.close()

    def test_snapshot_of_wal_tier_restores_without_wal(self):
        db, clock = build_db(durability=DurabilityPolicy(tier="wal"))
        db.table("t").insert([row_for(1, i) for i in range(40)])
        dest = MemoryStorage()
        db.snapshot(dest)
        # Memtable rows were materialized into sidecar tablets: the
        # snapshot needs no log replay and carries no log segments.
        assert not [n for n in dest.list() if "wal-" in n]
        restored = repro.restore(dest)
        assert len(restored.table("t").query(Query()).rows) == 40
        restored.close()

    def test_manifest_contents(self):
        db, clock = build_db()
        db.table("t").insert([row_for(1, 0)])
        dest = MemoryStorage()
        db.snapshot(dest)
        manifest = load_manifest(dest)
        assert sorted(manifest["tables"]) == ["t"]
        assert dest.exists(SNAPSHOT_MANIFEST)

    def test_ttl_survives(self):
        db, clock = build_db()
        db.create_table("ttl_t", usage_schema(),
                        ttl_micros=7 * MICROS_PER_DAY)
        dest = MemoryStorage()
        db.snapshot(dest)
        restored = repro.restore(dest)
        assert restored.table("ttl_t").ttl_micros == 7 * MICROS_PER_DAY
        restored.close()


class TestErrors:
    def test_dest_must_be_empty(self):
        db, clock = build_db()
        dest = MemoryStorage()
        dest.write_file("leftover", b"x")
        with pytest.raises(SnapshotError):
            db.snapshot(dest)

    def test_restore_conflict_rejected_before_copying(self):
        db, clock = build_db()
        db.table("t").insert([row_for(1, 0)])
        dest = MemoryStorage()
        db.snapshot(dest)
        target = LittleTable(disk=SimulatedDisk(),
                             clock=VirtualClock(start=BASE))
        target.create_table("t", usage_schema())
        with pytest.raises(SnapshotError):
            target.restore(dest)
        # Nothing was half-copied into the target.
        assert len(target.table("t").query(Query()).rows) == 0

    def test_restore_requires_manifest(self):
        db, clock = build_db()
        with pytest.raises(SnapshotError):
            db.restore(MemoryStorage())

    def test_failed_restore_unwinds_landed_files(self):
        """A storage error mid-copy must install nothing: files landed
        before the failure are deleted, so the next startup opens no
        half-restored tables."""
        from repro.disk.storage import StorageError

        db, clock = build_db()
        db.table("t").insert([row_for(1, i) for i in range(100)])
        db.table("t").flush_all()
        db.table("t").insert([row_for(2, i) for i in range(50)])
        dest = MemoryStorage()
        db.snapshot(dest)
        assert len(dest.list("tables/t/")) >= 3
        target = LittleTable(disk=SimulatedDisk(), clock=clock,
                             config=small_config())
        real_write = target.disk.write_file
        calls = {"n": 0}

        def flaky_write(filename, data):
            calls["n"] += 1
            if calls["n"] == 2:
                raise StorageError("synthetic mid-copy failure")
            return real_write(filename, data)

        target.disk.write_file = flaky_write
        with pytest.raises(SnapshotError):
            target.restore(dest)
        target.disk.write_file = real_write
        assert not target.has_table("t")
        assert target.disk.storage.list("tables/") == []
        # A fresh open over the same disk sees no trace either.
        reopened = LittleTable(disk=target.disk, clock=clock,
                               config=small_config())
        assert reopened.table_names() == []
        # And the restore works once the fault clears.
        target.restore(dest)
        assert len(target.table("t").query(Query()).rows) == 150

    def test_corrupt_manifest_rejected(self):
        db, clock = build_db()
        db.table("t").insert([row_for(1, 0)])
        dest = MemoryStorage()
        db.snapshot(dest)
        data = dest.read_all(SNAPSHOT_MANIFEST)
        dest.delete(SNAPSHOT_MANIFEST)
        dest.write_file(SNAPSHOT_MANIFEST, data[:-5] + b"xxxxx")
        with pytest.raises(SnapshotError):
            repro.restore(dest)


class TestPointInTime:
    def test_snapshot_under_concurrent_inserts_and_merges(self):
        """Writers append sequentially per device while maintenance
        flushes and merges; a snapshot taken mid-stream must restore a
        *consistent* cut: per device an exact contiguous prefix."""
        db, clock = build_db()
        table = db.table("t")
        stop = threading.Event()
        errors = []

        def writer(device):
            index = 0
            while not stop.is_set():
                table.insert([row_for(device, index)])
                index += 1

        def churner():
            while not stop.is_set():
                try:
                    db.maintenance()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=writer, args=(device,))
                   for device in (1, 2, 3)]
        threads.append(threading.Thread(target=churner))
        for thread in threads:
            thread.start()
        try:
            # Let tablets accumulate, then cut mid-flight.
            while table.stats_summary()["rows"] < 500:
                pass
            dest = MemoryStorage()
            db.snapshot(dest)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        restored = repro.restore(dest)
        rows = restored.table("t").query(Query()).rows
        assert rows, "snapshot missed all rows"
        by_device = {}
        for row in rows:
            by_device.setdefault(row[1], []).append(row[2] - BASE)
        for device, indexes in sorted(by_device.items()):
            assert indexes == list(range(len(indexes))), (
                f"device {device}: snapshot cut is not a contiguous "
                f"prefix (holes or reordering)")
        assert is_healthy(restored)
        restored.close()


class WatchedLock:
    """``table.lock`` with a depth count and a one-shot hook that runs
    right after its next outermost release."""

    def __init__(self, lock):
        self.lock = lock
        self.depth = 0
        self.after_release = None

    def __enter__(self):
        self.lock.acquire()
        self.depth += 1

    def __exit__(self, *_exc_info):
        self.depth -= 1
        self.lock.release()
        if not self.depth and self.after_release is not None:
            hook, self.after_release = self.after_release, None
            hook()


class TestTheCut:
    """Phase 1 holds the state lock for the cut only: a memtable's
    rows are laid out as a run after it is let go."""

    @pytest.mark.parametrize("rows", [500, 8000])
    def test_no_row_is_touched_under_the_state_lock(self, rows, monkeypatch):
        db = LittleTable(disk=SimulatedDisk(),
                         clock=VirtualClock(start=BASE))
        table = db.create_table("t", usage_schema())
        for start in range(0, rows, 100):
            table.insert([row_for(1, start + i) for i in range(100)])
        watched = table.lock = WatchedLock(table.lock)
        under_lock = []
        sorted_run = MemTable.sorted_run

        def counting(memtable, *args):
            run = sorted_run(memtable, *args)
            if watched.depth:
                under_lock.append(len(run[0]))
            return run

        monkeypatch.setattr(MemTable, "sorted_run", counting)
        summary = db.snapshot(MemoryStorage())
        assert summary["tables"]["t"]["memtable_rows_captured"] == rows
        assert not under_lock

    def test_a_batch_admitted_after_the_cut_is_not_in_the_snapshot(self):
        db, _clock = build_db()
        table = db.table("t")
        table.insert([row_for(1, i) for i in range(50)])
        watched = table.lock = WatchedLock(table.lock)
        # Between the cut and the laying-out of the captured rows.
        watched.after_release = lambda: table.insert(
            [row_for(1, 50 + i) for i in range(10)])
        dest = MemoryStorage()
        summary = db.snapshot(dest)
        assert watched.after_release is None
        assert summary["tables"]["t"]["memtable_rows_captured"] == 50
        assert len(db.table("t").query(Query()).rows) == 60
        restored = repro.restore(dest)
        rows = restored.table("t").query(Query()).rows
        assert [row[2] - BASE for row in rows] == list(range(50))
        restored.close()
