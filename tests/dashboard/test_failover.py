"""Tests for the §2.2 fault-tolerance machinery."""

import pytest

from repro.core import DurabilityPolicy, LittleTable, Query
from repro.dashboard.failover import (
    BackupError,
    DashboardDns,
    FailoverController,
    WarmSpare,
)
from repro.disk import SimulatedDisk
from repro.disk.storage import StorageError
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

from ..conftest import usage_schema

BASE = 10_000 * MICROS_PER_DAY


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


@pytest.fixture
def world():
    clock = VirtualClock(start=BASE)
    primary = LittleTable(disk=SimulatedDisk(), clock=clock)
    table = primary.create_table("usage", usage_schema())
    spare = WarmSpare(clock)
    dns = DashboardDns()
    controller = FailoverController("shard-42", primary, spare, dns, clock)
    return clock, primary, table, spare, dns, controller


class TestContinuousArchival:
    def test_sync_copies_flushed_data(self, world):
        clock, primary, table, spare, _dns, controller = world
        table.insert([row(d, clock.now()) for d in range(10)])
        table.flush_all()
        copied = controller.run_archival_tick()
        assert copied > 0
        assert spare.last_sync_at == clock.now()
        # A re-sync with no changes copies nothing.
        assert controller.run_archival_tick() == 0

    def test_sync_tracks_merges_and_deletes(self, world):
        clock, primary, table, spare, _dns, controller = world
        for batch in range(3):
            table.insert([row(d, clock.now(), value=batch)
                          for d in range(5)])
            clock.advance(MICROS_PER_MINUTE)
            table.flush_all()
        controller.run_archival_tick()
        clock.advance(120_000_000)
        while table.maybe_merge() is not None:
            pass
        controller.run_archival_tick()
        assert sorted(spare.storage.list()) == sorted(primary.disk.list())


class TestFailover:
    def test_spare_serves_flushed_rows(self, world):
        clock, primary, table, spare, dns, controller = world
        table.insert([row(d, clock.now()) for d in range(10)])
        table.flush_all()
        controller.run_archival_tick()
        before = clock.now()
        promoted = controller.initiate_failover()
        # The failover window is "a minute or two".
        assert 60_000_000 <= clock.now() - before <= 180_000_000
        assert dns.resolve("shard-42") == "spare"
        rows = promoted.table("usage").query(Query()).rows
        assert len(rows) == 10

    def test_unsynced_tail_lost_like_a_crash(self, world):
        clock, primary, table, spare, _dns, controller = world
        table.insert([row(1, clock.now())])
        table.flush_all()
        controller.run_archival_tick()
        clock.advance(MICROS_PER_MINUTE)
        table.insert([row(2, clock.now())])
        table.flush_all()  # flushed on the primary but never synced
        promoted = controller.initiate_failover()
        rows = promoted.table("usage").query(Query()).rows
        assert [r[1] for r in rows] == [1]

    def test_spare_promoted_mid_pass_serves_the_last_completed_pass(
            self, world):
        """A pass cut short leaves the spare's previous copy whole: the
        descriptor lands only after every tablet it lists."""
        clock, primary, table, _spare, _dns, controller = world
        table.insert([row(1, clock.now())])
        table.flush_all()
        controller.run_archival_tick()
        clock.advance(MICROS_PER_MINUTE)
        table.insert([row(2, clock.now())])
        table.flush_all()
        storage = primary.disk.storage
        read_all = storage.read_all

        def failing_read(name):
            if name == "tables/usage/tab-00000002.lt":
                raise StorageError("primary disk failed mid-pass")
            return read_all(name)

        storage.read_all = failing_read
        with pytest.raises(StorageError):
            controller.run_archival_tick()
        promoted = controller.initiate_failover()
        rows = promoted.table("usage").query(Query()).rows
        assert [r[1] for r in rows] == [1]

    def test_promoted_spare_keeps_acked_rows_of_a_wal_table(self):
        """The pass copies a ``wal`` table's live log segments, and the
        promoted spare replays them: acked rows that were never
        flushed survive the failover."""
        clock = VirtualClock(start=BASE)
        primary = LittleTable(disk=SimulatedDisk(), clock=clock,
                              durability=DurabilityPolicy(tier="wal"))
        table = primary.create_table("usage", usage_schema())
        table.insert([row(d, clock.now()) for d in range(10)])
        table.flush_all()
        table.insert([row(d, clock.now() + 1) for d in range(7)])
        controller = FailoverController("shard-42", primary,
                                        WarmSpare(clock), DashboardDns(),
                                        clock)
        controller.run_archival_tick()
        promoted = controller.initiate_failover()
        assert len(promoted.table("usage").query(Query()).rows) == 17

    def test_a_table_recreated_under_its_name_is_copied_afresh(self, world):
        """A tablet name the spare holds under other metadata - the
        table was dropped and created again - is copied, not kept."""
        clock, primary, table, _spare, _dns, controller = world
        table.insert([row(1, clock.now(), value=1)])
        table.flush_all()
        controller.run_archival_tick()
        primary.drop_table("usage")
        clock.advance(MICROS_PER_MINUTE)
        again = primary.create_table("usage", usage_schema())
        again.insert([row(1, clock.now(), value=2)])
        again.flush_all()
        controller.run_archival_tick()
        promoted = controller.initiate_failover()
        rows = promoted.table("usage").query(Query()).rows
        assert [r[3] for r in rows] == [2]

    def test_archival_stops_after_failover(self, world):
        _clock, _primary, table, _spare, _dns, controller = world
        controller.initiate_failover()
        assert controller.run_archival_tick() == 0
        with pytest.raises(RuntimeError):
            controller.initiate_failover()


class TestBackups:
    def test_local_snapshot_restores_earlier_state(self, world):
        clock, primary, table, spare, _dns, controller = world
        table.insert([row(1, clock.now())])
        table.flush_all()
        controller.run_archival_tick()
        snapshot = spare.take_local_snapshot()
        # An "operational error": the table is dropped on the primary
        # and the mistake is archived to the spare.
        primary.drop_table("usage")
        controller.run_archival_tick()
        assert spare.storage.list() == []
        spare.restore_snapshot(snapshot)
        restored = LittleTable(disk=SimulatedDisk(spare.storage),
                               clock=clock)
        assert len(restored.table("usage").query(Query()).rows) == 1

    def test_snapshot_ring_is_bounded(self, world):
        clock, _primary, _table, spare, _dns, _controller = world
        spare.max_local_snapshots = 3
        for _ in range(5):
            spare.take_local_snapshot()
        assert len(spare.snapshots) == 3

    def test_offsite_round_trip(self, world):
        clock, primary, table, spare, _dns, controller = world
        table.insert([row(d, clock.now()) for d in range(5)])
        table.flush_all()
        controller.run_archival_tick()
        blob = spare.offsite_backup()
        # Simulate total loss of shard and spare.
        fresh_spare = WarmSpare(clock)
        restored_count = fresh_spare.restore_offsite(blob)
        assert restored_count > 0
        restored = LittleTable(disk=SimulatedDisk(fresh_spare.storage),
                               clock=clock)
        assert len(restored.table("usage").query(Query()).rows) == 5

    def test_offsite_tamper_detected(self, world):
        clock, primary, table, spare, _dns, controller = world
        table.insert([row(1, clock.now())])
        table.flush_all()
        controller.run_archival_tick()
        blob = bytearray(spare.offsite_backup())
        blob[40] ^= 0xFF  # flip a bit in the body
        with pytest.raises(BackupError):
            spare.restore_offsite(bytes(blob))

    def test_offsite_wrong_key_detected(self, world):
        clock, primary, table, spare, _dns, controller = world
        table.insert([row(1, clock.now())])
        table.flush_all()
        controller.run_archival_tick()
        blob = spare.offsite_backup()
        other = WarmSpare(clock, signing_key=b"attacker")
        with pytest.raises(BackupError):
            other.restore_offsite(blob)

    def test_truncated_blob_rejected(self, world):
        _clock, _primary, _table, spare, _dns, _controller = world
        with pytest.raises(BackupError):
            spare.restore_offsite(b"short")
