"""The crash matrix and corruption suites (fault-tolerance layer).

Two properties, proved by injection:

* **Prefix durability.**  Killing the engine at any failpoint site
  during insert/flush/merge/TTL work must leave a database that
  reopens cleanly (startup scrub handles the wreckage - no
  CorruptTabletError escapes) and serves a *prefix* of what was
  inserted: a crash may lose a recent suffix, never punch holes.
* **No silent wrong answers.**  Any single flipped bit in a v2.1
  tablet is detected on read (metric increments, tablet quarantined)
  and never returned as row data.
"""

import pytest

from repro.core import (
    CorruptTabletError,
    DurabilityPolicy,
    EngineConfig,
    LittleTable,
    Query,
    ReadOnlyModeError,
    is_healthy,
)
from repro.core.tablet import TabletReader
from repro.disk import (
    CrashPoint,
    DiskFullError,
    FaultyVFS,
    InjectedIOError,
    SimulatedDisk,
)
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock
from repro.util.xorshift import Xorshift64Star

from ..conftest import usage_schema

BASE = 10_000 * MICROS_PER_DAY


def crash_config(**overrides) -> EngineConfig:
    """Small sizes, eager merges: lots of descriptor swaps per run."""
    defaults = dict(
        block_size_bytes=1024,
        flush_size_bytes=16 * 1024,
        max_merged_tablet_bytes=256 * 1024,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def row_for(index: int) -> dict:
    return {"network": 1, "device": 1, "ts": BASE + index,
            "bytes": index, "rate": 0.0}


def run_workload(db, inserted_ts, rows=200, flush_every=25):
    """Insert rows (one period, increasing ts - insertion order is key
    order), flushing and merging along the way.  ``inserted_ts``
    accumulates acknowledged timestamps even when a crash interrupts."""
    table = db.table("t")
    for index in range(rows):
        table.insert([row_for(index)])
        inserted_ts.append(BASE + index)
        if (index + 1) % flush_every == 0:
            table.flush_all()
            db.maintenance_until_quiet(max_rounds=5)


# (site, action, skip): every descriptor-swap boundary in flush, merge
# and the raw VFS write/rename paths, several offsets each.  Sites
# must actually fire during the workload - asserted below.
CRASH_MATRIX = [
    ("disk.write", "crash", 0),
    ("disk.write", "crash", 4),
    ("disk.write", "torn", 0),
    ("disk.write", "torn", 5),
    ("disk.rename", "crash", 0),
    ("disk.rename", "crash", 3),
    ("tablet.write", "crash", 1),
    ("descriptor.before_write", "crash", 2),
    ("descriptor.before_rename", "crash", 1),
    ("descriptor.after_rename", "crash", 3),
    ("flush.before_write", "crash", 0),
    ("flush.before_descriptor", "crash", 1),
    ("flush.after_descriptor", "crash", 2),
    ("merge.before_write", "crash", 0),
    ("merge.before_descriptor", "crash", 0),
    ("merge.after_descriptor", "crash", 0),
]


class TestCrashMatrix:
    @pytest.mark.parametrize("site,action,skip", CRASH_MATRIX)
    def test_kill_at_site_preserves_prefix(self, site, action, skip):
        disk = FaultyVFS()
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        db.create_table("t", usage_schema())
        inserted_ts = []
        disk.failpoints.set(site, action, skip=skip)
        with pytest.raises(CrashPoint):
            run_workload(db, inserted_ts)
        assert disk.failpoints.fired.get(site), f"{site} never fired"
        disk.failpoints.clear()
        # Reopen on the same disk: the startup scrub must absorb any
        # wreckage - no CorruptTabletError, no partially-visible swap.
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config())
        got_ts = [row[2] for row in recovered.table("t").query(Query()).rows]
        assert got_ts == inserted_ts[:len(got_ts)], (
            f"recovery after {site} is not a prefix")
        assert is_healthy(recovered)
        # A second reopen finds nothing left to clean.
        again = LittleTable(disk=disk, clock=clock, config=crash_config())
        assert again.last_scrub.clean
        rows = again.table("t").query(Query()).rows
        assert [row[2] for row in rows] == got_ts

    def test_crash_during_ttl_expiry(self):
        for site in ("ttl.before_descriptor", "ttl.after_descriptor"):
            disk = FaultyVFS()
            clock = VirtualClock(start=BASE)
            db = LittleTable(disk=disk, clock=clock, config=crash_config())
            table = db.create_table("t", usage_schema(),
                                    ttl_micros=5 * MICROS_PER_MINUTE)
            inserted_ts = []
            run_workload(db, inserted_ts, rows=100)
            table.flush_all()
            clock.advance(30 * MICROS_PER_MINUTE)  # everything expirable
            disk.failpoints.set(site, "crash")
            with pytest.raises(CrashPoint):
                db.maintenance_until_quiet(max_rounds=5)
            disk.failpoints.clear()
            recovered = LittleTable(disk=disk, clock=clock,
                                    config=crash_config())
            got_ts = [row[2]
                      for row in recovered.table("t").query(Query()).rows]
            # TTL deletes from the oldest end, so surviving rows are a
            # *suffix* of the inserted prefix - and never garbage.
            assert got_ts == inserted_ts[len(inserted_ts) - len(got_ts):]
            assert is_healthy(recovered)

    def test_env_hook_arms_failpoints(self, monkeypatch):
        monkeypatch.setenv("LITTLETABLE_FAILPOINTS",
                           "flush.before_descriptor=crash")
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=SimulatedDisk(), clock=clock)
        table = db.create_table("t", usage_schema())
        table.insert([row_for(0)])
        with pytest.raises(CrashPoint):
            table.flush_all()
        assert db.metrics.snapshot()["counters"]["fault.injected"] == 1

    def test_env_hook_reaches_wal_sites(self, monkeypatch):
        """The operator-facing hook (``site=action@skip``) arms a WAL
        site too: crash a wal-tier engine mid-append, and every
        acknowledged insert survives recovery."""
        monkeypatch.setenv("LITTLETABLE_FAILPOINTS",
                           "wal.before_append=crash@25")
        disk = SimulatedDisk()
        db = LittleTable(disk=disk, clock=VirtualClock(start=BASE),
                         durability=DurabilityPolicy(tier="wal"))
        table = db.create_table("t", usage_schema())
        acked = []
        with pytest.raises(CrashPoint):
            for index in range(100):
                table.insert([row_for(index)])
                acked.append(BASE + index)
        assert 0 < len(acked) < 100
        disk.failpoints.clear()
        recovered = LittleTable(disk=disk, clock=VirtualClock(start=BASE))
        got = [row[2] for row in recovered.table("t").query(Query()).rows]
        assert got[:len(acked)] == acked
        assert len(got) <= len(acked) + 1
        assert is_healthy(recovered)


class TestScrub:
    def build(self, tablets=2, rows_per_tablet=30):
        clock = VirtualClock(start=BASE)
        disk = SimulatedDisk()
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        table = db.create_table("t", usage_schema())
        index = 0
        for _ in range(tablets):
            table.insert([row_for(index + i)
                          for i in range(rows_per_tablet)])
            table.flush_all()
            index += rows_per_tablet
        return db, table, clock

    def test_orphan_tablet_and_stale_temp_removed(self):
        db, table, clock = self.build()
        disk = db.disk
        disk.storage.write_file("tables/t/tab-99999999.lt", b"leftover")
        disk.storage.write_file("tables/t/descriptor.json.tmp-7", b"{}")
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config())
        scrub = recovered.last_scrub
        assert scrub.orphans_removed == ["tables/t/tab-99999999.lt"]
        assert scrub.temps_removed == ["tables/t/descriptor.json.tmp-7"]
        assert not disk.exists("tables/t/tab-99999999.lt")
        assert len(recovered.table("t").query(Query()).rows) == 60

    def test_corrupt_tablet_quarantined_at_startup(self):
        db, table, clock = self.build()
        disk = db.disk
        victim = table.on_disk_tablets[0].filename
        size = disk.size(victim)
        data = bytearray(disk.storage.read_all(victim))
        data[size - 10] ^= 0xFF  # inside the v2.1 trailer
        disk.storage.delete(victim)
        disk.storage.write_file(victim, bytes(data))
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config())
        assert recovered.last_scrub.quarantined == [victim]
        assert disk.exists(f"quarantine/{victim}")
        assert not disk.exists(victim)
        # The second tablet still serves; nothing raises.
        rows = recovered.table("t").query(Query()).rows
        assert len(rows) == 30
        counters = recovered.metrics.snapshot()["counters"]
        assert counters["storage.scrub_quarantined"] == 1

    def test_missing_referenced_file_reported_not_dropped(self):
        db, table, clock = self.build()
        disk = db.disk
        victim = table.on_disk_tablets[0].filename
        disk.storage.delete(victim)
        disk.model.release(victim)
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config())
        assert any("missing file" in issue
                   for issue in recovered.last_scrub.issues)
        from repro.disk import StorageError

        with pytest.raises((CorruptTabletError, StorageError)):
            recovered.table("t").query(Query())

    def test_scrub_can_be_disabled(self):
        db, table, clock = self.build()
        disk = db.disk
        disk.storage.write_file("tables/t/tab-99999999.lt", b"leftover")
        recovered = LittleTable(
            disk=disk, clock=clock,
            config=crash_config(startup_scrub=False))
        assert recovered.last_scrub.clean
        assert disk.exists("tables/t/tab-99999999.lt")


class TestBitflipDetection:
    def test_every_single_bitflip_detected_or_harmless(self):
        """Flip one random bit anywhere in a v2.1 tablet: the reader
        must raise CorruptTabletError - full CRC coverage means no
        flip can silently change a result."""
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=SimulatedDisk(), clock=clock,
                         config=crash_config())
        table = db.create_table("t", usage_schema())
        table.insert([row_for(i) for i in range(200)])
        table.flush_all()
        filename = table.on_disk_tablets[0].filename
        disk = db.disk
        pristine = disk.storage.read_all(filename)
        rng = Xorshift64Star(seed=42)
        for _trial in range(80):
            position = rng.next_below(len(pristine) * 8)
            mutated = bytearray(pristine)
            mutated[position // 8] ^= 1 << (position % 8)
            disk.storage.delete(filename)
            disk.storage.write_file(filename, bytes(mutated))
            reader = TabletReader(disk, filename)
            with pytest.raises(CorruptTabletError):
                reader.ensure_loaded()
                for index in range(len(reader._entries)):
                    reader.read_block_payload(index)
        disk.storage.delete(filename)
        disk.storage.write_file(filename, pristine)

    def test_read_path_quarantines_and_keeps_serving(self):
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=SimulatedDisk(), clock=clock,
                         config=crash_config())
        table = db.create_table("t", usage_schema())
        table.insert([row_for(i) for i in range(30)])
        table.flush_all()
        table.insert([row_for(30 + i) for i in range(30)])
        table.flush_all()
        victim = table.on_disk_tablets[0].filename
        survivor = table.on_disk_tablets[1].filename
        disk = db.disk
        data = bytearray(disk.storage.read_all(victim))
        data[10] ^= 0x01  # one bit, inside block 0
        disk.storage.delete(victim)
        disk.storage.write_file(victim, bytes(data))
        table.evict_reader_cache()
        # In-flight query: typed error, never garbage.
        with pytest.raises(CorruptTabletError):
            db.table("t").query(Query())
        counters = db.metrics.snapshot()["counters"]
        assert counters["storage.checksum_failures"] >= 1
        assert counters["storage.quarantined_tablets"] == 1
        assert disk.exists(f"quarantine/{victim}")
        assert not disk.exists(victim)
        # Subsequent queries serve from the surviving tablet.
        rows = db.table("t").query(Query()).rows
        assert [row[2] for row in rows] == [BASE + 30 + i
                                            for i in range(30)]
        assert [m.filename for m in table.on_disk_tablets] == [survivor]


class TestReadOnlyDegradation:
    def test_enospc_degrades_immediately_reads_keep_serving(self):
        clock = VirtualClock(start=BASE)
        disk = FaultyVFS()
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        table = db.create_table("t", usage_schema())
        db.table("t").insert([row_for(i) for i in range(30)])
        table.flush_all()
        db.table("t").insert([row_for(30 + i) for i in range(10)])
        disk.failpoints.set("disk.write", "enospc", count=-1)
        with pytest.raises(DiskFullError):
            table.flush_all()
        assert db.read_only
        assert "disk full" in db.read_only_reason
        with pytest.raises(ReadOnlyModeError):
            db.table("t").insert([row_for(99)])
        # Reads keep serving (flushed rows plus the memtable).
        assert len(db.table("t").query(Query()).rows) == 40
        health = db.health()
        assert health["read_only"] and health["read_only_reason"]
        # Operator frees space and clears the mode.
        disk.failpoints.clear()
        db.exit_read_only()
        db.table("t").insert([row_for(99)])
        assert not db.read_only

    def test_persistent_eio_degrades_after_streak(self):
        clock = VirtualClock(start=BASE)
        disk = FaultyVFS()
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        table = db.create_table("t", usage_schema())
        db.table("t").insert([row_for(i) for i in range(10)])
        disk.failpoints.set("disk.write", "eio", count=-1)
        for _ in range(3):
            if db.read_only:
                break
            with pytest.raises(InjectedIOError):
                table.flush_all()
        assert db.read_only
        assert "I/O errors" in db.read_only_reason
        counters = db.metrics.snapshot()["counters"]
        assert counters["fault.read_only_entries"] == 1

    def test_single_eio_does_not_degrade(self):
        clock = VirtualClock(start=BASE)
        disk = FaultyVFS()
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        table = db.create_table("t", usage_schema())
        db.table("t").insert([row_for(i) for i in range(10)])
        disk.failpoints.set("disk.write", "eio", count=1)
        with pytest.raises(InjectedIOError):
            table.flush_all()
        assert db._io_failure_streak >= 1
        assert not db.read_only
        # A clean maintenance pass resets the streak entirely - only
        # *consecutive* failures count toward degradation.
        db.maintenance()
        assert db._io_failure_streak == 0
        assert not db.read_only
