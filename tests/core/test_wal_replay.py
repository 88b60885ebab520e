"""Durability-tier suites: WAL crash matrix and policy semantics.

The contract under test (ISSUE PR 8 acceptance criteria):

* **tier=wal**: every *acknowledged* insert survives ``kill -9`` at
  every instrumented failpoint site - WAL sites and flush sites
  alike.  Replay is exact: no lost acknowledged rows, no duplicates
  (rows both sealed into a tablet and still in the log dedup).
* **tier=none** (the default): byte-identical to the paper's prefix
  durability - no WAL file is ever created, and a crash may lose a
  recent suffix but never punch holes.
* The persisted per-table tier wins on reopen: a database opened
  with a plain default policy still replays a ``wal``-tier table's
  log.
"""

import struct
from pathlib import Path

import pytest

from repro.core import (
    DurabilityPolicy,
    EngineConfig,
    LittleTable,
    Query,
    is_healthy,
)
from repro.core.codec import compiled_ops
from repro.core.errors import UnsupportedFormatError
from repro.core.tablet import TabletReader
from repro.core.wal import (WalRecord, WriteAheadLog, is_wal_filename,
                            iter_records, wal_segment_filename)
from repro.disk import CrashPoint, FaultyVFS, SimulatedDisk
from repro.disk.storage import MemoryStorage
from repro.net.replica import Follower
from repro.util.checksum import crc32c
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import usage_schema
from ..net.loopback import loopback_connect

BASE = 10_000 * MICROS_PER_DAY

# Small segments so sealing/recycling fire during a short workload.
WAL_POLICY = DurabilityPolicy(tier="wal", wal_segment_bytes=1024)


def crash_config(**overrides) -> EngineConfig:
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


def run_workload(db, acked_ts, rows=150, flush_every=30):
    """Insert row-by-row; ``acked_ts`` records only acknowledged
    (returned-from-insert) rows, even when a crash interrupts."""
    table = db.table("t")
    for index in range(rows):
        table.insert([row_for(index)])
        acked_ts.append(BASE + index)
        if (index + 1) % flush_every == 0:
            table.flush_all()
            db.maintenance_until_quiet(max_rounds=5)


def wal_files(disk) -> list:
    return sorted(name for name in disk.storage.list()
                  if is_wal_filename(name))


# Every WAL failpoint site plus the flush/descriptor swap boundaries:
# with tier=wal a crash at any of them must lose nothing acknowledged.
WAL_CRASH_MATRIX = [
    ("wal.before_append", 0),
    ("wal.before_append", 7),
    ("wal.before_append", 40),
    ("wal.before_seal", 0),
    ("wal.before_seal", 1),
    ("wal.before_recycle", 0),
    ("flush.before_write", 0),
    ("flush.before_descriptor", 0),
    ("flush.after_descriptor", 0),
    ("descriptor.after_rename", 1),
    ("merge.before_descriptor", 0),
]


class TestWalCrashMatrix:
    @pytest.mark.parametrize("site,skip", WAL_CRASH_MATRIX)
    def test_acknowledged_rows_survive(self, site, skip):
        disk = FaultyVFS()
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=disk, clock=clock, config=crash_config(),
                         durability=WAL_POLICY)
        db.create_table("t", usage_schema())
        acked_ts = []
        disk.failpoints.set(site, "crash", skip=skip)
        with pytest.raises(CrashPoint):
            run_workload(db, acked_ts)
        assert disk.failpoints.fired.get(site), f"{site} never fired"
        disk.failpoints.clear()
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config(),
                                durability=WAL_POLICY)
        got_ts = [row[2] for row in recovered.table("t").query(Query()).rows]
        # Every acknowledged row survives, in order, with no holes and
        # no duplicates.  At most one *unacknowledged* row may also
        # survive: a crash between the group-commit fsync and the
        # insert returning leaves that row durable - the classic WAL
        # ack window, the opposite of data loss.
        assert got_ts[:len(acked_ts)] == acked_ts, (
            f"crash at {site} skip={skip}: acked {len(acked_ts)} rows, "
            f"recovered {len(got_ts)}")
        assert len(got_ts) <= len(acked_ts) + 1
        assert is_healthy(recovered)
        # A second reopen is idempotent.
        again = LittleTable(disk=disk, clock=clock, config=crash_config(),
                            durability=WAL_POLICY)
        rows = again.table("t").query(Query()).rows
        assert [row[2] for row in rows] == got_ts

    def test_persisted_tier_wins_on_default_reopen(self):
        """A wal-tier table replays even when the database is reopened
        with the plain default (none) policy - the descriptor's
        persisted tier wins."""
        disk = FaultyVFS()
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=disk, clock=clock, config=crash_config(),
                         durability=WAL_POLICY)
        db.create_table("t", usage_schema())
        acked_ts = []
        disk.failpoints.set("wal.before_append", "crash", skip=20)
        with pytest.raises(CrashPoint):
            run_workload(db, acked_ts, flush_every=1000)  # never flush
        disk.failpoints.clear()
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config())  # no policy
        got_ts = [row[2] for row in recovered.table("t").query(Query()).rows]
        assert got_ts == acked_ts
        assert recovered.table("t").durability.tier == "wal"


class TestNoneTierParity:
    def test_no_wal_files_ever_created(self):
        disk = SimulatedDisk()
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        db.create_table("t", usage_schema())
        acked_ts = []
        run_workload(db, acked_ts, rows=100)
        assert wal_files(disk) == []
        # The descriptor carries no durability stanza at all: the
        # on-disk layout is byte-identical to the pre-WAL format.
        import json

        descriptor = json.loads(
            disk.storage.read_all("tables/t/descriptor.json"))
        assert "durability" not in descriptor
        assert db.table("t").wal is None
        assert db.wal_status()["tables"]["t"] == {"tier": "none"}

    def test_explicit_none_table_overrides_wal_default(self):
        """create_table(durability=tier 'none') on a wal-default
        database opts that table out - no WAL files, and the opt-out
        persists across a reopen."""
        disk = SimulatedDisk()
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=disk, clock=clock, config=crash_config(),
                         durability=WAL_POLICY)
        table = db.create_table("t", usage_schema(),
                                durability=DurabilityPolicy(tier="none"))
        assert table.wal is None
        table.insert([row_for(i) for i in range(50)])
        assert wal_files(disk) == []
        reopened = LittleTable(disk=disk, clock=clock,
                               config=crash_config(),
                               durability=WAL_POLICY)
        assert reopened.table("t").durability.tier == "none"
        assert reopened.table("t").wal is None

    def test_crash_keeps_prefix_semantics(self):
        """tier=none after a crash: a prefix survives (possibly
        losing a suffix), exactly the paper's §3 guarantee."""
        disk = FaultyVFS()
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=disk, clock=clock, config=crash_config())
        db.create_table("t", usage_schema())
        acked_ts = []
        disk.failpoints.set("flush.before_descriptor", "crash", skip=1)
        with pytest.raises(CrashPoint):
            run_workload(db, acked_ts)
        disk.failpoints.clear()
        assert wal_files(disk) == []
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config())
        got_ts = [row[2] for row in recovered.table("t").query(Query()).rows]
        assert got_ts == acked_ts[:len(got_ts)]
        assert len(got_ts) < len(acked_ts)  # the memtable suffix died
        assert wal_files(disk) == []


class TestWalLifecycle:
    def build(self, **policy_overrides):
        import dataclasses

        policy = dataclasses.replace(WAL_POLICY, **policy_overrides)
        clock = VirtualClock(start=BASE)
        disk = SimulatedDisk()
        db = LittleTable(disk=disk, clock=clock, config=crash_config(),
                         durability=policy)
        db.create_table("t", usage_schema())
        return db, disk, clock

    def test_flush_recycles_fully_covered_segments(self):
        db, disk, clock = self.build()
        table = db.table("t")
        table.insert([row_for(i) for i in range(200)])
        assert wal_files(disk), "wal tier must write segments"
        table.flush_all()
        # Everything logged is sealed into tablets: zero segments left.
        assert wal_files(disk) == []
        status = table.wal_status()
        assert status["low_water"] > status["durable_lsn"]

    def test_segments_seal_at_size_threshold(self):
        db, disk, clock = self.build(wal_segment_bytes=1024)
        table = db.table("t")
        for index in range(120):
            table.insert([row_for(index)])
        assert len(wal_files(disk)) > 1
        assert table.wal_status()["segment_count"] == len(wal_files(disk))

    def test_torn_tail_replays_prefix_and_reports(self):
        db, disk, clock = self.build()
        table = db.table("t")
        for index in range(50):
            table.insert([row_for(index)])
        # No close (that would flush and recycle the log): abandon the
        # engine as a kill -9 would, then tear the last segment
        # mid-frame - replay must stop cleanly at the last whole
        # record and report the damage.
        victim = wal_files(disk)[-1]
        data = disk.storage.read_all(victim)
        disk.storage.delete(victim)
        disk.storage.write_file(victim, data[:len(data) - 3])
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config(),
                                durability=WAL_POLICY)
        got_ts = [row[2] for row in recovered.table("t").query(Query()).rows]
        assert got_ts == [BASE + i for i in range(49)]
        report = recovered.table("t").last_wal_replay
        assert report is not None and report.issues

    def test_wal_status_shapes(self):
        db, disk, clock = self.build()
        db.table("t").insert([row_for(0)])
        status = db.wal_status()
        assert status["default_tier"] == "wal"
        entry = status["tables"]["t"]
        for field in ("tier", "segment_count", "wal_bytes", "durable_lsn",
                      "low_water", "next_lsn"):
            assert field in entry, field
        health = db.health()["durability"]
        assert health["default_tier"] == "wal"
        assert health["tiers"] == {"t": "wal"}

    def test_drop_table_deletes_segments(self):
        db, disk, clock = self.build()
        db.table("t").insert([row_for(i) for i in range(20)])
        assert wal_files(disk)
        db.drop_table("t")
        assert wal_files(disk) == []

    def test_active_segment_survives_leader_in_flight(self):
        """Recycling must not delete the active segment while a
        group-commit leader's append is in flight: the leader drains
        the buffer before its off-lock write, so an empty buffer alone
        is not proof the segment has stopped growing."""
        wal = WriteAheadLog(SimulatedDisk(), "t",
                            DurabilityPolicy(tier="wal"))
        wal.log_batch_block(b"block-1", 1, schema_version=1)
        wal.commit(1)
        active = wal.status()["segments"][0]["filename"]
        assert wal.disk.exists(active)
        # Freeze the moment inside commit(): the leader has taken the
        # buffered lsn=2 batch and is appending off-lock.
        wal.log_batch_block(b"block-2", 1, schema_version=1)
        with wal._lock:
            pending = wal._buffer
            wal._buffer = []
            wal._buffer_bytes = 0
            wal._leader_active = True
        # lsn=1 is tablet-covered; the old guard saw an empty buffer
        # and recycled the active segment out from under the leader.
        assert wal.recycle(2) == 0
        assert wal.disk.exists(active)
        # Leader lands; once the append is truly finished both the
        # old and the current records recycle normally.
        with wal._lock:
            wal._buffer = pending
            wal._buffer_bytes = sum(len(f) for _l, f in pending)
            wal._leader_active = False
        wal.commit(2)
        assert wal.recycle(3) >= 1
        assert not wal.disk.exists(active)

    def test_schema_change_racing_inserts_loses_nothing(self):
        """Inserts racing a WAL-tier DDL must not strand acknowledged
        rows in old-schema-version log records: the DDL gate holds
        them until the swap lands, so replay decodes everything."""
        import threading

        from repro.core import Column, ColumnType

        db, disk, clock = self.build()
        table = db.table("t")
        acked = []
        errors = []
        started = threading.Event()

        def writer():
            for index in range(400):
                if index == 5:
                    started.set()
                try:
                    table.insert([row_for(index)])
                except Exception as exc:  # arity race: retry resolves
                    try:
                        table.insert([row_for(index)])
                    except Exception:
                        errors.append(exc)
                        continue
                acked.append(BASE + index)

        thread = threading.Thread(target=writer)
        thread.start()
        started.wait(5)
        db.table("t").append_column(
            Column("extra", ColumnType.INT64, 0))
        thread.join(30)
        assert not thread.is_alive()
        assert not errors
        # Abandon without close (kill -9 equivalent) and replay.
        recovered = LittleTable(disk=disk, clock=clock,
                                config=crash_config(),
                                durability=WAL_POLICY)
        got_ts = {row[2] for row in recovered.table("t").query(Query()).rows}
        missing = [ts for ts in acked if ts not in got_ts]
        assert not missing, f"lost {len(missing)} acknowledged rows"


class TestReplayOverFlushedRows:
    """A crash finds flushed rows still in the log whenever the active
    segment outlived their flush (a default-size segment holds far
    more than one memtable).  Replay skips every record below the
    version's low water unread; only the record the size-triggered
    flush split between two memtables replays rows a tablet holds."""

    ROWS, BATCH = 1200, 60

    def crashed(self, **config):
        """Crash with one memtable flushed on size and the next one,
        logged to the same segment, still filling.  Returns the
        reopened database, how many rows the tablet held and in how
        many blocks."""
        disk = SimulatedDisk()
        db = LittleTable(disk=disk, clock=VirtualClock(start=BASE),
                         config=crash_config(**config),
                         durability=DurabilityPolicy(tier="wal"))
        table = db.create_table("t", usage_schema())
        for first in range(0, self.ROWS, self.BATCH):
            table.insert([
                {"network": 1, "device": index % 4, "ts": BASE + index,
                 "bytes": index, "rate": 0.0}
                for index in range(first, first + self.BATCH)])
        db.maintenance()
        flushed = sum(meta.row_count for meta in table.on_disk_tablets)
        blocks = sum(TabletReader(disk, meta.filename).block_count
                     for meta in table.on_disk_tablets)
        assert 0 < flushed < self.ROWS and 1 < blocks < flushed // 8
        return db.simulate_crash(), flushed, blocks

    @pytest.mark.parametrize("config", [{}, {"read_cache_bytes": 0}],
                             ids=["cached", "no-read-cache"])
    def test_replay_applies_exactly_the_unflushed_tail(self, config):
        recovered, flushed, _blocks = self.crashed(**config)
        table = recovered.table("t")
        report = table.last_wal_replay
        assert report.issues == []
        assert (report.rows_applied, report.rows_skipped) == \
            (self.ROWS - flushed, flushed)
        assert sorted(row[2] - BASE for row in table.query(Query()).rows) \
            == list(range(self.ROWS))

    def test_replay_reads_each_covering_block_at_most_once(self):
        recovered, flushed, blocks = self.crashed()
        counters = recovered.metrics.snapshot()["counters"]
        # Only the unflushed tail is inserted, and only the split
        # record's rows can take the uniqueness slow path.
        assert counters["wal.rows_replayed"] == self.ROWS - flushed
        assert counters["insert.uniqueness.slow_path"] <= self.BATCH
        assert counters["tablet.blocks_read"] <= blocks


class TestBulkDeleteOnWal:
    def test_deleted_rows_stay_deleted_after_a_crash(self):
        """One record puts a customer's rows a week back and another
        customer's into this period's memtable.  Flushing only the
        first memtable leaves the record above the low water, so the
        delete must publish a low water past it, or replay re-inserts
        every deleted row."""
        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=SimulatedDisk(), clock=clock,
                         config=crash_config(),
                         durability=DurabilityPolicy(tier="wal"))
        table = db.create_table("t", usage_schema())
        week_back = clock.now() - 7 * MICROS_PER_DAY
        table.insert([{"network": 3, "device": d, "ts": week_back + d,
                       "bytes": d, "rate": 0.0} for d in range(5)]
                     + [{"network": 1, "device": d, "ts": clock.now() + d,
                         "bytes": d, "rate": 0.0} for d in range(5)])
        assert table.unflushed_memtable_count == 2
        assert table.bulk_delete((3,)) == 5
        rows = db.simulate_crash().table("t").query(Query()).rows
        assert [row for row in rows if row[0] == 3] == []
        assert [row[:2] for row in rows] == [(1, d) for d in range(5)]


def _flushed_wal_engine(clock):
    """20 rows on a ``wal`` table, all flushed: every segment recycled
    and the version's low water past every record."""
    db = LittleTable(disk=SimulatedDisk(), clock=clock,
                     config=crash_config(), durability=WAL_POLICY)
    db.create_table("t", usage_schema()).insert(
        [row_for(i) for i in range(20)])
    db.table("t").flush_all()
    assert wal_files(db.disk) == []
    return db


def _all_segments_recycled(clock):
    return _flushed_wal_engine(clock).simulate_crash()


def _restored_snapshot(clock):
    snapshot = MemoryStorage()
    _flushed_wal_engine(clock).snapshot(snapshot)
    db = LittleTable(disk=SimulatedDisk(), clock=clock,
                     config=crash_config())
    db.restore(snapshot)
    return db


def _promoted_standby(clock):
    follower = Follower(LittleTable(disk=SimulatedDisk(), clock=clock,
                                    config=crash_config()),
                        loopback_connect(_flushed_wal_engine(clock)).client)
    follower.sync_once()
    return follower.promote()


class TestLsnFloor:
    """A log that restarts with no segments numbers its records from
    the version's low water on: a record numbered below it would be
    skipped by the next replay, acknowledged or not."""

    EMPTY_LOGS = {"all-segments-recycled": _all_segments_recycled,
                  "restored-snapshot": _restored_snapshot,
                  "promoted-standby": _promoted_standby}

    def acked_row_survives(self, scenario) -> bool:
        clock = VirtualClock(start=BASE)
        db = self.EMPTY_LOGS[scenario](clock)
        table = db.table("t")
        assert table.descriptor.wal_low_water > 1
        assert table.wal is not None and wal_files(db.disk) == []
        table.insert([row_for(100)])
        rows = db.simulate_crash().table("t").query(Query()).rows
        assert [row[2] for row in rows][:20] == [BASE + i for i in range(20)]
        return BASE + 100 in [row[2] for row in rows]

    @pytest.mark.parametrize("scenario", sorted(EMPTY_LOGS))
    def test_an_acked_row_survives_a_crash(self, scenario):
        assert self.acked_row_survives(scenario)

    @pytest.mark.parametrize("scenario", sorted(EMPTY_LOGS))
    def test_the_floor_is_what_keeps_it(self, scenario, monkeypatch):
        recover = WriteAheadLog.recover
        monkeypatch.setattr(WriteAheadLog, "recover",
                            lambda wal, low_water: recover(wal, 1))
        assert not self.acked_row_survives(scenario)


class TestLegacyKnobFolding:
    """The policy object's own contract."""

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            LittleTable(disk=SimulatedDisk(), not_a_knob=True)

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            DurabilityPolicy(tier="paranoid").validate()
        with pytest.raises(ValueError):
            DurabilityPolicy(tier="wal", wal_segment_bytes=0).validate()

    def test_policy_merging_and_round_trip(self):
        base = DurabilityPolicy(tier="none", wal_segment_bytes=65536)
        assert DurabilityPolicy().to_dict() == {}
        merged = base.merged_with(DurabilityPolicy.from_dict(
            {"tier": "wal", "unknown_future_field": 1}))
        assert merged.tier == "wal"
        assert merged.wal_segment_bytes == 65536

    def test_descriptor_recorded_with_group_commit_ms_still_opens(self):
        """A descriptor the last commit with
        ``DurabilityPolicy.group_commit_ms`` persisted: the retired
        key is ignored like any unknown one, the rest still applies."""
        recorded = (Path(__file__).parent / "fixtures"
                    / "descriptor_group_commit_ms.json").read_bytes()
        assert b'"group_commit_ms": 5.0' in recorded
        disk = SimulatedDisk()
        disk.write_file("tables/t/descriptor.json", recorded)
        db = LittleTable(disk=disk, clock=VirtualClock(start=BASE))
        table = db.table("t")
        assert table.durability.tier == "wal"
        assert table.durability.wal_segment_bytes == 65536
        assert table.insert([{"network": 1, "device": 1, "ts": BASE,
                              "bytes": 1, "rate": 0.0}]) == 1
        assert any(is_wal_filename(path) for path in disk.list("tables/t/"))

    def test_explicit_default_value_still_overrides(self):
        """An override explicitly set to a field's default value must
        win the merge - 'unset' and 'set to the default' are different
        intents - and must survive a to_dict round trip."""
        base = DurabilityPolicy(tier="wal", wal_segment_bytes=65536)
        assert base.merged_with(DurabilityPolicy(tier="none")).tier == "none"
        assert DurabilityPolicy(tier="none").to_dict() == {"tier": "none"}
        assert base.merged_with(
            DurabilityPolicy.from_dict({"tier": "none"})).tier == "none"
        # Unset fields still inherit, and an untouched policy still
        # serializes to nothing.
        assert base.merged_with(DurabilityPolicy()).tier == "wal"
        assert DurabilityPolicy().explicit_fields == frozenset()
        # Reading a field always sees the resolved default.
        assert DurabilityPolicy().tier == "none"
        assert DurabilityPolicy().wal_segment_bytes == 4 * 1024 * 1024


class TestApplyRecords:
    """``apply_wal_records`` - crash replay and a warm standby's
    streamed apply - runs the same admit loop inserts do."""

    def test_standby_latest_sees_newer_streamed_rows(self):
        """A follower applying record 2 after ``latest()`` cached the
        row of record 1 must serve the newer row: applying rows
        invalidates covering latest-cache entries exactly as an insert
        does, so ``latest()`` and ``query()`` agree."""
        clock = VirtualClock(start=BASE)
        standby = LittleTable(disk=SimulatedDisk(), clock=clock)
        table = standby.create_table("t", usage_schema())
        encode = compiled_ops(table.schema).encode_rows
        older = (1, 1, BASE + 1, 10, 0.0)
        newer = (1, 1, BASE + 2, 20, 0.0)

        def record(lsn, row):
            return WalRecord(lsn, table.schema.version, encode([row]), 1)

        table.apply_wal_records([record(1, older)])
        assert table.latest((1, 1)) == older          # fills the cache
        table.apply_wal_records([record(2, newer)])
        assert table.query(Query()).rows == [older, newer]
        assert table.latest((1, 1)) == newer

    def test_replay_checks_a_blocks_rows_against_the_record_header(self):
        """The header's ``row_count`` is authoritative: a record whose
        frame and CRC are sound but whose block holds another number of
        rows is noted and skipped, like an undecodable block, and the
        records around it still apply."""
        clock = VirtualClock(start=BASE)
        disk = SimulatedDisk()
        db = LittleTable(disk=disk, clock=clock, durability=WAL_POLICY)
        table = db.create_table("t", usage_schema())
        encode = compiled_ops(table.schema).encode_rows
        rows = [(1, d, BASE + d, d, 0.5) for d in range(6)]
        frames = [
            WalRecord(1, 1, encode(rows[:2]), 2),
            WalRecord(2, 1, encode(rows[2:5]), 2),
            WalRecord(3, 1, encode(rows[5:]), 1),
        ]
        segment = b"".join(frame.encode() for frame in frames)
        assert len(list(iter_records(segment, "s", []))) == 3   # CRCs hold
        disk.write_file(wal_segment_filename("t", 1), segment)
        recovered = db.simulate_crash()
        report = recovered.table("t").last_wal_replay
        assert report.records == 3
        assert report.rows_applied == 3
        assert report.rows_skipped == 2
        assert len(report.issues) == 1 and "lsn=2" in report.issues[0]
        assert recovered.table("t").query(Query()).rows == \
            rows[:2] + rows[5:]


def _with_record_body(segment, index, mutate):
    """``segment`` with record ``index``'s body passed through
    ``mutate`` and its CRC recomputed: a sound frame around bytes this
    engine did not write."""
    out, offset, number = bytearray(), 0, 0
    while offset < len(segment):
        length, _crc = struct.unpack_from("<II", segment, offset)
        body = segment[offset + 8:offset + 4 + length]
        if number == index:
            body = bytes(mutate(bytearray(body)))
        out += struct.pack("<II", length, crc32c(body)) + body
        offset += 4 + length
        number += 1
    return bytes(out)


class TestUnsupportedRecords:
    """A record whose frame and CRC are sound but which is not a v3
    ``KIND_BLOCK`` fails the open.  Stopping replay there, or skipping
    its rows, would lose the acknowledged records after it - and the
    next flush would recycle the segment that still holds them."""

    @pytest.mark.parametrize("at, value", [(0, 9), (17, 7)],
                             ids=["kind-byte", "block-format-byte"])
    def test_open_refuses_and_leaves_the_segment(self, at, value):
        disk = SimulatedDisk()
        db = LittleTable(disk=disk, clock=VirtualClock(start=BASE),
                         durability=WAL_POLICY)
        table = db.create_table("t", usage_schema())
        for index in range(3):
            table.insert_tuples([tuple(row_for(index).values())])
        (segment,) = wal_files(disk)

        def mutate(body):
            body[at] = value
            return body

        damaged = _with_record_body(disk.storage.read_all(segment), 1, mutate)
        disk.storage.delete(segment)
        disk.storage.write_file(segment, damaged)
        with pytest.raises(UnsupportedFormatError, match="lsn=2"):
            db.simulate_crash()
        assert wal_files(disk) == [segment]
        assert disk.storage.read_all(segment) == damaged
