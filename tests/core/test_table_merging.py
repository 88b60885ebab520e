"""Table-level merge execution (paper §3.4.1, §3.4.2, §5.1.3)."""

import pytest

from repro.core import Query
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_HOUR, MICROS_PER_WEEK


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


def fill_and_flush(table, clock, batches=6, devices=10):
    for batch in range(batches):
        table.insert([row(d, clock.now(), value=batch)
                      for d in range(devices)])
        table.flush_all()
        clock.advance_seconds(60)


class TestMergeExecution:
    def test_merge_reduces_tablet_count(self, usage_table, clock):
        fill_and_flush(usage_table, clock)
        assert len(usage_table.on_disk_tablets) == 6
        while usage_table.maybe_merge() is not None:
            pass
        assert len(usage_table.on_disk_tablets) < 6

    def test_merge_preserves_all_rows(self, usage_table, clock):
        fill_and_flush(usage_table, clock)
        before = usage_table.query(Query()).rows
        while usage_table.maybe_merge() is not None:
            pass
        assert usage_table.query(Query()).rows == before

    def test_merge_deletes_source_files(self, usage_table, clock):
        fill_and_flush(usage_table, clock)
        sources = {t.filename for t in usage_table.on_disk_tablets}
        while usage_table.maybe_merge() is not None:
            pass
        remaining = {t.filename for t in usage_table.on_disk_tablets}
        for filename in sources - remaining:
            assert not usage_table.disk.exists(filename)

    def test_merged_tablet_timespan_is_union(self, usage_table, clock):
        start = clock.now()
        fill_and_flush(usage_table, clock, batches=4)
        end = clock.now() - 60_000_000
        while usage_table.maybe_merge() is not None:
            pass
        merged = max(usage_table.on_disk_tablets,
                     key=lambda t: t.row_count)
        assert merged.min_ts == start
        assert merged.max_ts == end

    def test_merge_counts_write_amplification(self, usage_table, clock):
        fill_and_flush(usage_table, clock)
        while usage_table.maybe_merge() is not None:
            pass
        assert usage_table.counters.merges >= 1
        assert usage_table.counters.bytes_merge_written > 0

    def test_merge_is_crash_safe(self, usage_table, clock, db):
        fill_and_flush(usage_table, clock)
        expected = usage_table.query(Query()).rows
        while usage_table.maybe_merge() is not None:
            pass
        recovered = db.simulate_crash()
        assert recovered.table("usage").query(Query()).rows == expected


class TestPeriodRespectingMerges:
    def test_tablets_in_different_periods_stay_separate(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("spread", usage_schema())
        # One tablet of old data (last month), one of current data.
        table.insert([row(1, clock.now() - 4 * MICROS_PER_WEEK)])
        table.flush_all()
        table.insert([row(1, clock.now())])
        table.flush_all()
        assert table.maybe_merge() is None
        assert len(table.on_disk_tablets) == 2

    def test_rollover_eventually_merges(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("rollover", usage_schema())
        base = clock.now()
        # Two tablets within the same 4-hour bin of today.
        table.insert([row(1, base)])
        table.flush_all()
        table.insert([row(2, base + 1000)])
        table.flush_all()
        # Still mergeable now (same current 4-hour period).
        assert table.maybe_merge() is not None
        # Two more tablets, then jump weeks ahead: the old 4-hour
        # period rolled into a week period; after the pseudorandom
        # delay they merge again.
        table.insert([row(3, base + 2000)])
        table.flush_all()
        table.insert([row(4, base + 3000)])
        table.flush_all()
        clock.advance(4 * MICROS_PER_WEEK)
        merged_plan = table.maybe_merge()
        assert merged_plan is not None


class TestMaintenance:
    def test_maintenance_flushes_aged_memtables(self, usage_table, clock):
        usage_table.insert([row(1, clock.now())])
        assert usage_table.on_disk_tablets == []
        clock.advance(usage_table.config.flush_age_micros + 1)
        summary = usage_table.maintenance()
        assert summary.flushed == 1
        assert len(usage_table.on_disk_tablets) == 1

    def test_maintenance_leaves_young_memtables(self, usage_table, clock):
        usage_table.insert([row(1, clock.now())])
        summary = usage_table.maintenance()
        assert summary.flushed == 0
        assert usage_table.unflushed_memtable_count == 1

    def test_database_maintenance_until_quiet(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("busy", usage_schema())
        fill_and_flush(table, clock, batches=8)
        rounds = db.maintenance_until_quiet()
        assert rounds >= 1
        assert table.maybe_merge() is None
