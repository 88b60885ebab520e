"""Durability, flush ordering, and crash recovery (paper §3.1, §3.4.3).

The single guarantee: "if it retains a particular row after a crash, it
will also retain all rows that were inserted into the same table prior
to that row" - relative to insertion order, not timestamps.
"""

import pytest

from repro.core import EngineConfig, LittleTable, Query
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_HOUR, VirtualClock
from repro.util.xorshift import Xorshift64Star

from ..conftest import BASE_TIME, usage_schema


def make_db(clock, **config_overrides):
    defaults = dict(flush_size_bytes=4096, merge_min_age_micros=0,
                    block_size_bytes=1024)
    defaults.update(config_overrides)
    return LittleTable(disk=SimulatedDisk(), config=EngineConfig(**defaults),
                       clock=clock)


class TestCrashRecovery:
    def test_unflushed_rows_lost(self, clock):
        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        table.insert([{"network": 1, "device": 1, "bytes": 1, "rate": 0.0}])
        recovered = db.simulate_crash()
        assert recovered.table("t").query(Query()).rows == []

    def test_flushed_rows_survive(self, clock):
        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        table.insert([{"network": 1, "device": 1, "bytes": 1, "rate": 0.0}])
        table.flush_all()
        recovered = db.simulate_crash()
        assert len(recovered.table("t").query(Query()).rows) == 1

    def test_schema_and_ttl_survive(self, clock):
        db = make_db(clock)
        db.create_table("t", usage_schema(), ttl_micros=10 * MICROS_PER_DAY)
        recovered = db.simulate_crash()
        table = recovered.table("t")
        assert table.schema == usage_schema()
        assert table.ttl_micros == 10 * MICROS_PER_DAY

    def test_prefix_durability_in_insertion_order(self, clock):
        """After any crash, the retained rows are an insertion-order
        prefix - even when inserts interleave between time periods."""
        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        rng = Xorshift64Star(seed=99)
        inserted = []
        for sequence in range(200):
            # Scatter timestamps across periods: now, earlier today,
            # earlier this week, weeks ago.
            offset_choices = (
                0, -2 * MICROS_PER_HOUR, -2 * MICROS_PER_DAY,
                -30 * MICROS_PER_DAY,
            )
            offset = offset_choices[rng.next_below(4)]
            ts = clock.now() + offset
            row = {"network": 1, "device": sequence, "ts": ts,
                   "bytes": sequence, "rate": 0.0}
            table.insert([row])
            inserted.append((sequence, ts))
            # Flush *some* memtable occasionally, as the engine would.
            if sequence % 37 == 0 and table.unflushed_memtable_count:
                some_id = next(iter(table._unflushed))
                table.flush_memtable(some_id)
        recovered = db.simulate_crash()
        surviving = recovered.table("t").query(Query()).rows
        surviving_sequences = sorted(row[3] for row in surviving)
        # The retained rows must be exactly 0..k-1 for some k.
        assert surviving_sequences == list(range(len(surviving_sequences)))

    def test_flush_dependency_group_is_atomic(self, clock):
        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        old_ts = clock.now() - 30 * MICROS_PER_DAY
        # Row A into the "old" memtable, row B into the "current" one,
        # row C back into the old one: flushing "current" must drag the
        # old one along (edge old -> current after B, current -> old
        # after C -> cycle), so both flush together.
        table.insert([{"network": 1, "device": 1, "ts": old_ts, "bytes": 0,
                       "rate": 0.0}])
        table.insert([{"network": 1, "device": 2, "ts": clock.now(),
                       "bytes": 1, "rate": 0.0}])
        table.insert([{"network": 1, "device": 3, "ts": old_ts + 1,
                       "bytes": 2, "rate": 0.0}])
        assert table.unflushed_memtable_count == 2
        current_memtable = next(
            m for m in table._unflushed.values()
            if m.max_ts == clock.now()
        )
        table.flush_memtable(current_memtable.memtable_id)
        assert table.unflushed_memtable_count == 0
        recovered = db.simulate_crash()
        assert len(recovered.table("t").query(Query()).rows) == 3

    def test_recovery_after_merges(self, clock):
        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        for batch in range(10):
            rows = [{"network": 1, "device": d, "ts": clock.now(),
                     "bytes": batch, "rate": 0.0} for d in range(20)]
            table.insert(rows)
            clock.advance_seconds(60)
            table.flush_all()
        db.maintenance_until_quiet()
        recovered = db.simulate_crash()
        assert len(recovered.table("t").query(Query()).rows) == 200

    def test_tablet_ids_not_reused_after_recovery(self, clock):
        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        table.insert([{"network": 1, "device": 1, "bytes": 0, "rate": 0.0}])
        table.flush_all()
        max_id = max(t.tablet_id for t in table.on_disk_tablets)
        recovered = db.simulate_crash()
        table2 = recovered.table("t")
        table2.insert([{"network": 1, "device": 2, "bytes": 0, "rate": 0.0}])
        table2.flush_all()
        new_ids = [t.tablet_id for t in table2.on_disk_tablets]
        assert len(new_ids) == len(set(new_ids))
        assert max(new_ids) > max_id


class TestArchival:
    def test_archive_then_recover_from_spare(self, clock):
        from repro.dashboard.failover import WarmSpare

        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        table.insert([{"network": 1, "device": d, "bytes": d, "rate": 0.0}
                      for d in range(50)])
        table.flush_all()
        spare = WarmSpare(clock)
        copied = spare.sync_from(db)
        assert copied > 0
        spare_db = LittleTable(disk=SimulatedDisk(spare.storage),
                               config=db.config, clock=clock)
        assert len(spare_db.table("t").query(Query()).rows) == 50

    def test_archive_converges(self, clock):
        from repro.dashboard.failover import WarmSpare

        db = make_db(clock)
        table = db.create_table("t", usage_schema())
        table.insert([{"network": 1, "device": 1, "bytes": 1, "rate": 0.0}])
        table.flush_all()
        spare = WarmSpare(clock)
        spare.sync_from(db)
        # Second sync copies nothing.
        assert spare.sync_from(db) == 0
