"""Primary-key uniqueness enforcement (paper §3.4.4)."""

import pytest

from repro.core import (Column, ColumnType, DuplicateKeyError, LittleTable,
                        Query)
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE

from ..conftest import BASE_TIME, load_v1_datadir, usage_schema


def row(network, device, ts, value=0):
    return {"network": network, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


class TestFastPaths:
    def test_ascending_timestamps_fast_path(self, usage_table, clock):
        # The most common case: server-assigned "now" timestamps.
        for i in range(10):
            usage_table.insert([row(1, 1, clock.now() + i)])
        assert usage_table.counters.rows_inserted == 10

    def test_ascending_keys_within_period_fast_path(self, usage_table, clock):
        # Aggregators insert rows of each period in ascending key
        # order; same ts, increasing key.
        ts = clock.now()
        for device in range(10):
            usage_table.insert([row(1, device, ts)])
        assert usage_table.counters.rows_inserted == 10

    def test_duplicate_in_memtable_detected(self, usage_table, clock):
        ts = clock.now()
        usage_table.insert([row(1, 1, ts)])
        with pytest.raises(DuplicateKeyError):
            usage_table.insert([row(1, 1, ts, value=42)])

    def test_duplicate_on_disk_detected(self, usage_table, clock):
        ts = clock.now()
        usage_table.insert([row(1, 1, ts)])
        usage_table.flush_all()
        with pytest.raises(DuplicateKeyError):
            usage_table.insert([row(1, 1, ts)])

    def test_duplicate_across_periods_detected(self, usage_table, clock):
        old_ts = clock.now() - 30 * MICROS_PER_DAY
        usage_table.insert([row(1, 1, old_ts)])
        usage_table.flush_all()
        clock.advance(MICROS_PER_MINUTE)
        with pytest.raises(DuplicateKeyError):
            usage_table.insert([row(1, 1, old_ts)])

    def test_same_ts_different_key_ok(self, usage_table, clock):
        ts = clock.now()
        usage_table.insert([row(1, 1, ts)])
        usage_table.insert([row(1, 2, ts)])
        usage_table.insert([row(2, 1, ts)])
        assert usage_table.counters.rows_inserted == 3

    def test_out_of_order_insert_with_smaller_key_checks_disk(
            self, usage_table, clock):
        ts = clock.now()
        usage_table.insert([row(5, 5, ts)])
        usage_table.flush_all()
        # Smaller key, older ts: neither fast path applies; the point
        # query must find no duplicate and allow the insert.
        usage_table.insert([row(1, 1, ts - MICROS_PER_MINUTE)])
        assert len(usage_table.query(Query()).rows) == 2

    def test_bloom_filters_skip_non_matching_tablets(self, db, clock):
        table = db.create_table("bloomed", usage_schema())
        ts = clock.now()
        table.insert([row(n, d, ts) for n in range(5) for d in range(5)])
        table.flush_all()
        db.disk.drop_caches()
        before = db.disk.stats.bytes_read
        # A key below the period max with an unseen (network, device):
        # the Bloom filter answers without reading blocks.  (Footer
        # reads still occur.)
        table.insert([row(0, 0, ts - 1)])
        # If blooms were consulted, the slow path touched at most the
        # footer, not every data block.
        data_read = db.disk.stats.bytes_read - before
        assert data_read < db.disk.size(
            table.on_disk_tablets[0].filename)


class TestSlowPathIsAPointRead:
    """§3.4.4's third tier reads the one block that could hold the
    key through the cached decode every row reader shares - whatever
    wrote the tablet - so a block is read from disk once."""

    @pytest.mark.parametrize("written", [
        "as-v2", "as-v1", "before-an-append-column"])
    def test_late_rows_share_one_block_read(self, db, clock, written):
        if written == "as-v1":
            disk, _recorded = load_v1_datadir()
            clock.advance_seconds(120)
            table = LittleTable(disk=disk, clock=clock).table("usage")
        else:
            table = db.create_table("late", usage_schema())
            ts = clock.now()
            table.insert([row(n, d, ts + 10 * s) for n in range(5)
                          for d in range(5) for s in range(4)])
            table.flush_all()
        if written == "before-an-append-column":
            table.append_column(Column("flags", ColumnType.INT64, default=7))
        held = table.query(Query()).rows
        table.evict_reader_cache()
        # A row in the middle of the key order, two timestamps after
        # its predecessor of the same device: older than the table's
        # newest row and below its largest key, so neither fast path
        # answers, and the gap before it is in the same block.
        index = next(i for i in range(len(held) // 2, len(held))
                     if held[i][:2] == held[i - 1][:2]
                     and held[i][2] - held[i - 1][2] > 1)
        network, device, ts = held[index][:3]

        def counters():
            snapshot = table.metrics.snapshot()["counters"]
            return (snapshot["insert.uniqueness.slow_path"],
                    snapshot["tablet.blocks_read"])

        slow, read = counters()
        with pytest.raises(DuplicateKeyError):
            table.insert([row(network, device, ts)])
        assert counters() == (slow + 1, read + 1)
        table.insert([row(network, device, ts - 1)])
        assert counters() == (slow + 2, read + 1)
        assert len(table.query(Query()).rows) == len(held) + 1


class TestBatchSemantics:
    def test_batch_with_internal_duplicate(self, usage_table, clock):
        ts = clock.now()
        with pytest.raises(DuplicateKeyError):
            usage_table.insert([row(1, 1, ts), row(1, 1, ts)])
        # The first row stays (inserts are not transactional).
        assert len(usage_table.query(Query()).rows) == 1
