"""Read-cache invalidation: every mutation path, proven via metrics.

Each scenario warms the block/footer/latest caches, runs one mutation
(merge, TTL expiry, bulk delete, schema evolution), and checks that the
next query returns exactly the post-mutation data - with the metrics
counters showing the invalidation happened (dropped entries, generation
bumps), so a stale hit is impossible rather than merely unobserved.
"""

import pytest

from repro.core import Column, ColumnType, KeyRange, Query, TimeRange
from repro.util.clock import MICROS_PER_HOUR


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


def counters(db):
    return db.metrics.snapshot()["counters"]


def counter(db, name):
    return counters(db).get(name, 0)


def warm(table, query=None):
    """Run the same query twice so the second pass hits the cache."""
    query = query if query is not None else Query()
    table.query(query)
    return table.query(query).rows


class TestMergeInvalidation:
    def test_post_merge_query_serves_merged_data(self, db, usage_table,
                                                 clock):
        for batch in range(4):
            usage_table.insert([row(d, clock.now(), value=batch)
                                for d in range(10)])
            usage_table.flush_all()
            clock.advance_seconds(60)
        before_rows = warm(usage_table)
        assert counter(db, "readcache.block.hits") > 0
        gen_before = counter(db, "readcache.generation")
        merged = 0
        while usage_table.maybe_merge() is not None:
            merged += 1
        assert merged > 0
        # Every source tablet's blocks and footer were dropped.
        assert counter(db, "readcache.invalidations") > 0
        assert counter(db, "readcache.generation") > gen_before
        assert usage_table.query(Query()).rows == before_rows

    def test_latest_not_stale_after_merge(self, db, usage_table, clock):
        usage_table.insert([row(3, clock.now())])
        usage_table.flush_all()
        clock.advance_seconds(60)
        assert usage_table.latest((1, 3)) is not None
        while usage_table.maybe_merge() is not None:
            pass
        # The generation bump orphans the cached entry; the re-search
        # still finds the row in the merged tablet.
        got = usage_table.latest((1, 3))
        assert got is not None and got[1] == 3


class TestTTLInvalidation:
    def test_expiry_removes_rows_and_cached_blocks(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("aged", usage_schema(),
                                ttl_micros=2 * MICROS_PER_HOUR)
        table.insert([row(d, clock.now()) for d in range(10)])
        table.flush_all()
        before_rows = warm(table)
        assert len(before_rows) == 10
        assert table.latest((1, 5)) is not None
        clock.advance(3 * MICROS_PER_HOUR)
        assert table.expire_tablets() > 0
        assert counter(db, "readcache.invalidations") > 0
        assert table.query(Query()).rows == []
        assert table.latest((1, 5)) is None

    def test_latest_cache_respects_shrinking_window(self, db, usage_table,
                                                    clock):
        ts = clock.now()
        usage_table.insert([row(5, ts)])
        usage_table.flush_all()
        assert usage_table.latest((1, 5)) is not None
        clock.advance(2 * MICROS_PER_HOUR)
        # The cached global-latest predates the lookback window, so the
        # cached entry must answer None - without a stale row.
        assert usage_table.latest(
            (1, 5), max_lookback_micros=MICROS_PER_HOUR) is None
        # And the unbounded lookup still sees the row.
        assert usage_table.latest((1, 5)) is not None


class TestBulkDeleteInvalidation:
    def test_deleted_rows_gone_from_warm_cache(self, db, usage_table,
                                               clock):
        now = clock.now()
        usage_table.insert(
            [{"network": n, "device": d, "ts": now + d, "bytes": 0,
              "rate": 0.0}
             for n in (1, 2) for d in range(10)])
        usage_table.flush_all()
        assert len(warm(usage_table)) == 20
        gen_before = counter(db, "readcache.generation")
        removed = usage_table.bulk_delete((1,))
        assert removed == 10
        assert counter(db, "readcache.generation") > gen_before
        rows = usage_table.query(Query()).rows
        assert len(rows) == 10
        assert all(r[0] == 2 for r in rows)
        assert usage_table.latest((1, 3)) is None
        got = usage_table.latest((2, 3))
        assert got is not None and got[0] == 2


class TestSchemaEvolutionInvalidation:
    def test_appended_column_visible_through_warm_cache(self, db,
                                                        usage_table,
                                                        clock):
        usage_table.insert([row(d, clock.now()) for d in range(5)])
        usage_table.flush_all()
        before = warm(usage_table)
        assert len(before[0]) == 5
        gen_before = counter(db, "readcache.generation")
        usage_table.append_column(
            Column("flags", ColumnType.INT64, default=7))
        assert counter(db, "readcache.generation") > gen_before
        rows = usage_table.query(Query()).rows
        assert len(rows) == 5
        assert all(r[-1] == 7 for r in rows)
        got = usage_table.latest((1, 2))
        assert got is not None and got[-1] == 7


class TestInsertInvalidation:
    def test_insert_updates_cached_latest(self, usage_table, clock):
        ts = clock.now()
        usage_table.insert([row(4, ts)])
        first = usage_table.latest((1, 4))
        assert first is not None
        # Cached now; a newer insert for the same prefix must evict it.
        usage_table.insert([row(4, ts + 1000, value=99)])
        got = usage_table.latest((1, 4))
        assert got is not None and got[2] == ts + 1000 and got[3] == 99

    def test_unrelated_insert_keeps_cache_hot(self, db, usage_table,
                                              clock):
        ts = clock.now()
        usage_table.insert([row(4, ts)])
        usage_table.latest((1, 4))
        hits_before = counter(db, "readcache.latest.hits")
        usage_table.insert([row(8, ts)])
        usage_table.latest((1, 4))
        assert counter(db, "readcache.latest.hits") == hits_before + 1


class TestFooterCache:
    def test_evict_reader_cache_is_a_real_restart(self, db, usage_table,
                                                  clock):
        usage_table.insert([row(d, clock.now()) for d in range(10)])
        usage_table.flush_all()
        warm(usage_table)
        misses_before = counter(db, "readcache.block.misses")
        usage_table.evict_reader_cache()
        usage_table.query(Query())
        # Post-"restart" the first query misses again.
        assert counter(db, "readcache.block.misses") > misses_before

    def test_evict_reader_cache_reloads_every_footer(self, db, usage_table,
                                                     clock):
        """The reader is the one holder of its parsed footer (§3.2):
        a warm query loads none, the first query after an eviction
        loads one per tablet."""
        for _batch in range(3):
            usage_table.insert([row(d, clock.now()) for d in range(10)])
            usage_table.flush_all()
            clock.advance_seconds(3600)
        tablets = len(usage_table.on_disk_tablets)
        assert tablets == 3
        usage_table.query(Query())
        loads_before = counter(db, "tablet.footer_loads")
        usage_table.query(Query())
        assert counter(db, "tablet.footer_loads") == loads_before
        usage_table.evict_reader_cache()
        usage_table.query(Query())
        assert counter(db, "tablet.footer_loads") == loads_before + tablets


class TestPruneIndexThroughTable:
    def test_time_pruning_counted_in_stats(self, usage_table, clock):
        for _batch in range(4):
            usage_table.insert([row(d, clock.now()) for d in range(10)])
            usage_table.flush_all()
            clock.advance_seconds(3600)
        assert len(usage_table.on_disk_tablets) == 4
        newest = max(t.min_ts for t in usage_table.on_disk_tablets)
        result = usage_table.query(
            Query(KeyRange.all(), TimeRange.between(newest, None)))
        assert result.stats.tablets_opened == 1
        assert result.stats.tablets_pruned == 3
        assert len(result.rows) == 10

    def test_key_pruning_via_zone_maps(self, usage_table, clock):
        now = clock.now()
        # Two tablets with disjoint network ranges in the same period.
        usage_table.insert(
            [{"network": 1, "device": d, "ts": now + d, "bytes": 0,
              "rate": 0.0} for d in range(10)])
        usage_table.flush_all()
        usage_table.insert(
            [{"network": 9, "device": d, "ts": now + 100 + d, "bytes": 0,
              "rate": 0.0} for d in range(10)])
        usage_table.flush_all()
        assert len(usage_table.on_disk_tablets) == 2
        result = usage_table.query(Query(KeyRange.prefix((9,))))
        assert result.stats.tablets_pruned == 1
        assert result.stats.tablets_opened == 1
        assert len(result.rows) == 10
