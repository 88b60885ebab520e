"""The registry must agree with the engine's own accounting.

ISSUE acceptance criterion: during a scripted workload the flush,
merge, and rewrite counters must match what ``maintenance()`` reports
and what the tables actually hold.
"""

import pytest

from repro.core import Query
from repro.util.clock import MICROS_PER_DAY


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


def counters(db):
    return db.metrics.snapshot()["counters"]


class TestInsertFlushAccounting:
    def test_rows_inserted_equals_flushed_plus_memtable(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("usage", usage_schema())
        for batch in range(5):
            db.table("usage").insert([row(d, clock.now(), value=batch)
                                      for d in range(20)])
            clock.advance_seconds(60)
        table.flush_all()
        db.table("usage").insert([row(99, clock.now())])  # stays in memory

        snap = counters(db)
        in_memory = sum(len(m) for m in table._unflushed.values())
        assert snap["insert.rows"] == 101
        assert snap["insert.batches"] == 6
        assert snap["flush.rows"] + in_memory == snap["insert.rows"]
        assert snap["flush.bytes"] > 0

    def test_flush_counters_match_maintenance_summary(self, db, clock):
        from ..conftest import usage_schema

        db.create_table("usage", usage_schema())
        db.table("usage").insert([row(d, clock.now()) for d in range(50)])
        clock.advance(MICROS_PER_DAY)  # make the memtable due
        before = counters(db).get("flush.count", 0)
        work = db.maintenance()
        flushed = work.flushed
        assert flushed > 0
        after = counters(db)
        assert after["flush.count"] - before == flushed
        assert after["flush.tablets"] == flushed


class TestMergeAccounting:
    def test_merge_counters_match_maintenance_summaries(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("usage", usage_schema())
        for batch in range(6):
            db.table("usage").insert([row(d, clock.now(), value=batch)
                                      for d in range(10)])
            table.flush_all()
            clock.advance_seconds(60)

        merges_reported = 0
        for _round in range(100):
            work = db.maintenance()
            merged = work.merged
            if merged == 0:
                break
            merges_reported += merged

        assert merges_reported >= 1
        snap = counters(db)
        assert snap["merge.count"] == merges_reported
        assert snap["merge.tablets_merged"] >= 2 * merges_reported
        # Every merge rewrites rows, and never more than exist.
        assert 0 < snap["merge.rows_rewritten"] <= snap["merge.count"] * 60
        assert snap["merge.bytes_written"] > 0
        # Per-period counters decompose the totals exactly.
        per_level_count = sum(v for k, v in snap.items()
                              if k.startswith("merge.count."))
        per_level_rows = sum(v for k, v in snap.items()
                             if k.startswith("merge.rows_rewritten."))
        assert per_level_count == snap["merge.count"]
        assert per_level_rows == snap["merge.rows_rewritten"]

    def test_rewrite_counter_matches_table_counters(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("usage", usage_schema())
        for batch in range(6):
            table.insert([row(d, clock.now(), value=batch)
                          for d in range(10)])
            table.flush_all()
            clock.advance_seconds(60)
        while table.maybe_merge() is not None:
            pass
        snap = counters(db)
        assert snap["merge.rows_rewritten"] == table.counters.rows_merge_written
        assert snap["merge.bytes_written"] == table.counters.bytes_merge_written


class TestMergeDebtOffTheHotPath:
    """``merge_debt_bytes`` simulates up to eight merges per table, so
    it is a field of ``stats_summary()`` computed when an operator
    asks - not a gauge the maintenance loop refreshes every tick."""

    def test_quiet_pass_plans_once_per_table(self, db, clock, monkeypatch):
        from repro.core import MaintenanceScheduler, maintenance, merge

        from ..conftest import usage_schema

        for name in ("events", "usage"):
            table = db.create_table(name, usage_schema())
            for batch in range(3):
                table.insert([row(d, clock.now(), value=batch)
                              for d in range(40)])
                table.flush_all()
                clock.advance_seconds(60)
        clock.advance_seconds(600)
        assert db.table("usage").stats_summary()["merge_debt_bytes"] > 0
        db.maintenance_until_quiet()
        assert db.table("usage").stats_summary()["merge_debt_bytes"] == 0

        planned = {"tick": 0, "simulated": 0}

        def counting(kind, real):
            def choose(*args, **kwargs):
                planned[kind] += 1
                return real(*args, **kwargs)
            return choose

        # merge_once plans through maintenance.py's name; the debt
        # simulation through merge.py's own.
        monkeypatch.setattr(maintenance, "choose_merge",
                            counting("tick", maintenance.choose_merge))
        monkeypatch.setattr(merge, "choose_merge",
                            counting("simulated", merge.choose_merge))
        report = MaintenanceScheduler(db).run_pass()
        assert report.is_quiet
        assert planned == {"tick": 2, "simulated": 0}
        assert "sched.merge_debt_bytes" not in db.metrics.snapshot()["gauges"]


class TestTtlAccounting:
    def test_expiry_counters_match_reclaim(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("expiring", usage_schema(),
                                ttl_micros=7 * MICROS_PER_DAY)
        table.insert([row(d, clock.now()) for d in range(10)])
        table.flush_all()
        clock.advance(8 * MICROS_PER_DAY)
        reclaimed = table.expire_tablets()
        assert reclaimed == 1
        snap = counters(db)
        assert snap["ttl.tablets_expired"] == 1
        assert snap["ttl.rows_expired"] == 10


class TestTraceSpans:
    def test_flush_and_merge_emit_spans(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("usage", usage_schema())
        for batch in range(6):
            table.insert([row(d, clock.now(), value=batch)
                          for d in range(10)])
            table.flush_all()
            clock.advance_seconds(60)
        while table.maybe_merge() is not None:
            pass

        flush_spans = db.tracer.recent(name="flush")
        assert len(flush_spans) == 6
        assert all(s.tags["table"] == "usage" for s in flush_spans)
        assert all(s.tags["rows"] == 10 for s in flush_spans)

        merge_spans = db.tracer.recent(name="merge")
        assert len(merge_spans) >= 1
        assert merge_spans[0].tags["tablets"] >= 2
        assert merge_spans[0].tags["period"] in ("four_hour", "day", "week")

    def test_subscriber_sees_operations_live(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("usage", usage_schema())
        seen = []
        db.tracer.subscribe(lambda span: seen.append(span.name))
        table.insert([row(1, clock.now())])
        table.flush_all()
        assert "flush" in seen


class TestQueryAccounting:
    def test_query_counters_follow_facade_calls(self, db, clock):
        from ..conftest import usage_schema

        db.create_table("usage", usage_schema())
        db.table("usage").insert([row(d, clock.now()) for d in range(10)])
        result = db.table("usage").query(Query())
        assert len(result.rows) == 10
        assert db.table("usage").latest((1, 1)) is not None
        snap = counters(db)
        assert snap["query.count"] == 2
        assert snap["query.rows_returned"] >= 11
        assert snap["query.rows_scanned"] >= snap["query.rows_returned"]


class TestBlockDecodeAccounting:
    def test_slow_path_burst_decodes_every_block_it_reads(self, db, clock):
        """Every tablet block read from disk is decoded once and
        counted once, the uniqueness slow path's included."""
        from ..conftest import usage_schema

        table = db.create_table("usage", usage_schema())
        ts = clock.now()
        table.insert([row(d, ts + 10 * s) for s in range(40)
                      for d in range(20)])
        table.flush_all()
        table.evict_reader_cache()      # cold cache, no merge running
        before = counters(db)
        # Late rows: older than the newest row, below the largest key.
        table.insert([row(d, ts + 10 * s + 1) for s in range(0, 40, 4)
                      for d in range(0, 18, 3)])
        after = counters(db)

        def advanced(name):
            return after.get(name, 0) - before.get(name, 0)

        assert advanced("insert.uniqueness.slow_path") == 60
        assert advanced("tablet.blocks_read") > 1
        assert advanced("block.decoded") == advanced("tablet.blocks_read")


class TestSharedRegistry:
    def test_all_tables_and_disk_share_one_registry(self, db, clock):
        from ..conftest import event_schema, usage_schema

        db.create_table("usage", usage_schema())
        db.create_table("events", event_schema())
        assert db.table("usage").metrics is db.metrics
        assert db.table("events").metrics is db.metrics
        db.table("usage").insert([row(1, clock.now())])
        db.table("usage").flush_all()
        snap = counters(db)
        assert snap["disk.writes"] >= 1
        assert snap["disk.write_bytes"] > 0
