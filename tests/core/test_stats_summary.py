"""Tests for Table.stats_summary (operator introspection)."""

import pytest

from repro.core import KeyRange, Query
from repro.util.clock import MICROS_PER_MINUTE


def row(device, ts, network=1):
    return {"network": network, "device": device, "ts": ts, "bytes": 0,
            "rate": 0.0}


class TestStatsSummary:
    def test_empty_table(self, usage_table):
        summary = usage_table.stats_summary()
        assert summary["rows"] == 0
        assert summary["tablets"] == 0
        assert summary["write_amplification"] == 1.0
        assert summary["scan_ratio"] is None
        assert summary["schema_version"] == 1

    def test_counts_rows_and_tablets(self, usage_table, clock):
        for batch in range(3):
            usage_table.insert([row(d, clock.now()) for d in range(5)])
            clock.advance(MICROS_PER_MINUTE)
            usage_table.flush_all()
        summary = usage_table.stats_summary()
        assert summary["rows"] == 15
        assert summary["tablets"] == 3
        assert summary["tablets_by_tier"] == {"hot": 3}
        assert summary["max_tablets_per_period"] == 3
        assert summary["bytes_on_disk"] > 0

    def test_amplification_reflects_merges(self, usage_table, clock):
        for batch in range(4):
            usage_table.insert([row(d, clock.now()) for d in range(5)])
            clock.advance_seconds(1)
            usage_table.flush_all()
        assert usage_table.stats_summary()["write_amplification"] == 1.0
        while usage_table.maybe_merge() is not None:
            pass
        assert usage_table.stats_summary()["write_amplification"] > 1.0

    def test_scan_ratio_tracks_queries(self, usage_table, clock):
        usage_table.insert([row(d, clock.now()) for d in range(10)])
        usage_table.query(Query(KeyRange.prefix((1, 3))))
        summary = usage_table.stats_summary()
        assert summary["scan_ratio"] is not None
        assert summary["scan_ratio"] >= 1.0

    def test_memtables_and_ttl_reported(self, usage_table, clock):
        usage_table.insert([row(1, clock.now())])
        usage_table.set_ttl(1_000_000)
        summary = usage_table.stats_summary()
        assert summary["unflushed_memtables"] == 1
        assert summary["ttl_micros"] == 1_000_000

    def test_cache_section_counts_rows_built(self, usage_table, clock):
        """Rows decoded -> rows built -> rows returned, read from inside
        the engine: a scan of one device builds that device's rows out
        of the block's columns and no others."""
        from repro.dashboard.metrics_view import cache_summary

        usage_table.insert([row(device, clock.now() + sample)
                            for device in range(5) for sample in range(20)])
        usage_table.flush_all()
        got = list(usage_table.scan(Query(KeyRange.prefix((1, 3)))))
        assert len(got) == 20
        snapshot = usage_table.metrics.snapshot()
        assert cache_summary(snapshot)["block"]["rows_built"] == 20
        assert snapshot["counters"]["block.rows_decoded"] > 20
        list(usage_table.scan(Query(KeyRange.prefix((1, 3)))))
        assert cache_summary(usage_table.metrics.snapshot())["block"][
            "rows_built"] == 20
