"""Ablation - time-period-limited merging (DESIGN.md §5, paper §3.4.2).

Without period limits, merging collapses months of data into giant
tablets, and a query over one day "might scan 365 times more rows than
it returned to the client".  We insert 8 weeks of data, let merging
quiesce with and without time partitioning, then query a single recent
day and compare rows scanned per row returned and bytes read.
"""

import pytest

from benchmarks.harness import BENCH_EPOCH, bench_config, make_bench_db, \
    print_figure
from repro.core import Column, ColumnType, KeyRange, Query, Schema, TimeRange
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_HOUR

DAYS = 56
ROWS_PER_DAY = 240


def _schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("value", ColumnType.INT64)],
        key=["network", "device", "ts"],
    )


def _build(partitioned):
    config = bench_config(
        time_partitioning=partitioned,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
        flush_size_bytes=1 << 30,
        max_merged_tablet_bytes=1 << 40,
    )
    db, clock = make_bench_db(config)
    table = db.create_table("usage", _schema())
    for day in range(DAYS):
        day_start = BENCH_EPOCH + day * MICROS_PER_DAY
        clock.set(day_start + 23 * MICROS_PER_HOUR)
        rows = []
        for sample in range(ROWS_PER_DAY // 8):
            ts = day_start + sample * (MICROS_PER_DAY // (ROWS_PER_DAY // 8))
            for device in range(8):
                rows.append((1, device, ts + device, sample))
        table.insert_tuples(rows)
        table.flush_all()
        while table.maybe_merge() is not None:
            pass
    clock.set(BENCH_EPOCH + DAYS * MICROS_PER_DAY)
    while table.maybe_merge() is not None:
        pass
    return db, table, clock


def _query_one_day(db, table, clock):
    db.disk.drop_caches()
    day_start = BENCH_EPOCH + (DAYS - 2) * MICROS_PER_DAY
    disk_before = db.disk.stats.snapshot()
    result = table.query(Query(
        KeyRange.prefix((1,)),
        TimeRange(min_ts=day_start, max_ts=day_start + MICROS_PER_DAY,
                  max_inclusive=False)))
    delta = db.disk.stats.delta_since(disk_before)
    return result, delta


def test_time_partitioning_prevents_overscan(benchmark):
    def run():
        with_periods = _query_one_day(*_build(partitioned=True))
        without_periods = _query_one_day(*_build(partitioned=False))
        return with_periods, without_periods

    (with_result, with_io), (without_result, without_io) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["time partitioning ON",
         f"{with_result.stats.scan_ratio:.1f}",
         f"{with_io.bytes_read:,}"],
        ["time partitioning OFF",
         f"{without_result.stats.scan_ratio:.1f}",
         f"{without_io.bytes_read:,}"],
    ]
    print_figure(
        "Ablation: one-day query after 8 weeks of inserts",
        ["configuration", "rows scanned/returned", "bytes read"],
        rows,
    )
    benchmark.extra_info.update({
        "scan_ratio_partitioned": round(with_result.stats.scan_ratio, 2),
        "scan_ratio_unpartitioned": round(
            without_result.stats.scan_ratio, 2),
    })
    # Both return the same day of data.
    assert len(with_result.rows) == len(without_result.rows) > 0
    # Partitioned: near-perfect efficiency (paper Figure 9: ~1.4).
    assert with_result.stats.scan_ratio < 5
    # Unpartitioned: the query scans a large multiple of what it
    # returns (§3.4.2's 365x risk, here bounded by 8 weeks of data).
    assert without_result.stats.scan_ratio > 10 * with_result.stats.scan_ratio
    assert without_io.bytes_read > 5 * with_io.bytes_read
