"""Extension bench - the §6 LHAM-style cold storage tier.

"LHAM introduced the idea of moving older data in a log-structured
system to write-once media.  This approach is especially attractive
for time-series data, where very old values are accessed infrequently
but remain valuable, and we are considering using Amazon S3 or another
cloud service as an additional backing store for old LittleTable
data."

We implemented the idea; this bench quantifies the trade the paper
anticipates: hot-disk reads of *recent* data are unaffected by
migrating history to the archive, while deep-history reads pay the
archive's (much higher) latencies - acceptable because Figure 10 shows
>90% of queries never look that far back.
"""

import pytest

from benchmarks.harness import BENCH_EPOCH, bench_config, make_bench_db, \
    print_figure
from repro.core import Column, ColumnType, KeyRange, LittleTable, Query, \
    Schema, TimeRange
from repro.disk import DiskParameters, SimulatedDisk
from repro.util.clock import MICROS_PER_WEEK, VirtualClock

WEEKS = 8
ROWS_PER_WEEK = 2000


def _schema():
    return Schema(
        [Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("value", ColumnType.INT64)],
        key=["device", "ts"],
    )


def _build(with_cold_tier):
    clock = VirtualClock(start=BENCH_EPOCH)
    # S3-ish archive: ~80 ms first-byte latency, 40 MB/s streaming.
    cold = SimulatedDisk(params=DiskParameters(
        seek_time_s=0.080, read_throughput_bps=40 * 1024 * 1024))
    db = LittleTable(
        disk=SimulatedDisk(),
        config=bench_config(flush_size_bytes=1 << 30,
                            max_merged_tablet_bytes=1 << 40,
                            merge_policy="never"),
        clock=clock, cold_disk=cold if with_cold_tier else None)
    table = db.create_table("history", _schema())
    for week in range(WEEKS):
        base = BENCH_EPOCH + week * MICROS_PER_WEEK
        rows = [(d, base + i, week)
                for i, d in enumerate(range(ROWS_PER_WEEK))]
        table.insert_tuples(rows)
        table.flush_all()
    clock.set(BENCH_EPOCH + WEEKS * MICROS_PER_WEEK)
    if with_cold_tier:
        table.migrate_to_cold(clock.now() - 2 * MICROS_PER_WEEK)
    return db, cold, table, clock


def _measure(db, cold, table, clock):
    table.evict_reader_cache()
    db.disk.drop_caches()
    cold.drop_caches()
    # Recent-week query (the common case, Figure 10).
    hot_before = db.disk.elapsed_s
    recent = table.query(Query(time_range=TimeRange.between(
        clock.now() - MICROS_PER_WEEK, None)))
    recent_s = db.disk.elapsed_s - hot_before
    # Deep-history query (the rare forensic case).
    total_before = db.disk.elapsed_s + cold.elapsed_s
    old = table.query(Query(time_range=TimeRange.between(
        BENCH_EPOCH, BENCH_EPOCH + MICROS_PER_WEEK)))
    old_s = (db.disk.elapsed_s + cold.elapsed_s) - total_before
    return len(recent.rows), recent_s, len(old.rows), old_s


def test_cold_tier_tradeoff(benchmark):
    def run():
        tiered = _measure(*_build(with_cold_tier=True))
        flat = _measure(*_build(with_cold_tier=False))
        return tiered, flat

    tiered, flat = benchmark.pedantic(run, rounds=1, iterations=1)
    (t_recent_rows, t_recent_s, t_old_rows, t_old_s) = tiered
    (f_recent_rows, f_recent_s, f_old_rows, f_old_s) = flat
    print_figure(
        "Extension: cold-tier query latencies (modeled)",
        ["query", "all-hot (ms)", "tiered (ms)"],
        [
            ["most recent week", f"{1000 * f_recent_s:.1f}",
             f"{1000 * t_recent_s:.1f}"],
            ["oldest week (archived)", f"{1000 * f_old_s:.1f}",
             f"{1000 * t_old_s:.1f}"],
        ],
    )
    benchmark.extra_info.update({
        "recent_ms_tiered": round(1000 * t_recent_s, 2),
        "old_ms_tiered": round(1000 * t_old_s, 2),
        "old_ms_flat": round(1000 * f_old_s, 2),
    })
    # Same answers regardless of tiering.
    assert t_recent_rows == f_recent_rows > 0
    assert t_old_rows == f_old_rows > 0
    # Recent queries are unaffected by the archive (within noise).
    assert t_recent_s <= f_recent_s * 1.25
    # Deep-history queries pay the archive latency.
    assert t_old_s > 1.5 * f_old_s
