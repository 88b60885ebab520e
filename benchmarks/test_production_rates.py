"""Production-rate measurements (§5.2.3) and the §4 estimates.

* §5.2.3: LittleTable accepted ~14k rows/s and returned ~143k rows/s
  per shard: "the workload is read-heavy in part due to aggregation:
  multiple aggregators read each source table and write substantially
  smaller destination tables."  We drive a scaled shard (devices,
  grabbers, aggregators, dashboard page queries) and check the same
  read-heavy balance.
* §4.1.1: rebuilding UsageGrabber's cache scans 30,000 devices x 60
  rows at 500k rows/s in "under four seconds".
* §4.3: searching a week of one camera's ~51,000 motion rows takes
  ~100 ms at the same rate.
"""

import pytest

from benchmarks.costmodel import DEFAULT_COST_MODEL
from benchmarks.harness import print_figure
from repro.core import KeyRange, Query, TimeRange
from repro.dashboard import PixelRect, Shard, ShardTopology
from repro.util.clock import MICROS_PER_HOUR, MICROS_PER_MINUTE


def _run_shard():
    shard = Shard(ShardTopology(customers=2, networks_per_customer=2,
                                aps_per_network=3, cameras_per_network=1))
    minutes = 120
    # Dashboard page loads interleave with grabbing: usage graphs per
    # network, a device drill-down, and event-log pages (§4).
    for _round in range(minutes // 10):
        shard.run_minutes(10)
        last_hour = TimeRange.between(
            shard.clock.now() - MICROS_PER_HOUR, None)
        last_two_hours = TimeRange.between(
            shard.clock.now() - 2 * MICROS_PER_HOUR, None)
        for network_id in (1, 2, 3, 4):
            # The network usage graph page (§4.1.1)...
            shard.usage_table.query(
                Query(KeyRange.prefix((network_id,)), last_two_hours))
            # ...its rollup summary (§4.1.2)...
            shard.network_rollup_table.query(
                Query(KeyRange.prefix((network_id,))))
            # ...top clients...
            shard.client_usage_table.query(
                Query(KeyRange.prefix((network_id,)), last_hour))
            # ...and the event-log page (§4.2).
            shard.events_table.query(
                Query(KeyRange.prefix((network_id,)), last_two_hours))
        # Per-device drill-downs.
        for device in shard.config_store.all_devices():
            shard.usage_table.query(Query(
                KeyRange.prefix((device.network_id, device.device_id)),
                last_hour))
    return shard, minutes


def test_production_rates_read_heavy(benchmark):
    shard, minutes = benchmark.pedantic(_run_shard, rounds=1, iterations=1)
    seconds = minutes * 60
    inserted = sum(shard.db.table(n).counters.rows_inserted
                   for n in shard.db.table_names())
    returned = sum(shard.db.table(n).counters.rows_returned
                   for n in shard.db.table_names())
    insert_rate = inserted / seconds
    return_rate = returned / seconds
    print_figure(
        "§5.2.3: long-term insert and query rates (scaled shard)",
        ["metric", "paper (30k-device shard)", "measured (16-device shard)"],
        [
            ["rows inserted/s", "14,000", f"{insert_rate:,.1f}"],
            ["rows returned/s", "143,000", f"{return_rate:,.1f}"],
            ["read:write ratio", "10.2x", f"{return_rate / insert_rate:.1f}x"],
        ],
    )
    benchmark.extra_info.update({
        "insert_rows_per_s": round(insert_rate, 2),
        "returned_rows_per_s": round(return_rate, 2),
    })
    assert inserted > 0
    # The read-heavy balance (aggregators re-read source tables and
    # dashboards query rollups): within an order of magnitude of the
    # paper's 10x.
    assert 2 <= return_rate / insert_rate <= 40


def test_usage_cache_rebuild_estimate(benchmark):
    """§4.1.1: 30k devices x 1 row/minute x 1 hour at 500k rows/s."""
    def estimate():
        rows = 30_000 * 60
        # The modeled query path: per-row CPU + the rows' bytes.
        seconds = DEFAULT_COST_MODEL.query_cpu_s(rows, rows * 128)
        # Disk time for ~1.8M x 128 B of recent (clustered) data.
        seconds += rows * 128 / (120 * 1024 * 1024)
        return seconds

    seconds = benchmark.pedantic(estimate, rounds=1, iterations=1)
    print(f"\n§4.1.1 rebuild estimate: {seconds:.2f} s (paper: under 4 s)")
    assert seconds < 4.0


def test_motion_search_estimate(benchmark):
    """§4.3: a week of one camera (~51k rows) searched in ~100 ms."""
    def estimate():
        rows = 51_000
        row_bytes = 24
        seconds = DEFAULT_COST_MODEL.query_cpu_s(rows, rows * row_bytes)
        seconds += rows * row_bytes / (120 * 1024 * 1024)
        return seconds

    seconds = benchmark.pedantic(estimate, rounds=1, iterations=1)
    print(f"\n§4.3 motion-search estimate: {1000 * seconds:.0f} ms "
          f"(paper: ~100 ms)")
    assert seconds < 0.25


def test_motion_search_measured(benchmark):
    """The same search run for real on a shard's motion table."""
    def run():
        shard = Shard(ShardTopology(customers=1, networks_per_customer=1,
                                    aps_per_network=0,
                                    cameras_per_network=1))
        shard.run_minutes(120)
        camera = shard.config_store.all_devices(kind="camera")[0]
        disk_before = shard.db.disk.stats.snapshot()
        hits = shard.motion_search.search(
            camera.device_id, PixelRect(0, 0, 960, 540))
        table = shard.motion_table
        return hits, table.counters.rows_scanned

    hits, scanned = benchmark.pedantic(run, rounds=1, iterations=1)
    modeled_s = DEFAULT_COST_MODEL.query_cpu_s(scanned, scanned * 24)
    print(f"\nmeasured motion search: {len(hits)} hits over {scanned} "
          f"rows, modeled CPU {1000 * modeled_s:.1f} ms")
    assert hits
