"""Figure 5 - query throughput vs number of tablets (§5.1.5).

A table of fixed-size tablets is scanned with the query's timestamp
bounds selecting 1-128 of them: the merge cursor alternates between
tablets, the disk arm seeks back and forth, and throughput collapses
toward a readahead-determined floor - ~24 MB/s with the default 128 kB
readahead and ~40 MB/s with 1 MB readahead in the paper.  This is the
measurement that motivates tablet merging (§3.4.1).

Scaling notes (DESIGN.md §2): tablets are 2 MB (paper: 2 GB/N) with
1 kB rows to bound Python row counts, the sweep stops at 32 tablets,
and our disk model lacks the drive's cache-segment behaviour, so the
decline completes within a few tablets rather than gradually; the
floors and the readahead ordering are the reproduced shape.
"""

import pytest

from benchmarks.harness import BENCH_EPOCH, bench_config, \
    build_tabled_dataset, print_figure, run_query_scan
from repro.core import Query, TimeRange
from repro.disk import DiskParameters

KIB = 1024
MIB = 1024 * 1024
TABLET_BYTES = 2 * MIB
ROW_SIZE = 1024
TABLET_SWEEP = [1, 2, 4, 8, 16, 32]


def _sweep(readahead_bytes):
    params = DiskParameters(readahead_bytes=readahead_bytes)
    # One dataset with the maximum tablet count; each sweep point
    # scans the first N tablets via the query's timestamp bounds, so
    # every point reads N x 1 MB through an N-way merge cursor.  The
    # engine's decoded-block read cache is disabled: it survives
    # drop_caches() and would serve later sweep points from memory,
    # but this figure measures the disk arm (the paper's server
    # predates that cache).  Footers are pre-warmed instead — the
    # paper's steady state, where footers stay cached "almost
    # indefinitely" (§3.2).
    config = bench_config(
        flush_size_bytes=1 << 40, max_merged_tablet_bytes=1 << 40,
        merge_policy="never", read_cache_bytes=0, latest_cache_entries=0)
    db, table = build_tabled_dataset(
        max(TABLET_SWEEP), TABLET_BYTES, row_size=ROW_SIZE,
        config=config, disk_params=params)
    for meta in table.on_disk_tablets:
        table._reader(meta).ensure_loaded()
    throughput = {}
    for n_tablets in TABLET_SWEEP:
        db.disk.drop_caches()
        result = run_query_scan(table, Query(
            time_range=TimeRange.between(BENCH_EPOCH,
                                         BENCH_EPOCH + n_tablets - 1)))
        throughput[n_tablets] = result.throughput_mbps(result.bytes_read)
    return throughput


def test_query_throughput_vs_tablets(benchmark):
    def run_both():
        return _sweep(128 * KIB), _sweep(1 * MIB)

    small_ra, large_ra = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_figure(
        "Figure 5: query throughput vs number of tablets",
        ["tablets", "128 kB readahead (MB/s)", "1 MB readahead (MB/s)"],
        [[n, f"{small_ra[n]:.1f}", f"{large_ra[n]:.1f}"]
         for n in TABLET_SWEEP],
    )
    benchmark.extra_info["mbps_128k"] = {n: round(v, 1)
                                         for n, v in small_ra.items()}
    benchmark.extra_info["mbps_1m"] = {n: round(v, 1)
                                       for n, v in large_ra.items()}
    last = TABLET_SWEEP[-1]
    # Throughput falls as tablets multiply (both configurations).
    assert small_ra[1] > 2 * small_ra[last]
    assert large_ra[1] > 1.2 * large_ra[last]
    # The larger readahead holds a higher floor (paper: ~40 vs ~24).
    assert large_ra[last] > 1.3 * small_ra[last]
    # Floors in the paper's neighbourhood (24 and 40 MB/s).
    assert 12 <= small_ra[last] <= 35
    assert 25 <= large_ra[last] <= 65
    # Weakly decreasing in tablet count.
    values = [small_ra[n] for n in TABLET_SWEEP]
    assert all(b <= a * 1.05 for a, b in zip(values, values[1:]))
