"""T1 - the paper's headline microbenchmark numbers (abstract, §1).

"Querying an uncached table of 128-byte rows, it returns the first
matching row in 31 ms, and it returns 500,000 rows/second thereafter,
approximately 50% of the throughput of the disk itself.  ...
LittleTable accepts batches of 512 128-byte rows ... at 42% of the
disk's peak write throughput."
"""

from benchmarks.harness import (
    bench_config,
    build_tabled_dataset,
    print_figure,
    run_insert_workload,
    run_query_scan,
)
from repro.core import Query

MIB = 1024 * 1024


def _measure():
    # Insert side: 512-row batches of 128 B rows.
    insert = run_insert_workload(row_size=128, batch_bytes=512 * 128,
                                 total_bytes=8 * MIB)
    # Query side: an uncached single-tablet table of 128 B rows, after
    # a full cold start (page cache and in-memory footers dropped).
    # Bloom filters off: the paper's measured system proposes them as
    # future work (§3.4.5), and they would fatten the footer read.
    config = bench_config(flush_size_bytes=1 << 40,
                          max_merged_tablet_bytes=1 << 40,
                          merge_policy="never", bloom_filters=False)
    db, table = build_tabled_dataset(n_tablets=1, tablet_bytes=16 * MIB,
                                     row_size=128, random_keys=True,
                                     config=config)
    db.disk.drop_caches()
    table.evict_reader_cache()
    scan = run_query_scan(table, Query())
    first_row_ms = scan.first_row_disk_s * 1000.0
    return {
        "insert_mbps": insert.throughput_mbps,
        "insert_fraction_of_peak": insert.fraction_of_peak(),
        "first_row_ms": first_row_ms,
        "rows_per_second": scan.rows_per_s,
        "scan_fraction_of_disk": (scan.bytes_read / MIB / scan.total_s) / 120,
    }


def test_headline_numbers(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    print_figure(
        "T1: headline microbenchmark (paper -> measured)",
        ["metric", "paper", "measured"],
        [
            ["first matching row (ms)", "31",
             f"{result['first_row_ms']:.1f}"],
            ["query rows/second", "500,000",
             f"{result['rows_per_second']:,.0f}"],
            ["query fraction of disk", "~50%",
             f"{100 * result['scan_fraction_of_disk']:.0f}%"],
            ["512x128B insert, fraction of peak", "42%",
             f"{100 * result['insert_fraction_of_peak']:.0f}%"],
        ],
    )
    # Shape assertions: same order of magnitude and the same story.
    assert 15 <= result["first_row_ms"] <= 60
    assert 250_000 <= result["rows_per_second"] <= 900_000
    assert 0.3 <= result["scan_fraction_of_disk"] <= 0.7
    assert 0.25 <= result["insert_fraction_of_peak"] <= 0.55
