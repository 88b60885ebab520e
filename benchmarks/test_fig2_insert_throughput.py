"""Figure 2 - insert throughput vs batch size and row size (§5.1.2).

Solid line: 128-byte rows, batch size swept 256 B - 1 MB; throughput
rises as per-command overhead amortizes.  Dashed line: 64 kB batches,
row size swept 32 B - 64 kB; throughput rises from ~12% of disk peak
(32 B) to ~63% (4 kB), then dips for block-spanning rows.
"""

import pytest

from benchmarks.harness import print_figure, run_insert_workload

KIB = 1024
MIB = 1024 * 1024
TOTAL_BYTES = 4 * MIB  # scaled from the paper's 500 MB (DESIGN.md §2)

BATCH_SWEEP = [256, 1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1 * MIB]
ROW_SWEEP = [32, 64, 128, 256, 512, 1 * KIB, 2 * KIB, 4 * KIB,
             8 * KIB, 16 * KIB, 32 * KIB]


def _sweep_batch_size():
    return [run_insert_workload(128, batch, TOTAL_BYTES)
            for batch in BATCH_SWEEP]


def _sweep_row_size():
    return [run_insert_workload(row, 64 * KIB, TOTAL_BYTES)
            for row in ROW_SWEEP]


def test_insert_throughput_vs_batch_size(benchmark):
    results = benchmark.pedantic(_sweep_batch_size, rounds=1, iterations=1)
    rows = [[f"{r.batch_bytes}", f"{r.throughput_mbps:.1f}",
             f"{100 * r.fraction_of_peak():.1f}%"] for r in results]
    print_figure("Figure 2 (solid): insert throughput vs batch size "
                 "(128 B rows)",
                 ["batch bytes", "MB/s", "% of peak"], rows)
    benchmark.extra_info["mbps_by_batch"] = {
        r.batch_bytes: round(r.throughput_mbps, 2) for r in results
    }
    throughputs = [r.throughput_mbps for r in results]
    # Monotone rise with batch size, large dynamic range (paper: the
    # per-command overhead dominates small batches).
    assert throughputs == sorted(throughputs)
    assert throughputs[-1] > 8 * throughputs[0]
    # 64 kB batches land in the neighbourhood of the paper's 42%.
    at_64k = results[BATCH_SWEEP.index(64 * KIB)]
    assert 0.25 <= at_64k.fraction_of_peak() <= 0.55


def test_insert_throughput_vs_row_size(benchmark):
    results = benchmark.pedantic(_sweep_row_size, rounds=1, iterations=1)
    rows = [[f"{r.row_size}", f"{r.throughput_mbps:.1f}",
             f"{100 * r.fraction_of_peak():.1f}%"] for r in results]
    print_figure("Figure 2 (dashed): insert throughput vs row size "
                 "(64 kB batches)",
                 ["row bytes", "MB/s", "% of peak"], rows)
    benchmark.extra_info["mbps_by_row_size"] = {
        r.row_size: round(r.throughput_mbps, 2) for r in results
    }
    by_size = {r.row_size: r for r in results}
    # Paper endpoints: 32 B rows ~12% of peak, 4 kB rows ~63%.
    assert 0.08 <= by_size[32].fraction_of_peak() <= 0.25
    assert 0.5 <= by_size[4 * KIB].fraction_of_peak() <= 0.75
    # Rising through the small-row range...
    small_range = [by_size[s].throughput_mbps
                   for s in (32, 64, 128, 256, 512, 1 * KIB)]
    assert small_range == sorted(small_range)
    # ...with the post-4 kB dip for block-spanning rows.
    assert by_size[32 * KIB].throughput_mbps < by_size[4 * KIB].throughput_mbps
