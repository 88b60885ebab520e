"""Figure 8 - distribution of key and value sizes per table (§5.2.2).

"Overall, tables have small keys: the median key size is only 45 bytes
and all keys are less than 128 bytes.  Most values are small as well:
the median value is only 61 bytes, and 91% of LittleTable tables have
an average value size of 1 kB or less.  The largest values store
large, probabilistic representations of sets of clients ... as large
as 75 kB.  The average row is 791 bytes, large enough to write at
72 MB/s according to ... Figure 2."
"""

import pytest

from benchmarks.fleet import FleetSynthesizer
from benchmarks.harness import cdf_at, print_figure, run_insert_workload
from repro.obs.metrics import percentile

KIB = 1024


def _census():
    return FleetSynthesizer(seed=2017).tables(count=2700)


def test_key_value_size_distributions(benchmark):
    tables = benchmark.pedantic(_census, rounds=1, iterations=1)
    keys = sorted(t.key_bytes for t in tables)
    values = sorted(t.value_bytes for t in tables)
    fractions = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    print_figure(
        "Figure 8: CDF of per-table key and value sizes",
        ["fraction of tables", "key (B)", "value (B)"],
        [[f"{f:.2f}", f"{percentile(keys, f):.0f}",
          f"{percentile(values, f):.0f}"] for f in fractions],
    )
    avg_row = sum(k + v for k, v in zip(keys, values)) / len(keys)
    print(f"median key {percentile(keys, 0.5):.0f} B (paper 45), "
          f"median value {percentile(values, 0.5):.0f} B (paper 61), "
          f"avg row {avg_row:.0f} B (paper 791)")
    benchmark.extra_info.update({
        "median_key_bytes": percentile(keys, 0.5),
        "median_value_bytes": percentile(values, 0.5),
        "avg_row_bytes": round(avg_row),
    })
    # §5.2.2's anchors.
    assert 35 <= percentile(keys, 0.5) <= 60
    assert max(keys) < 128
    assert 40 <= percentile(values, 0.5) <= 90
    assert 0.85 <= cdf_at(values, 1 * KIB) <= 0.95
    assert 32 * KIB <= max(values) <= 75 * KIB
    assert 500 <= avg_row <= 1100

    # The paper's closing cross-check: the average row is "large
    # enough to write at 72 MB/s according to ... Figure 2".  Run that
    # row size through the Figure 2 machinery.
    result = run_insert_workload(row_size=int(avg_row),
                                 batch_bytes=64 * KIB,
                                 total_bytes=4 * 1024 * KIB)
    print(f"avg-row insert throughput: {result.throughput_mbps:.1f} MB/s "
          f"(paper 72)")
    assert 50 <= result.throughput_mbps <= 95
