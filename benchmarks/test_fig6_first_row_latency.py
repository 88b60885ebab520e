"""Figure 6 - first-row latency vs number of tablets (§5.1.6).

Queries for random keys against a cold cache: the first query must
read each overlapping tablet's footer (inode + trailer + footer = 3
seeks) plus one block (1 seek), ~4 seeks/tablet; the second query
finds the footers cached and pays ~1 seek/tablet.  The paper's linear
regressions give slopes of 30.3 ms and 8.3 ms per tablet - "very close
to the 4 and 1 seek times we expect".
"""

import pytest

from benchmarks.harness import bench_config, build_tabled_dataset, \
    first_row_latency, first_row_latency_cold, linear_regression, \
    print_figure

MIB = 1024 * 1024
TABLET_SWEEP = list(range(1, 33, 3))
TABLET_BYTES = 2 * MIB  # scaled from the paper's 16 MB


def _measure():
    # Tablets big enough that footers span several pages (see the
    # model's cache_chunk_bytes note) and blocks sit far from them.
    # Bloom filters off, matching the paper's measured system (they
    # are §3.4.5 future work and would fatten every footer read).
    config = bench_config(flush_size_bytes=1 << 40,
                          max_merged_tablet_bytes=1 << 40,
                          merge_policy="never", bloom_filters=False)
    db, table = build_tabled_dataset(
        n_tablets=max(TABLET_SWEEP), tablet_bytes=TABLET_BYTES,
        row_size=128, config=config)
    first_ms = {}
    second_ms = {}
    for n_tablets in TABLET_SWEEP:
        # First query: cold page cache AND cold footers (restart).
        first_ms[n_tablets] = 1000 * first_row_latency_cold(
            table, n_tablets, probe_seed=n_tablets * 7 + 1)
        # Second query, different random key: footers now cached.
        second_ms[n_tablets] = 1000 * first_row_latency(
            table, n_tablets, probe_seed=n_tablets * 7 + 2)
    return first_ms, second_ms


def test_first_row_latency_slopes(benchmark):
    first_ms, second_ms = benchmark.pedantic(_measure, rounds=1,
                                             iterations=1)
    xs = list(TABLET_SWEEP)
    slope_first, _ = linear_regression(
        xs, [first_ms[n] for n in xs])
    slope_second, _ = linear_regression(
        xs, [second_ms[n] for n in xs])
    print_figure(
        "Figure 6: first-row latency vs number of tablets",
        ["tablets", "first query (ms)", "second query (ms)"],
        [[n, f"{first_ms[n]:.1f}", f"{second_ms[n]:.1f}"]
         for n in xs],
    )
    print(f"slopes: first query {slope_first:.1f} ms/tablet "
          f"(paper 30.3), second query {slope_second:.1f} ms/tablet "
          f"(paper 8.3)")
    benchmark.extra_info.update({
        "slope_first_ms_per_tablet": round(slope_first, 2),
        "slope_second_ms_per_tablet": round(slope_second, 2),
    })
    # ~4 seeks/tablet cold (8 ms each) and ~1 seek/tablet warm.
    assert 24 <= slope_first <= 40
    assert 6 <= slope_second <= 12
    # The single-tablet cold latency is the headline's 31 ms.
    assert 15 <= first_ms[1] <= 60
    # Latency grows with tablet count in both passes.
    assert first_ms[xs[-1]] > first_ms[xs[0]]
    assert second_ms[xs[-1]] > second_ms[xs[0]]
