"""Figure 9 - rows scanned / rows returned by table (§5.2.4).

Measured, not synthesized: we run a production-like query mix against
real tables and read the engine's own scanned/returned counters.  The
paper: "on average, queries are very efficient, scanning only 1.4 rows
for every row they return, and 80% of tables see a ratio of 3.3 or
less.  A small minority of queries, however, are from applications
looking for the latest value for a prefix of the primary key" - those
scan arbitrarily many rows per row returned, producing the CDF's long
tail out to ~10,000.
"""

import pytest

from benchmarks.harness import BENCH_EPOCH, bench_config, cdf_at, \
    make_bench_db, print_figure
from repro.core import Column, ColumnType, KeyRange, Query, Schema, TimeRange
from repro.obs.metrics import percentile
from repro.util.clock import MICROS_PER_HOUR, MICROS_PER_MINUTE

NETWORKS = 4
DEVICES = 6
HOURS = 8


def _usage_schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("value", ColumnType.INT64)],
        key=["network", "device", "ts"],
    )


def _build_table(db, clock, name):
    table = db.create_table(name, _usage_schema())
    for hour in range(HOURS):
        rows = []
        for minute in range(0, 60, 5):
            ts = (BENCH_EPOCH + hour * MICROS_PER_HOUR
                  + minute * MICROS_PER_MINUTE)
            for network in range(NETWORKS):
                for device in range(DEVICES):
                    rows.append((network, device, ts, hour))
        table.insert_tuples(rows)
        table.flush_all()
    return table


def _run_query_mix():
    db, clock = make_bench_db()
    clock.set(BENCH_EPOCH + HOURS * MICROS_PER_HOUR)
    ratios = []
    last_hour = TimeRange.between(clock.now() - MICROS_PER_HOUR, None)
    for index in range(25):
        table = _build_table(db, clock, f"t{index:02d}")
        if index < 15:
            # Well-matched dashboard queries: key prefix + recent time.
            for network in range(NETWORKS):
                table.query(Query(KeyRange.prefix((network,)), last_hour))
                table.query(Query(KeyRange.prefix((network, 2)), last_hour))
        elif index < 20:
            # Mixed: some queries span more time than they display.
            for network in range(NETWORKS):
                table.query(Query(KeyRange.prefix((network,)), last_hour))
                table.query(Query(
                    KeyRange.prefix((network, 1)),
                    TimeRange.between(clock.now() - MICROS_PER_MINUTE,
                                      None)))
        else:
            # Latest-for-short-prefix apps (§3.4.5): scan a whole
            # prefix to return one row.
            for _repeat in range(4):
                for network in range(NETWORKS):
                    table.latest((network,))
        counters = table.counters
        returned = max(1, counters.rows_returned)
        ratios.append(counters.rows_scanned / returned)
    return ratios


def test_scan_ratio_distribution(benchmark):
    ratios = benchmark.pedantic(_run_query_mix, rounds=1, iterations=1)
    ordered = sorted(ratios)
    fractions = [0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
    print_figure(
        "Figure 9: CDF of rows scanned / rows returned, by table",
        ["fraction of tables", "scan ratio"],
        [[f"{f:.1f}", f"{percentile(ordered, f):.2f}"] for f in fractions],
    )
    median = percentile(ordered, 0.5)
    at_80 = percentile(ordered, 0.8)
    print(f"median ratio {median:.2f} (paper ~1.4), 80th percentile "
          f"{at_80:.2f} (paper 3.3), max {max(ordered):.0f}")
    benchmark.extra_info.update({
        "median_ratio": round(median, 2),
        "p80_ratio": round(at_80, 2),
        "max_ratio": round(max(ordered), 1),
    })
    # Most tables are efficient (the paper's 1.4 average / 3.3 at 80%).
    assert median <= 2.0
    assert cdf_at(ordered, 3.3) >= 0.6
    # The latest-row tables form the long tail.  The exact maximum
    # depends on how many rows land in the final block (format v2
    # packs denser blocks than v1), so the floor is an order-of-
    # magnitude check, not a byte-layout constant.
    assert max(ordered) >= 10
    # Every ratio is at least 1 (you cannot return unscanned rows).
    assert min(ordered) >= 1.0
