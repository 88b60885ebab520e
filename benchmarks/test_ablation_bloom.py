"""Ablation - per-tablet key Bloom filters (DESIGN.md §5, paper §3.4.5).

The paper proposes Bloom filters over tablet keys so that latest-row-
for-prefix queries "eliminate the need to check 99% of the tablets
that do not contain any matching key at a storage cost of only 10 bits
per row", and notes the same filters accelerate duplicate-key checks
on insert.  We implemented the proposal; this benchmark measures both
effects by running the same workload with filters on and off.
"""

import pytest

from benchmarks.harness import BENCH_EPOCH, bench_config, make_bench_db, \
    print_figure
from repro.core import Column, ColumnType, Schema
from repro.util.clock import MICROS_PER_HOUR

TABLETS = 40
DEVICES_PER_TABLET = 30


def _schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("value", ColumnType.INT64)],
        key=["network", "device", "ts"],
    )


def _build(bloom_filters):
    config = bench_config(
        bloom_filters=bloom_filters,
        flush_size_bytes=1 << 30,
        max_merged_tablet_bytes=1 << 40,
        merge_policy="never",
    )
    db, clock = make_bench_db(config)
    table = db.create_table("events", _schema())
    # Each tablet holds one hour for a disjoint set of devices: the
    # target device's rows live only in the oldest tablet.  Every
    # newer tablet also carries two sentinel devices (0 and 99999) so
    # its min/max-key zone map spans the whole device range: range
    # pruning cannot exclude it, and only the Bloom filter knows the
    # target key is absent (membership vs range — the paper's point).
    for tablet in range(TABLETS):
        ts = BENCH_EPOCH + tablet * MICROS_PER_HOUR
        clock.set(ts)
        base_device = tablet * DEVICES_PER_TABLET
        rows = [(1, base_device + d, ts + d, tablet)
                for d in range(DEVICES_PER_TABLET)]
        if tablet > 0:
            rows += [(1, 0, ts + 1000, tablet),
                     (1, 99999, ts + 1000, tablet)]
        table.insert_tuples(rows)
        table.flush_all()
    clock.set(BENCH_EPOCH + TABLETS * MICROS_PER_HOUR)
    return db, table


def _probe(db, table):
    db.disk.drop_caches()
    # Warm the footers (the steady state: footers are cached "almost
    # indefinitely", §3.2), then measure data-block reads only.
    for meta in table.on_disk_tablets:
        table._reader(meta).ensure_loaded()
    before = db.disk.stats.snapshot()
    # The latest row for a device whose data is in the OLDEST tablet:
    # without filters every newer tablet's blocks must be searched.
    found = table.latest((1, 5))
    delta = db.disk.stats.delta_since(before)
    return found, delta


def test_bloom_filters_prune_tablets(benchmark):
    def run():
        with_bloom = _probe(*_build(bloom_filters=True))
        without_bloom = _probe(*_build(bloom_filters=False))
        return with_bloom, without_bloom

    (found_on, io_on), (found_off, io_off) = benchmark.pedantic(
        run, rounds=1, iterations=1)
    print_figure(
        "Ablation: latest-row query for a key in the oldest of "
        f"{TABLETS} tablets",
        ["configuration", "data bytes read"],
        [
            ["bloom filters ON", f"{io_on.bytes_read:,}"],
            ["bloom filters OFF", f"{io_off.bytes_read:,}"],
        ],
    )
    benchmark.extra_info.update({
        "bytes_read_on": io_on.bytes_read,
        "bytes_read_off": io_off.bytes_read,
    })
    # Same answer either way.
    assert found_on == found_off
    assert found_on is not None
    # Filters skip the non-matching tablets' block reads (the paper's
    # ~99% estimate; here 39 of 40 tablets are prunable).
    assert io_on.bytes_read < io_off.bytes_read / 4
