#!/usr/bin/env python3
"""Smoke check: the observability layer must cost <5% on inserts.

Runs the Figure 2 hot path - batched inserts into one table - twice
per trial, once with the real :class:`MetricsRegistry`/:class:`Tracer`
and once with the null objects, the trials of the two interleaved,
and compares best-of-N wall-clock times (ns per row printed on both
sides: the overhead is a share, so it moves when inserts get cheaper).
The design contract (docs/ARCHITECTURE.md, "Observability") is that
instrumentation adds under 5% to insert throughput; CI runs this
script and fails the build if it regresses.

Run:  PYTHONPATH=src python benchmarks/obs_overhead_smoke.py
"""

import sys
import time

from repro.core import Column, ColumnType, LittleTable, Schema
from repro.obs import NULL_REGISTRY, NULL_TRACER
from repro.util.clock import MICROS_PER_DAY, VirtualClock

ROWS_PER_BATCH = 100
BATCHES = 60
TRIALS = 5
THRESHOLD = 0.05


def usage_schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("bytes", ColumnType.INT64)],
        key=["network", "device", "ts"],
    )


def run_insert_workload(instrumented: bool) -> float:
    """Wall-clock seconds to insert the workload (no flushes)."""
    clock = VirtualClock(start=20_000 * MICROS_PER_DAY)
    if instrumented:
        db = LittleTable(clock=clock)
    else:
        db = LittleTable(clock=clock, metrics=NULL_REGISTRY,
                         tracer=NULL_TRACER)
    db.create_table("usage", usage_schema())
    table = db.table("usage")
    batches = []
    ts = clock.now()
    for batch_index in range(BATCHES):
        batches.append([
            {"network": batch_index, "device": device, "ts": ts + device,
             "bytes": device}
            for device in range(ROWS_PER_BATCH)
        ])
    started = time.perf_counter()
    for batch in batches:
        table.insert(batch)
    return time.perf_counter() - started


def main() -> int:
    run_insert_workload(True)  # warm up allocators and code paths
    run_insert_workload(False)
    # Interleaved (real, null, real, null ...) so that a busy spell of
    # the host lands on both sides, and compared min to min.
    with_obs = without_obs = float("inf")
    for _ in range(TRIALS):
        with_obs = min(with_obs, run_insert_workload(True))
        without_obs = min(without_obs, run_insert_workload(False))
    overhead = with_obs / without_obs - 1.0
    rows = ROWS_PER_BATCH * BATCHES
    print(f"inserted {rows} rows x {TRIALS} interleaved trials (best-of)")
    print(f"  null registry:  {without_obs * 1000:8.2f} ms "
          f"({rows / without_obs:,.0f} rows/s, "
          f"{without_obs / rows * 1e9:,.0f} ns/row)")
    print(f"  real registry:  {with_obs * 1000:8.2f} ms "
          f"({rows / with_obs:,.0f} rows/s, "
          f"{with_obs / rows * 1e9:,.0f} ns/row)")
    print(f"  overhead: {overhead * 100:+.2f}% "
          f"(threshold {THRESHOLD * 100:.0f}%)")
    if overhead > THRESHOLD:
        print("FAIL: observability overhead exceeds the budget")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
