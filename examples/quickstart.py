#!/usr/bin/env python3
"""Quickstart: the LittleTable core API in five minutes.

Creates a database, defines a two-dimensionally clustered table (the
paper's Figure 1 example: key = network, device, ts), inserts some
samples, and runs the two dashboard queries the paper's introduction
motivates - a whole-network graph and a single-device drill-down -
plus a latest-row lookup, a crash/recovery round trip, and a look at
the engine's metrics registry.

Run:  python examples/quickstart.py
"""

from repro.core import (
    Column,
    ColumnType,
    KeyRange,
    LittleTable,
    Query,
    Schema,
    TimeRange,
)
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock


def main() -> None:
    # A virtual clock makes the example deterministic; pass no clock
    # to use wall time.  (No `with` here: the crash demo below needs
    # to leave rows unflushed, and leaving a `with` block flushes.)
    clock = VirtualClock(start=20_000 * MICROS_PER_DAY)
    db = LittleTable(clock=clock)

    # The paper's running example: bytes transferred per device,
    # clustered by (network, device) and partitioned by time.  The
    # last key column must be the timestamp, named "ts" (§3.1).
    schema = Schema(
        [
            Column("network", ColumnType.INT64),
            Column("device", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("bytes", ColumnType.INT64),
        ],
        key=["network", "device", "ts"],
    )
    usage = db.create_table("usage", schema, ttl_micros=365 * MICROS_PER_DAY)

    # Insert ten minutes of samples for two networks of three devices.
    # Rows go through the table (`db.table("usage")` looks it up again
    # by name), on an embedded engine and over the wire alike.
    for minute in range(10):
        rows = [
            {"network": network, "device": device, "ts": clock.now(),
             "bytes": 1000 * network + 10 * device + minute}
            for network in (1, 2)
            for device in range(3)
        ]
        usage.insert(rows)
        clock.advance(MICROS_PER_MINUTE)

    # Query 1: everything network 1 transferred in the last five
    # minutes - one contiguous rectangle of the keyspace x time plane.
    recent = TimeRange.between(clock.now() - 5 * MICROS_PER_MINUTE, None)
    result = usage.query(Query(KeyRange.prefix((1,)), recent))
    print(f"network 1, last 5 minutes: {len(result.rows)} rows")
    total = sum(row[3] for row in result.rows)
    print(f"  total bytes: {total}")

    # Query 2: drill down to one device over all time.
    result = usage.query(Query(KeyRange.prefix((1, 2))))
    print(f"network 1 device 2, all time: {len(result.rows)} rows")

    # Latest row for a key prefix (§3.4.5) - what EventsGrabber uses
    # to find where it left off.
    latest = usage.latest((2, 0))
    print(f"latest sample for (2, 0): ts={latest[2]}, bytes={latest[3]}")

    # Every layer records into one metrics registry; this is the same
    # view `ltdb stats` and the STATS protocol command render.
    counters = db.metrics.snapshot()["counters"]
    print(f"inserted {counters['insert.rows']} rows in "
          f"{counters['insert.batches']} batches; "
          f"{counters['query.count']} queries scanned "
          f"{counters['query.rows_scanned']} rows")

    # Durability is deliberately weak (§3.1): unflushed rows die in a
    # crash, flushed rows survive, and survival is always a prefix of
    # insertion order.
    db.flush_all()
    usage.insert([{"network": 9, "device": 9, "ts": clock.now(),
                   "bytes": 1}])

    # The recovered database is a context manager: leaving the block
    # is a clean shutdown that flushes every table.
    with db.simulate_crash() as recovered_db:
        survivors = recovered_db.table("usage").query(Query()).rows
        print(f"rows before crash: 61; after recovery: {len(survivors)} "
              f"(the unflushed row was lost, as designed)")

        # The same data through the SQL front end (§2.3.2).
        from repro.sqlapi import SqlSession

        sql = SqlSession(recovered_db)
        answer = sql.execute(
            "SELECT device, SUM(bytes) FROM usage WHERE network = 1 "
            "GROUP BY network, device")
        print("SQL per-device totals for network 1:")
        for device, total_bytes in answer:
            print(f"  device {device}: {total_bytes} bytes")


if __name__ == "__main__":
    main()
