#!/usr/bin/env python3
"""Data lifecycle: the paper's proposed extensions, end to end.

The paper closes with features Meraki was considering; this
reproduction implements them, and this example walks the life of a
table through all of them:

* the §4.1.2 flush command (``flush_before``), removing the
  aggregators' 20-minute persistence assumption;
* the §6 LHAM-style cold tier, moving old tablets to archive storage;
* the §7 bulk delete, for regional-privacy compliance;
* the §2.2 warm spare: continuous archival and hourly snapshots (one
  copy of each table's tablets, then its descriptor), signed offsite
  backups, and DNS failover.

Run:  python examples/data_lifecycle.py
"""

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    KeyRange,
    LittleTable,
    Query,
    Schema,
    TimeRange,
)
from repro.dashboard import DashboardDns, FailoverController, WarmSpare
from repro.disk import DiskParameters, SimulatedDisk
from repro.util.clock import (
    MICROS_PER_DAY,
    MICROS_PER_MINUTE,
    MICROS_PER_WEEK,
    VirtualClock,
)


def main() -> None:
    clock = VirtualClock(start=20_000 * MICROS_PER_DAY)
    # An archive tier with S3-ish latencies next to the hot disk.
    cold = SimulatedDisk(params=DiskParameters(
        seek_time_s=0.080, read_throughput_bps=40 * 1024 * 1024))
    db = LittleTable(clock=clock, cold_disk=cold,
                     config=EngineConfig(merge_min_age_micros=0))
    schema = Schema(
        [Column("customer", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("bytes", ColumnType.INT64)],
        key=["customer", "device", "ts"],
    )
    usage = db.create_table("usage", schema)

    # --- 1. Months of history accumulate -----------------------------
    print("Accumulating 8 weeks of samples for 3 customers...")
    start = clock.now()
    for week in range(8):
        for customer in (1, 2, 3):
            rows = [{"customer": customer, "device": d,
                     "ts": start + week * MICROS_PER_WEEK + d,
                     "bytes": week * 100 + d} for d in range(10)]
            usage.insert(rows)
        usage.flush_all()
    clock.advance(8 * MICROS_PER_WEEK)
    db.maintenance_until_quiet()
    print(f"  {usage.row_count_estimate()} rows in "
          f"{len(usage.on_disk_tablets)} tablets")

    # --- 2. The explicit flush command (§4.1.2) ----------------------
    usage.insert([{"customer": 1, "device": 99, "ts": clock.now(),
                   "bytes": 1}])
    written = usage.flush_before(clock.now() + 1)
    print(f"\nflush_before(now): {len(written)} tablet(s) written - "
          f"aggregators can now trust everything up to 'now' is durable")

    # --- 3. Old data migrates to the cold tier (§6) ------------------
    cutoff = clock.now() - 3 * MICROS_PER_WEEK
    moved = usage.migrate_to_cold(cutoff)
    tiers = [t.tier for t in usage.on_disk_tablets]
    print(f"\nmigrate_to_cold: {moved} tablet(s) moved; tiers now "
          f"{sorted(tiers)}")
    old_rows = usage.query(Query(
        KeyRange.prefix((2,)),
        TimeRange.between(None, cutoff))).rows
    print(f"  queries still see the archived history transparently: "
          f"{len(old_rows)} old rows for customer 2 "
          f"(cold-tier read time {cold.elapsed_s * 1000:.0f} ms modeled)")

    # --- 4. A customer invokes their right to erasure (§7) -----------
    before = len(usage.query(Query()).rows)
    removed = usage.bulk_delete((2,))
    after = len(usage.query(Query()).rows)
    print(f"\nbulk_delete(customer=2): {removed} rows removed "
          f"({before} -> {after}); hot and cold tablets rewritten in "
          f"place")

    # --- 5. The warm spare and failover (§2.2) -----------------------
    spare = WarmSpare(clock)
    dns = DashboardDns()
    controller = FailoverController("shard-7", db, spare, dns, clock)
    copied = controller.run_archival_tick()
    again = controller.run_archival_tick()
    snapshot = spare.take_local_snapshot()
    offsite = spare.offsite_backup()
    print(f"\nspare synced: {copied} tablet file(s) copied, each table's "
          f"descriptor last; the next sync copies {again} (the rsync "
          f"rule: repeat until a pass copies nothing)")
    print(f"hourly snapshot taken ({len(snapshot.list())} files: the same "
          f"copy into a fresh store), offsite backup signed "
          f"({len(offsite):,} bytes)")

    print("Primary fails! Initiating automated failover...")
    promoted = controller.initiate_failover()
    rows = promoted.table("usage").query(Query()).rows
    print(f"  DNS now points at: {dns.resolve('shard-7')}; the spare "
          f"serves {len(rows)} rows "
          f"(the bulk delete is preserved: "
          f"{sum(1 for r in rows if r[0] == 2)} customer-2 rows)")


if __name__ == "__main__":
    main()
