#!/usr/bin/env python3
"""Event logs and forensics: the paper's §4.2 application.

EventsGrabber pulls device event logs (DHCP leases, associations,
802.1X authentications) into LittleTable; network operators then
browse and search them to debug connectivity problems.  This example
exercises the whole §4.2 story: monotonic event ids, a device outage,
a LittleTable crash, sentinel rows, and the SQL interface for the
actual forensics.

Run:  python examples/event_log_forensics.py
"""

from repro.core import KeyRange, Query, TimeRange
from repro.dashboard import Shard, ShardTopology
from repro.dashboard.events import SENTINEL_KIND
from repro.sqlapi import SqlSession
from repro.util.clock import MICROS_PER_HOUR, MICROS_PER_MINUTE


def main() -> None:
    shard = Shard(
        ShardTopology(customers=1, networks_per_customer=1,
                      aps_per_network=3, cameras_per_network=0),
        sentinel_period_micros=15 * MICROS_PER_MINUTE,
    )

    print("Collecting event logs for two simulated hours...")
    # Device 2 loses its uplink for 40 minutes along the way (§4's
    # "temporary device unavailability").
    outage_start = shard.clock.now() + 30 * MICROS_PER_MINUTE
    shard.mtunnel.schedule_outage(
        2, outage_start, outage_start + 40 * MICROS_PER_MINUTE)
    totals = shard.run_minutes(120)
    print(f"  stored {totals['event_rows']} events "
          f"(including periodic sentinel rows)")

    # Browse the most recent events, newest first, like the Dashboard
    # event-log page.
    print("\nMost recent events for network 1:")
    recent = shard.db.table("events").query(Query(
        KeyRange.prefix((1,)),
        TimeRange.between(shard.clock.now() - MICROS_PER_HOUR, None),
        direction="desc", limit=8))
    for _network, device, ts, event_id, kind, detail in recent.rows:
        minutes_ago = (shard.clock.now() - ts) / MICROS_PER_MINUTE
        print(f"  [{minutes_ago:5.1f} min ago] device {device} "
              f"#{event_id:<5} {kind:15} {detail}")

    # Forensics through SQL (§2.3.2: "using a well-understood ...
    # query language was extremely valuable").
    sql = SqlSession(shard.db)
    print("\nEvent counts by device (SQL):")
    counts = sql.execute(
        "SELECT network, device, COUNT(*) FROM events "
        "WHERE network = 1 GROUP BY network, device")
    for _network, device, count in counts:
        print(f"  device {device}: {count} events")

    # The outage left no duplicate or missing ids: the device's
    # monotonic counter plus the grabber's id cache see to that.
    events = shard.db.table("events")
    rows = events.query(Query(KeyRange.prefix((1, 2)))).rows
    ids = [r[3] for r in rows if r[4] != SENTINEL_KIND]
    print(f"\nDevice 2 (which suffered a 40-minute outage): "
          f"{len(ids)} events, ids {ids[0]}..{ids[-1]}, "
          f"duplicates: {len(ids) - len(set(ids))}, "
          f"gaps: {ids[-1] - ids[0] + 1 - len(ids)}")

    # Crash LittleTable and restart the grabber; sentinels bound how
    # far back recovery must search (§4.2).
    print("\nCrashing LittleTable and restarting the grabber...")
    shard.db.flush_all()
    shard.crash_littletable()
    shard.run_minutes(10)
    rows = shard.db.table("events").query(Query(KeyRange.prefix((1,)))).rows
    pairs = [(r[1], r[3]) for r in rows if r[4] != SENTINEL_KIND]
    print(f"  after recovery: {len(rows)} rows, duplicate events: "
          f"{len(pairs) - len(set(pairs))}")
    sentinels = [r for r in rows if r[4] == SENTINEL_KIND]
    print(f"  sentinel rows present: {len(sentinels)} "
          f"(each repeats its device's latest real event id, which is "
          f"what bounds the recovery search)")


if __name__ == "__main__":
    main()
