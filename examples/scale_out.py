#!/usr/bin/env python3
"""Scale-out: one workload, three deployments, zero code changes.

The unified client API (`repro.connect`) returns a database facade
with the same `create_table`/`table`/`stats`/`health` surface as an
in-process `LittleTable`, and its tables the same
`insert`/`query`/`latest` as a `Table`, so this example defines ONE
workload function and runs it unchanged against:

1. an in-process engine (no network at all);
2. a single engine behind the server front end;
3. a 4-shard `ShardRouter` behind the same front end, where
   scatter-gather queries merge rows from every shard in key order.

Run:  python examples/scale_out.py
"""

import time

import repro
from repro import ClientConfig, Column, ColumnType, LittleTable, Query, Schema
from repro.net import AsyncLittleTableServer, ShardRouter

SCHEMA = Schema(
    [
        Column("device", ColumnType.STRING),
        Column("ts", ColumnType.TIMESTAMP),
        Column("bytes", ColumnType.INT64),
    ],
    key=["device", "ts"],
)

DEVICES = 16
SAMPLES = 25


def workload(db, label):
    """The dashboard workload from the paper's §4.1, facade-only."""
    usage = db.create_table("usage", SCHEMA)
    now = int(time.time() * 1_000_000)
    rows = [
        {"device": f"ap-{d:02d}", "ts": now - s * 60_000_000,
         "bytes": 1000 * d + s}
        for d in range(DEVICES)
        for s in range(SAMPLES)
    ]
    inserted = usage.insert(rows)

    result = usage.query(Query(limit=DEVICES * SAMPLES))
    ordered = all(result.rows[i][:2] <= result.rows[i + 1][:2]
                  for i in range(len(result.rows) - 1))

    latest = usage.latest(("ap-07",))
    health = db.health()

    print(f"  [{label}] inserted={inserted} "
          f"queried={len(result.rows)} key-ordered={ordered} "
          f"latest(ap-07).bytes={latest[2]} "
          f"read_only={health['read_only']}")


def main() -> None:
    print("Scale-out: the same workload against three deployments\n")

    print("1. In-process engine:")
    with LittleTable() as db:
        workload(db, "in-process")

    print("2. One engine behind the server, repro.connect():")
    with AsyncLittleTableServer(LittleTable()) as server:
        with repro.connect(server.address) as db:
            workload(db, "1 server")

    print("3. The server over a 4-shard router:")
    router = ShardRouter(shards=4)
    with AsyncLittleTableServer(router) as server:
        host, port = server.address
        with repro.connect(f"{host}:{port}",
                           config=ClientConfig(pipeline_depth=64)) as db:
            workload(db, "4 shards")
            print(f"     server reports {db.client.server_shards} shards")
            snapshot = db.stats()
            scatter = snapshot["counters"].get("shard.scatter_queries", 0)
            single = snapshot["counters"].get(
                "shard.single_shard_queries", 0)
            print(f"     scatter-gather queries={scatter}, "
                  f"single-shard (pinned) queries={single}")

    print("\nOne facade, three deployments - no workload changes.")


if __name__ == "__main__":
    main()
