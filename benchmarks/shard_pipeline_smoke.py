#!/usr/bin/env python3
"""CI smoke gate: pipelining must beat sequential >= 2x on loopback.

Boots a 2-shard router behind the asyncio front end, then issues the
same 800 latest-row lookups through one connection twice: first
sequentially (untagged, one round trip per request), then pipelined
(id-tagged, up to 256 requests in flight).  Latest-row lookups
are the paper's cheapest hot-path request (§3.4.5), so the round trip
dominates and pipelining's amortization must win by at least 2x even
on loopback; CI fails the build if that regresses.  Both sides take
the best of three trials to shave scheduler noise.

Run:  PYTHONPATH=src python benchmarks/shard_pipeline_smoke.py
"""

import sys
import time

from repro.core import Column, ColumnType, Schema
from repro.net import (
    AsyncLittleTableServer,
    ClientConfig,
    LittleTableClient,
    ShardRouter,
)
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 20_000 * MICROS_PER_DAY
REQUESTS = 800
DEVICES = 50
TRIALS = 3
MIN_SPEEDUP = 2.0


def usage_schema():
    return Schema(
        [Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("bytes", ColumnType.INT64)],
        key=["device", "ts"],
    )


def main() -> int:
    router = ShardRouter(shards=2, clock=VirtualClock(start=BASE))
    router.create_table("usage", usage_schema())
    with AsyncLittleTableServer(router) as server:
        host, port = server.address

        client = LittleTableClient(
            host, port, config=ClientConfig(pipeline_depth=256))
        client.insert("usage", [
            {"device": d, "ts": BASE + d, "bytes": d}
            for d in range(DEVICES)])

        def sequential_trial():
            started = time.perf_counter()
            for i in range(REQUESTS):
                assert client.latest("usage", (i % DEVICES,)) is not None
            return time.perf_counter() - started

        def pipelined_trial():
            started = time.perf_counter()
            with client.pipeline() as pipe:
                replies = [pipe.latest("usage", (i % DEVICES,))
                           for i in range(REQUESTS)]
            assert all(r.result() is not None for r in replies)
            return time.perf_counter() - started

        sequential_s = min(sequential_trial() for _ in range(TRIALS))
        pipelined_s = min(pipelined_trial() for _ in range(TRIALS))
        client.close()
    router.close()

    speedup = sequential_s / pipelined_s
    print(f"sequential: {sequential_s:.3f} s "
          f"({REQUESTS / sequential_s:,.0f} req/s)")
    print(f"pipelined:  {pipelined_s:.3f} s "
          f"({REQUESTS / pipelined_s:,.0f} req/s)")
    print(f"speedup:    {speedup:.2f}x (gate: >= {MIN_SPEEDUP}x)")
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: pipelining under {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
