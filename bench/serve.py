"""Child server for the wire workloads: ``python3 bench/serve.py``.

A 4-shard ``ShardRouter`` over ``--data-dir`` on the WAL tier behind
``AsyncLittleTableServer``, with the pinned configuration and a clock
pinned at the end of the generated timeline.  Prints
``READY <host> <port>`` once it serves.  Then obeys lines on stdin:

``dump <path>``    write counters, modeled-disk totals and spans as JSON
``digest``         print row count and CRC sum of every table
``quiesce``        flush everything and merge until there is no work
(end of input)     shut down cleanly

Maintenance is started per engine.  ``AsyncLittleTableServer(router,
policy=...)`` runs one scheduler over the router's ``ShardedTable``
facade, which lacks what the scheduler calls, so every tick fails and
nothing ever flushes (see bench/README.md, "Findings").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.core.row import Query                         # noqa: E402
from repro.net.async_server import AsyncLittleTableServer  # noqa: E402
from repro.net.shard import ShardRouter                  # noqa: E402
from repro.util.clock import VirtualClock                # noqa: E402

from bench import config, gen, layers, trace             # noqa: E402


def count_fsyncs() -> List[int]:
    """Count ``os.fsync`` calls instead of waiting for them.

    A poll cycle waits for up to eight (two inserts, four shards).  On
    the shared virtio disk of this sandbox each takes 0.2 to 0.6 ms as the
    host pleases, and each is a sleep after which the server waits its
    turn for a CPU again: with a niced CPU hog on the same core the same
    commit read an ``insert_p50_ms`` of 8.5 to 12.7 ms, and 7.2 to 9.8 ms
    without the waits.  The time is the host's, not the program's, so the benchmark
    reports the count (``disk.fsyncs``) and the modeled spindle time.
    SIGKILL loses nothing that ``write`` handed to the kernel, so the
    recovery check is as strict as before."""
    calls = [0]

    def fsync(fd: int) -> None:
        calls[0] += 1

    os.fsync = fsync
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--span-id-base", type=int,
                        default=trace.SERVER_SPAN_BASE)
    args = parser.parse_args()

    fsyncs = count_fsyncs()
    recorder = trace.Recorder(args.span_id_base)
    if args.trace:
        recorder.install(trace.program_sites())
    router = ShardRouter(
        shards=config.SHARDS, data_dir=args.data_dir,
        config=config.engine_config(),
        clock=VirtualClock(start=config.TIMELINE_END),
        maintenance_policy=config.maintenance_policy(),
        durability=config.wal_policy())
    for engine in router.engines:
        engine.start_maintenance()
    server = AsyncLittleTableServer(router)
    server.start()
    host, port = server.address
    print(f"READY {host} {port}", flush=True)
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "dump":
                snapshot = layers.engine_snapshot(router.engines,
                                                  router.metrics)
                snapshot["counters"]["disk.fsyncs"] = fsyncs[0]
                snapshot["spans"] = recorder.records
                Path(argument).write_text(json.dumps(snapshot))
                print("DUMPED", flush=True)
            elif command == "digest":
                digests = {
                    name: gen.digest_rows(list(router.table(name).scan(Query())))
                    for name in router.table_names()}
                print("DIGEST " + json.dumps(digests), flush=True)
            elif command == "quiesce":
                router.flush_all()
                router.maintenance_until_quiet()
                print("QUIET", flush=True)
    finally:
        server.stop()
        router.close()
        recorder.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
