"""Soak stability: flat p99 under sustained ingest + dashboard load,
with the merger running.

One configuration, the default maintenance loop (flush debt first in
each pass, fixed-depth insert backpressure, ``merge_budget_per_tick``).
It ingests continuously (batched inserts, advancing virtual timestamps
so tablets retire and merge) while a second thread runs
dashboard-style latest/range queries.  Latencies are bucketed into
wall-clock windows; the *spike amplitude* is the worst windowed p99
over the median windowed p99.  Two gates, and the second is what keeps
the first honest:

* insert and query amplitude <= 3.0x;
* maintenance kept up: the run ends on no more tablets than the
  appendix's bound for what it flushed (``max_tablets_at_end``).

A p99 that is flat because nothing merged is the deferred stall Luo &
Carey (PAPERS.md: On Performance Stability in LSM-based Storage
Systems) say a scheduler must not be credited for; PR 10's SLO
controller passed the amplitude gate exactly that way (EXPERIMENTS
"PR 17": 1 merge and 166-212 tablets after 30 s against 34-42 merges
and 1-3 tablets here).

What the amplitude does not see: a window holds ~38 insert batches, so
its p99 is the second-largest sample and one stalled insert per window
is invisible.  The report therefore also carries the backpressure
stall count and the worst single insert, ungated: every run of 30 s or
more has a 1-2 s insert stall behind its largest merge (ROADMAP
item 3; EXPERIMENTS "PR 22").

``LT_SOAK_SECONDS`` is the length of the run (default 8 s keeps the
local suite quick; CI's soak job runs 30 s; at 60 s the stall above
sits on the edge of the amplitude gate and about one run in six fails
it - EXPERIMENTS "PR 20").
Results land in ``BENCH_soak_p99.json`` at the repo root
(git-ignored; CI uploads it), written before the gates assert so a
regression still leaves the series behind for charting.
"""

import json
import math
import os
import pathlib
import threading
import time

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    KeyRange,
    LittleTable,
    MaintenancePolicy,
    MaintenanceScheduler,
    Query,
    Schema,
)
from repro.core.periods import FOUR_HOURS
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY
SOAK_SECONDS = float(os.environ.get("LT_SOAK_SECONDS", "8"))
WINDOW_S = 0.5
BATCH = 200
DEVICES = 64
ROW_SPACING_MICROS = 1_000
MAX_AMPLITUDE = 3.0     # worst windowed p99 / median windowed p99
# Tablets flushed since the merger's last pass when the run is cut off
# mid-flight: a tick is 50 ms and a flush lands every ~250 ms.
IN_FLIGHT_TABLETS = 2


def usage_schema() -> Schema:
    return Schema(
        [
            Column("network", ColumnType.INT64),
            Column("device", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("bytes", ColumnType.INT64),
            Column("rate", ColumnType.DOUBLE),
        ],
        key=["network", "device", "ts"],
    )


def percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def windowed_p99(samples, window_s=WINDOW_S):
    """[(wall_s, latency_s)] -> per-window p99 series (seconds)."""
    if not samples:
        return []
    start = samples[0][0]
    windows = {}
    for at, latency in samples:
        windows.setdefault(int((at - start) / window_s), []).append(latency)
    return [percentile(windows[key], 0.99) for key in sorted(windows)]


def amplitude(series):
    """Worst window over the steady state (median window)."""
    # Drop the first and last windows: startup fill and the partial
    # tail window are not steady state.
    core = series[1:-1] if len(series) > 3 else series
    if not core:
        return 1.0
    steady = percentile(core, 0.5)
    return max(core) / steady if steady > 0 else 1.0


def max_tablets_at_end(flushes, rows):
    """The appendix's bound on tablets once merging has kept up.

    Adjacent-half merging leaves, within one period, tablets that each
    more than halve in size toward the newer end, so ``k`` survivors
    of ``n`` equal flushes need ``2**k - 1 <= n``: at most
    ``log2(n + 1)`` per period.  The periods are the four-hour bins
    the rows' timestamps span (one, for any run under ~10 minutes),
    and a run that short stays far below ``max_merged_tablet_bytes``,
    the other thing that would stop a merge.
    """
    periods = rows * ROW_SPACING_MICROS // FOUR_HOURS + 1
    return periods * int(math.log2(flushes + 1)) + IN_FLIGHT_TABLETS


def run_soak(seconds):
    """Ingest + dashboard threads for ``seconds``; latency samples."""
    clock = VirtualClock(start=BASE)
    config = EngineConfig(
        flush_size_bytes=96 * 1024,
        max_merged_tablet_bytes=8 * 1024 * 1024,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
    )
    policy = MaintenancePolicy(
        tick_interval_s=0.05, workers=1, merge_budget_per_tick=4)
    db = LittleTable(disk=SimulatedDisk(), config=config, clock=clock)
    db.create_table("usage", usage_schema())
    table = db.table("usage")
    scheduler = MaintenanceScheduler(db, policy)
    scheduler.start()
    stop = threading.Event()
    inserts = []   # (wall_s, latency_s)
    queries = []
    rows_done = [0]

    def ingest():
        sequence = 0
        while not stop.is_set():
            batch = [
                {"network": 1, "device": (sequence + i) % DEVICES,
                 "ts": BASE + (sequence + i) * ROW_SPACING_MICROS,
                 "bytes": i, "rate": 0.5}
                for i in range(BATCH)
            ]
            sequence += BATCH
            began = time.perf_counter()
            table.insert(batch)
            now = time.perf_counter()
            inserts.append((now, now - began))
            rows_done[0] += BATCH
            # Advance virtual time so memtables retire and tablets
            # become merge-eligible: sustained churn, not one burst.
            clock.advance_seconds(2)

    def dashboard():
        probe = 0
        while not stop.is_set():
            probe = (probe + 7) % DEVICES
            began = time.perf_counter()
            table.latest((1, probe))
            table.query(Query(
                KeyRange(min_prefix=(1, probe), max_prefix=(1, probe)),
                limit=256))
            now = time.perf_counter()
            queries.append((now, now - began))
            time.sleep(0.002)

    threads = [threading.Thread(target=ingest, daemon=True),
               threading.Thread(target=dashboard, daemon=True)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    elapsed = time.perf_counter() - began
    scheduler.stop()
    # Read before close(), which flushes the open memtable.
    counters = db.metrics.snapshot()["counters"]
    tablets_at_end = len(table.descriptor.tablets)
    worst_insert_s = max(latency for _at, latency in inserts)
    db.close()
    insert_series = windowed_p99(inserts)
    query_series = windowed_p99(queries)
    return {
        "seconds": round(elapsed, 2),
        "rows": rows_done[0],
        "rows_per_s": round(rows_done[0] / elapsed, 1),
        "flushes": int(counters.get("flush.count", 0)),
        "merges": int(counters.get("merge.count", 0)),
        "tablets_at_end": tablets_at_end,
        "backpressure_stalls": int(
            counters.get("insert.backpressure_stalls", 0)),
        "worst_insert_ms": round(worst_insert_s * 1e3, 1),
        "insert_p99_windows_us": [round(v * 1e6, 1)
                                  for v in insert_series],
        "query_p99_windows_us": [round(v * 1e6, 1)
                                 for v in query_series],
        "insert_amplitude": round(amplitude(insert_series), 3),
        "query_amplitude": round(amplitude(query_series), 3),
    }


def test_soak_p99_stays_flat_while_merging():
    run = run_soak(max(SOAK_SECONDS, 2.0))
    worst = max(run["insert_amplitude"], run["query_amplitude"])
    tablet_bound = max_tablets_at_end(run["flushes"], run["rows"])
    report = {
        "benchmark": "soak_stability",
        "unit": "p99_microseconds_per_window",
        "window_s": WINDOW_S,
        "soak_seconds": SOAK_SECONDS,
        "gate_amplitude": MAX_AMPLITUDE,
        "gate_tablets_at_end": tablet_bound,
        "worst_amplitude": worst,
        **run,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / \
        "BENCH_soak_p99.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"\nsoak: {run['rows_per_s']:,.0f} rows/s, "
          f"insert amp {run['insert_amplitude']:.2f}x, "
          f"query amp {run['query_amplitude']:.2f}x, "
          f"{run['flushes']} flushes, {run['merges']} merges, "
          f"{run['tablets_at_end']} tablets at end, "
          f"{run['backpressure_stalls']} insert stalls "
          f"(worst insert {run['worst_insert_ms']:,.0f} ms)  "
          f"[gates: amp <= {MAX_AMPLITUDE}x, "
          f"tablets <= {tablet_bound}]")

    assert worst <= MAX_AMPLITUDE, (
        f"p99 spike amplitude {worst:.2f}x exceeds the "
        f"{MAX_AMPLITUDE}x gate (see BENCH_soak_p99.json)")
    assert run["merges"] > 0 and run["tablets_at_end"] <= tablet_bound, (
        f"maintenance fell behind: {run['merges']} merges left "
        f"{run['tablets_at_end']} tablets after {run['flushes']} flushes "
        f"(appendix bound {tablet_bound}); a flat p99 without merging "
        f"is a deferred stall, not stability")
