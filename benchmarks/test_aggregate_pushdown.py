"""Aggregate pushdown gate: the aggregate engine vs the row oracle.

Aggregation inside the scan exists to keep aggregate-heavy monitoring
queries (the Figure 9 mix: rollups, top-level sums, bounded scans)
from materializing a Python tuple per row.  The row-at-a-time
aggregator it is measured against was ``SqlSession``'s second engine
until PR 24 and lives on as the differential test's reference
(``tests/sqlapi/row_oracle.py``; run this from the repo root so that
``tests`` is importable).  CI enforces that the speedup stays real in
both regimes the engine runs in:

* **cold** - read cache disabled, every block decoded from disk per
  query, so the comparison is decode+aggregate work.  Floor 2x (the
  oracle pays the same decode, so decode bounds the ratio).
* **warm** - default cache, repeated queries over hot blocks, which is
  what a monitoring dashboard actually does.  Here the kernels run
  against cached columns and the floor is 3x (measured ~10-18x).

Both sessions must return identical rows before clocks are compared.
Results land in ``BENCH_aggregate_pushdown.json`` at the repo root
(machine-readable history; one file per benchmark, overwritten per
run).
"""

import json
import pathlib
import time

from repro.core import EngineConfig, LittleTable
from repro.sqlapi import SqlSession
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock
from tests.sqlapi.row_oracle import RowOracle

MIN_SPEEDUP_COLD = 2.0
MIN_SPEEDUP_WARM = 3.0
ROUNDS = 3                    # repeat the mix; best round wins (CI noise)
NETWORKS = 20
DEVICES = 25
SAMPLES = 80                  # rows per (network, device) series
BASE = 10_000 * MICROS_PER_DAY
MINUTE = MICROS_PER_MINUTE
SPAN = SAMPLES * MINUTE

CREATE = ("CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
          "bytes INT64, rate DOUBLE, PRIMARY KEY (network, device, ts))")

# The Figure 9-style aggregate mix: whole-table rollups, a time-bucket
# series, prefix-bounded sums, and a residual-filtered count.
QUERY_MIX = [
    "SELECT COUNT(*), SUM(bytes) FROM usage",
    "SELECT AVG(rate), MIN(bytes), MAX(bytes) FROM usage",
    "SELECT network, SUM(bytes) FROM usage GROUP BY network",
    f"SELECT TIME_BUCKET(ts, {10 * MINUTE}), COUNT(*), SUM(bytes) "
    f"FROM usage GROUP BY TIME_BUCKET(ts, {10 * MINUTE})",
    f"SELECT network, TIME_BUCKET(ts, {20 * MINUTE}), AVG(bytes) "
    f"FROM usage GROUP BY network, TIME_BUCKET(ts, {20 * MINUTE})",
    "SELECT device, COUNT(*), SUM(bytes) FROM usage "
    "WHERE network = 7 GROUP BY device",
    f"SELECT COUNT(*), SUM(bytes) FROM usage "
    f"WHERE ts >= {BASE + SPAN // 4} AND ts < {BASE + 3 * SPAN // 4}",
    "SELECT COUNT(*) FROM usage WHERE bytes > 300",
]


def build_db(read_cache=True):
    config = EngineConfig() if read_cache else \
        EngineConfig(read_cache_bytes=0)
    clock = VirtualClock(start=BASE + SPAN)
    db = LittleTable(clock=clock, config=config)
    SqlSession(db).execute(CREATE)
    rows = [
        {"network": n, "device": d, "ts": BASE + s * MINUTE,
         "bytes": (n * 31 + d * 7 + s) % 500, "rate": (s % 64) * 0.25}
        for n in range(NETWORKS)
        for d in range(DEVICES)
        for s in range(SAMPLES)
    ]
    # Several flushes so the scan crosses tablet boundaries like a
    # production table would.
    chunk = len(rows) // 4
    for i in range(0, len(rows), chunk):
        db.insert("usage", rows[i:i + chunk])
        db.table("usage").flush_all()
    return db, len(rows)


def run_mix(session):
    return [session.execute(query).rows for query in QUERY_MIX]


def best_of(fn, rounds=ROUNDS):
    result, best = None, None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def measure(read_cache):
    db, row_count = build_db(read_cache=read_cache)
    vec = SqlSession(db)
    row = RowOracle(db)
    # Warm up codegen, file handles, and (in the warm regime) the
    # block cache outside the timed region.
    run_mix(vec)
    run_mix(row)
    vec_rows, vec_s = best_of(lambda: run_mix(vec))
    oracle_rows, oracle_s = best_of(lambda: run_mix(row))
    assert vec_rows == oracle_rows    # same answers before clocks
    return row_count, oracle_s, vec_s


def test_vectorized_mix_beats_row_oracle():
    results = {}
    for regime, read_cache, floor in (
            ("cold", False, MIN_SPEEDUP_COLD),
            ("warm", True, MIN_SPEEDUP_WARM)):
        row_count, oracle_s, vec_s = measure(read_cache)
        speedup = oracle_s / vec_s
        print(f"\n{regime}: {row_count} rows x {len(QUERY_MIX)} queries: "
              f"row={oracle_s * 1e3:.1f}ms vectorized={vec_s * 1e3:.1f}ms "
              f"({speedup:.2f}x, floor {floor}x)")
        results[regime] = {
            "row_oracle_s": round(oracle_s, 6),
            "vectorized_s": round(vec_s, 6),
            "speedup": round(speedup, 3),
            "floor": floor,
        }

    entry = {
        "benchmark": "aggregate_pushdown",
        "unit": "seconds",
        "rows": NETWORKS * DEVICES * SAMPLES,
        "queries": len(QUERY_MIX),
        "rounds": ROUNDS,
        **results,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / \
        "BENCH_aggregate_pushdown.json"
    out.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")

    for regime, stats in results.items():
        assert stats["speedup"] >= stats["floor"], (
            f"vectorized aggregate mix ({regime}) only "
            f"{stats['speedup']:.2f}x the row oracle "
            f"(floor {stats['floor']}x)")
