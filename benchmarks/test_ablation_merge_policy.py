"""Ablation - the merge policy itself (DESIGN.md §5, paper §3.4.1).

Three policies over the same flush stream:

* ``adjacent-half`` - the paper's policy: log-bounded tablet count AND
  log-bounded write amplification;
* ``always-all`` - merge everything whenever possible: one tablet, but
  "it would end up rewriting all of the existing rows of a table every
  time it merged in a newly flushed on-disk tablet";
* ``never`` - no write amplification, but queries must visit every
  flushed tablet (the §3.4.1 seek storm: ~8 ms per tablet).
"""

import pytest

from benchmarks.harness import BENCH_EPOCH, bench_config, make_bench_db, \
    print_figure
from benchmarks.rows import BenchRowGenerator, bench_schema
from repro.core import Query
from repro.util.clock import MICROS_PER_SECOND

FLUSHES = 48
FLUSH_BYTES = 256 * 1024
ROW_SIZE = 512


def _run_policy(policy):
    config = bench_config(
        merge_policy=policy,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
        flush_size_bytes=1 << 30,
        max_merged_tablet_bytes=1 << 40,
    )
    db, clock = make_bench_db(config)
    table = db.create_table("bench", bench_schema())
    generator = BenchRowGenerator(ROW_SIZE, seed=11, ts=clock.now())
    rows_per_flush = FLUSH_BYTES // ROW_SIZE
    for flush in range(FLUSHES):
        clock.advance(MICROS_PER_SECOND)
        table.insert_tuples(generator.batch(rows_per_flush,
                                            ts=clock.now()))
        table.flush_all()
        while table.maybe_merge() is not None:
            pass
    flushed = table.counters.bytes_flushed
    merged = table.counters.bytes_merge_written
    amplification = (flushed + merged) / flushed
    # Cold first-row probe: how many seeks must a query pay?
    db.disk.drop_caches()
    before = db.disk.stats.snapshot()
    result = table.query(Query(limit=1))
    probe_seeks = db.disk.stats.delta_since(before).seeks
    return {
        "tablets": len(table.on_disk_tablets),
        "amplification": amplification,
        "probe_seeks": probe_seeks,
    }


def test_merge_policy_tradeoffs(benchmark):
    def run():
        return {policy: _run_policy(policy)
                for policy in ("adjacent-half", "always-all", "never")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        f"Ablation: merge policies after {FLUSHES} flushes",
        ["policy", "tablets", "write amplification", "cold probe seeks"],
        [[policy, r["tablets"], f"{r['amplification']:.2f}",
          r["probe_seeks"]] for policy, r in results.items()],
    )
    benchmark.extra_info.update({
        policy: {"tablets": r["tablets"],
                 "amplification": round(r["amplification"], 2)}
        for policy, r in results.items()
    })
    paper = results["adjacent-half"]
    greedy = results["always-all"]
    never = results["never"]
    # "never" leaves every flush as its own tablet; queries pay for it.
    assert never["tablets"] == FLUSHES
    assert never["amplification"] == 1.0
    assert never["probe_seeks"] > 3 * paper["probe_seeks"]
    # "always-all" keeps one tablet but rewrites rows linearly often.
    assert greedy["tablets"] == 1
    assert greedy["amplification"] > 3 * paper["amplification"]
    # The paper's policy: logarithmic tablet count at bounded cost.
    assert paper["tablets"] <= 10
    assert paper["amplification"] <= 6
