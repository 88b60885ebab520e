"""Appendix - the merge policy's logarithmic efficiency bounds.

The appendix proves that, merging the oldest adjacent pair where the
newer tablet is at least half the older's size, (a) the number of
tablets remaining at quiescence and (b) the number of times any one
row is rewritten are both O(log T) in the table size.  This benchmark
drives the policy over growing tablet populations and reports both
quantities against their bounds.
"""

import math

import pytest

from benchmarks.harness import print_figure
from repro.core.config import EngineConfig
from repro.core.merge import choose_merge, order_by_timespan
from repro.core.tablet import TabletMeta
from repro.util.clock import MICROS_PER_WEEK

WEEK_START = 100 * MICROS_PER_WEEK
NOW = 5000 * MICROS_PER_WEEK


def _config():
    return EngineConfig(merge_min_age_micros=0,
                        merge_rollover_delay_fraction=0.0,
                        max_merged_tablet_bytes=1 << 60,
                        flush_size_bytes=1)


def _tablets(count, size=16):
    return [
        TabletMeta(tablet_id=i + 1, filename=f"tab-{i + 1}",
                   min_ts=WEEK_START + i * 1000,
                   max_ts=WEEK_START + i * 1000 + 999,
                   row_count=size, size_bytes=size,
                   schema_version=1, created_at=NOW - MICROS_PER_WEEK)
        for i in range(count)
    ]


def _run_to_quiescence(tablets, config):
    rewrites = {t.tablet_id: 0 for t in tablets}
    members = {t.tablet_id: [t.tablet_id] for t in tablets}
    next_id = len(tablets) + 1
    current = list(tablets)
    merges = 0
    while True:
        plan = choose_merge(current, NOW, "bench", config)
        if plan is None:
            return current, rewrites, merges
        merges += 1
        originals = []
        for tablet in plan.tablets:
            originals.extend(members.pop(tablet.tablet_id))
        for original in originals:
            rewrites[original] += 1
        merged_ids = {t.tablet_id for t in plan.tablets}
        new_meta = TabletMeta(
            tablet_id=next_id, filename=f"tab-{next_id}",
            min_ts=min(t.min_ts for t in plan.tablets),
            max_ts=max(t.max_ts for t in plan.tablets),
            row_count=plan.total_rows, size_bytes=plan.total_bytes,
            schema_version=1, created_at=NOW)
        members[next_id] = originals
        next_id += 1
        current = [t for t in current if t.tablet_id not in merged_ids]
        current.append(new_meta)


def _run_incremental(count, config, size=16):
    """Flush tablets one at a time, merging to quiescence after each -
    the steady-state arrival pattern, where the appendix bounds bite.
    Returns (final_tablets, rewrites_per_original, merges)."""
    arrivals = _tablets(count, size=size)
    rewrites = {t.tablet_id: 0 for t in arrivals}
    members = {}
    next_id = count + 1
    current = []
    merges = 0
    for tablet in arrivals:
        members[tablet.tablet_id] = [tablet.tablet_id]
        current.append(tablet)
        while True:
            plan = choose_merge(current, NOW, "bench", config)
            if plan is None:
                break
            merges += 1
            originals = []
            for source in plan.tablets:
                originals.extend(members.pop(source.tablet_id))
            for original in originals:
                rewrites[original] += 1
            merged_ids = {t.tablet_id for t in plan.tablets}
            new_meta = TabletMeta(
                tablet_id=next_id, filename=f"tab-{next_id}",
                min_ts=min(t.min_ts for t in plan.tablets),
                max_ts=max(t.max_ts for t in plan.tablets),
                row_count=plan.total_rows, size_bytes=plan.total_bytes,
                schema_version=1, created_at=NOW)
            members[next_id] = originals
            next_id += 1
            current = [t for t in current
                       if t.tablet_id not in merged_ids]
            current.append(new_meta)
    return current, rewrites, merges


def test_logarithmic_bounds(benchmark):
    def sweep():
        config = _config()
        results = []
        for count in (64, 256, 1024, 4096):
            final, rewrites, merges = _run_incremental(count, config)
            total = count * 16
            results.append((count, total, len(final),
                            max(rewrites.values()), merges))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_figure(
        "Appendix: merge-policy efficiency (16-byte flushes)",
        ["tablets in", "total T", "tablets out", "log2(T)",
         "max rewrites/row", "merges"],
        [[count, total, final, f"{math.log2(total):.1f}", rewrote, merges]
         for count, total, final, rewrote, merges in results],
    )
    benchmark.extra_info["rows"] = results
    for count, total, final, rewrote, _merges in results:
        bound = math.log2(total) + 1
        assert final <= bound, f"tablet count {final} exceeds O(log T)"
        assert rewrote <= bound, f"rewrites {rewrote} exceed O(log T)"
    # The bound is logarithmic, not linear: growing the input 64x
    # (six doublings) adds at most a constant per doubling.
    firsts = results[0]
    lasts = results[-1]
    assert lasts[2] <= firsts[2] + 6
    assert lasts[3] <= firsts[3] + 10
