"""Figure 7 - distribution of PostgreSQL and LittleTable sizes (§5.2.1).

A production census: "Dashboard stores a total of 320 TB in
LittleTable, with the largest instance storing 6.7 TB.  In comparison,
Dashboard stores only 14 TB in PostgreSQL, with the largest shard
storing 341 GB" - about 20x more time-series data than configuration
data, "roughly corresponding to the ratio of disk to main memory on
our servers".  Reproduced over the synthetic fleet (DESIGN.md §2).
"""

import pytest

from benchmarks.fleet import FleetSynthesizer, GIB, TIB
from benchmarks.harness import cdf_at, print_figure
from repro.obs.metrics import percentile


def _census():
    return FleetSynthesizer(seed=2017).shards(count=220)


def test_database_size_distributions(benchmark):
    shards = benchmark.pedantic(_census, rounds=1, iterations=1)
    lt = sorted(s.littletable_bytes for s in shards)
    pg = sorted(s.postgres_bytes for s in shards)
    fractions = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    print_figure(
        "Figure 7: CDF of shard database sizes",
        ["fraction of shards", "LittleTable (TB)", "PostgreSQL (GB)"],
        [[f"{f:.2f}", f"{percentile(lt, f) / TIB:.2f}",
          f"{percentile(pg, f) / GIB:.1f}"] for f in fractions],
    )
    total_lt = sum(lt)
    total_pg = sum(pg)
    print(f"totals: LittleTable {total_lt / TIB:.0f} TB (paper 320), "
          f"PostgreSQL {total_pg / TIB:.1f} TB (paper 14), "
          f"ratio {total_lt / total_pg:.1f}x (paper ~20x)")
    benchmark.extra_info.update({
        "littletable_total_tb": round(total_lt / TIB, 1),
        "postgres_total_tb": round(total_pg / TIB, 2),
        "ratio": round(total_lt / total_pg, 1),
    })
    # §5.2.1's anchors.
    assert 250 * TIB <= total_lt <= 400 * TIB
    assert 10 * TIB <= total_pg <= 20 * TIB
    assert 15 <= total_lt / total_pg <= 25
    assert max(lt) <= 6.7 * TIB
    assert max(pg) <= 341 * GIB
    # The 20x separation holds across the distribution, not just in
    # the totals (the figure's two CDFs share one x-axis scaled 20x).
    assert percentile(lt, 0.5) > 10 * percentile(pg, 0.5)
