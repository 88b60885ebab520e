"""Figure 10 - row TTL by table vs query lookback (§5.2.5).

"While over 90% of requests are for data from the most recent week,
Dashboard is able to retain data in most tables for a year or longer."
The gap between the two CDFs is the paper's argument for
two-dimensional clustering: recent data stays hot in cache while deep
history stays cheap to keep.
"""

import pytest

from benchmarks.fleet import FleetSynthesizer, MONTH_MICROS
from benchmarks.harness import cdf_at, print_figure
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_WEEK


def _census():
    synth = FleetSynthesizer(seed=2017)
    tables = synth.tables(count=2700)
    lookbacks = synth.query_lookbacks(count=20_000)
    return tables, lookbacks


def test_ttl_vs_lookback(benchmark):
    tables, lookbacks = benchmark.pedantic(_census, rounds=1, iterations=1)
    ttls = sorted(t.ttl_micros for t in tables)
    looks = sorted(lookbacks)
    marks = [
        ("1 day", MICROS_PER_DAY),
        ("3 days", 3 * MICROS_PER_DAY),
        ("1 week", MICROS_PER_WEEK),
        ("2 weeks", 2 * MICROS_PER_WEEK),
        ("1 month", MONTH_MICROS),
        ("3 months", 3 * MONTH_MICROS),
        ("6 months", 6 * MONTH_MICROS),
        ("13 months", 13 * MONTH_MICROS),
        ("26 months", 26 * MONTH_MICROS),
    ]
    print_figure(
        "Figure 10: CDFs of query lookback and row TTL",
        ["horizon", "queries within (CDF)", "tables expiring by (CDF)"],
        [[label, f"{cdf_at(looks, micros):.3f}",
          f"{cdf_at(ttls, micros):.3f}"] for label, micros in marks],
    )
    lookback_week = cdf_at(looks, MICROS_PER_WEEK)
    ttl_year = 1.0 - cdf_at(ttls, 12 * MONTH_MICROS)
    print(f"queries within a week: {100 * lookback_week:.0f}% "
          f"(paper >90%); tables retaining >= a year: "
          f"{100 * ttl_year:.0f}% (paper: most)")
    benchmark.extra_info.update({
        "lookback_within_week": round(lookback_week, 3),
        "ttl_at_least_year": round(ttl_year, 3),
    })
    # §5.2.5's anchors: the lookback CDF is far left of the TTL CDF.
    assert lookback_week >= 0.9
    assert ttl_year >= 0.5
    assert cdf_at(ttls, MICROS_PER_WEEK) <= 0.1
    # Clustering opportunity: at every horizon, at least as many
    # queries fit within it as tables expire by it.
    for _label, micros in marks:
        assert cdf_at(looks, micros) >= cdf_at(ttls, micros)
