"""Tests for the merge policy, including the appendix's O(log T) bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.merge import choose_merge, order_by_timespan
from repro.core.periods import period_for
from repro.core.tablet import TabletMeta
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_WEEK

# All tablets live in one ancient week; "now" is far in the future, so
# they share a WEEK period and rollover delays have long expired.
WEEK_START = 100 * MICROS_PER_WEEK
NOW = 5000 * MICROS_PER_WEEK


def lenient_config(**overrides):
    defaults = dict(
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
        max_merged_tablet_bytes=1 << 60,
        flush_size_bytes=1,
        block_size_bytes=1024,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_tablets(sizes, period_start=WEEK_START, spacing=1000):
    """One tablet per size, timespans adjacent within one period."""
    tablets = []
    for index, size in enumerate(sizes):
        min_ts = period_start + index * spacing
        tablets.append(TabletMeta(
            tablet_id=index + 1, filename=f"tab-{index + 1}",
            min_ts=min_ts, max_ts=min_ts + spacing - 1,
            row_count=max(1, size), size_bytes=size,
            schema_version=1, created_at=NOW - MICROS_PER_WEEK,
        ))
    return tablets


def run_merges_to_quiescence(tablets, config, now=NOW, table="t"):
    """Apply choose_merge until quiescent; track per-source rewrites.

    Returns (final_tablets, rewrites) where rewrites[original_id] is
    how many times that original tablet's rows were rewritten.
    """
    rewrites = {t.tablet_id: 0 for t in tablets}
    members = {t.tablet_id: [t.tablet_id] for t in tablets}
    next_id = max((t.tablet_id for t in tablets), default=0) + 1
    current = list(tablets)
    for _round in range(10_000):
        plan = choose_merge(current, now, table, config)
        if plan is None:
            return current, rewrites
        merged_ids = {t.tablet_id for t in plan.tablets}
        originals = []
        for tablet in plan.tablets:
            originals.extend(members.pop(tablet.tablet_id))
        for original in originals:
            rewrites[original] += 1
        new_meta = TabletMeta(
            tablet_id=next_id, filename=f"tab-{next_id}",
            min_ts=min(t.min_ts for t in plan.tablets),
            max_ts=max(t.max_ts for t in plan.tablets),
            row_count=plan.total_rows, size_bytes=plan.total_bytes,
            schema_version=1, created_at=now,
        )
        members[next_id] = originals
        next_id += 1
        current = [t for t in current if t.tablet_id not in merged_ids]
        current.append(new_meta)
    raise AssertionError("merging did not quiesce")


class TestOrdering:
    def test_order_by_timespan(self):
        tablets = make_tablets([10, 20, 30])
        shuffled = [tablets[2], tablets[0], tablets[1]]
        assert order_by_timespan(shuffled) == tablets


class TestChooseMerge:
    def test_no_merge_with_single_tablet(self):
        config = lenient_config()
        assert choose_merge(make_tablets([100]), NOW, "t", config) is None

    def test_merges_when_newer_at_least_half(self):
        config = lenient_config()
        plan = choose_merge(make_tablets([100, 50]), NOW, "t", config)
        assert plan is not None
        assert [t.tablet_id for t in plan.tablets] == [1, 2]

    def test_no_merge_when_newer_too_small(self):
        config = lenient_config()
        # 100 > 2 * 49: geometric sequence is stable.
        assert choose_merge(make_tablets([100, 49]), NOW, "t", config) is None

    def test_oldest_eligible_pair_wins(self):
        config = lenient_config()
        # First pair (400, 100) ineligible; (100, 60) eligible.
        plan = choose_merge(make_tablets([400, 100, 60]), NOW, "t", config)
        assert plan is not None
        assert [t.tablet_id for t in plan.tablets] == [2, 3]

    def test_includes_newer_adjacent_tablets(self):
        config = lenient_config()
        plan = choose_merge(make_tablets([100, 60, 10, 5]), NOW, "t", config)
        assert plan is not None
        assert [t.tablet_id for t in plan.tablets] == [1, 2, 3, 4]

    def test_respects_max_merged_size(self):
        config = lenient_config(max_merged_tablet_bytes=200)
        plan = choose_merge(make_tablets([100, 60, 50, 5]), NOW, "t", config)
        assert plan is not None
        # 100+60 = 160 fits; adding 50 would exceed 200.
        assert [t.tablet_id for t in plan.tablets] == [1, 2]

    def test_skips_pair_exceeding_max(self):
        config = lenient_config(max_merged_tablet_bytes=100)
        plan = choose_merge(make_tablets([90, 80, 30, 20]), NOW, "t", config)
        assert plan is not None
        assert [t.tablet_id for t in plan.tablets] == [3, 4]

    def test_never_merges_across_periods(self):
        config = lenient_config()
        in_week_one = make_tablets([100, 60], period_start=WEEK_START)
        in_week_two = make_tablets(
            [100, 60], period_start=WEEK_START + MICROS_PER_WEEK)
        for tablet in in_week_two:
            tablet.tablet_id += 10
            tablet.size_bytes = 60
        # Pair (week1[1], week2[0]) would be size-eligible but spans
        # a period boundary.
        tablets = [in_week_one[0], in_week_one[1], in_week_two[0]]
        plan = choose_merge(tablets, NOW, "t", config)
        assert plan is not None
        assert all(
            period_for(t.min_ts, NOW)
            == period_for(plan.tablets[0].min_ts, NOW)
            for t in plan.tablets
        )
        assert {t.tablet_id for t in plan.tablets} == {1, 2}

    def test_min_age_blocks_young_tablets(self):
        config = lenient_config(merge_min_age_micros=90_000_000)
        tablets = make_tablets([100, 60])
        for tablet in tablets:
            tablet.created_at = NOW - 1_000  # 1 ms old
        assert choose_merge(tablets, NOW, "t", config) is None

    def test_rollover_delay_blocks_then_allows(self):
        config = lenient_config(merge_rollover_delay_fraction=1.0)
        period_start = 4000 * MICROS_PER_WEEK
        tablets = make_tablets([100, 60], period_start=period_start)
        for tablet in tablets:
            # Created while the period was current (DAY level or finer).
            tablet.created_at = tablet.min_ts + 1000
        just_after = period_start + MICROS_PER_WEEK + 1
        assert choose_merge(tablets, just_after, "t", config) is None
        much_later = period_start + 3 * MICROS_PER_WEEK
        assert choose_merge(tablets, much_later, "t", config) is not None


class TestAppendixBounds:
    """The appendix proves tablet count and per-row rewrites are O(log T)."""

    def test_quiescent_state_is_geometric(self):
        config = lenient_config()
        final, _rewrites = run_merges_to_quiescence(
            make_tablets([16] * 64), config)
        ordered = order_by_timespan(final)
        for older, newer in zip(ordered, ordered[1:]):
            assert older.size_bytes > 2 * newer.size_bytes

    def test_tablet_count_logarithmic_uniform(self):
        config = lenient_config()
        sizes = [16] * 256
        final, _rewrites = run_merges_to_quiescence(
            make_tablets(sizes), config)
        total = sum(sizes)
        assert len(final) <= math.log2(total) + 1

    def test_rewrites_logarithmic_uniform(self):
        config = lenient_config()
        sizes = [16] * 256
        _final, rewrites = run_merges_to_quiescence(
            make_tablets(sizes), config)
        total = sum(sizes)
        bound = math.log2(total) + 1
        assert max(rewrites.values()) <= bound

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=1000),
                    min_size=2, max_size=60))
    def test_bounds_hold_for_arbitrary_sizes(self, sizes):
        config = lenient_config()
        final, rewrites = run_merges_to_quiescence(make_tablets(sizes), config)
        total = sum(sizes)
        log_bound = math.log2(total + 1) + 2
        assert len(final) <= log_bound
        # Each merge at least 1.5x's the containing tablet, so rewrite
        # counts are bounded by log_1.5(total) plus slack.
        assert max(rewrites.values()) <= math.log(total + 1, 1.5) + 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=1000),
                    min_size=2, max_size=60))
    def test_timespan_disjointness_preserved(self, sizes):
        """Merging only adjacent tablets keeps timespans disjoint."""
        config = lenient_config()
        final, _rewrites = run_merges_to_quiescence(
            make_tablets(sizes), config)
        ordered = order_by_timespan(final)
        for left, right in zip(ordered, ordered[1:]):
            assert left.max_ts < right.min_ts
