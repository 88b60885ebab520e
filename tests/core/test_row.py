"""Tests for repro.core.row: key ranges, time ranges, queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.row import (
    ASCENDING,
    DESCENDING,
    KeyRange,
    Query,
    QueryStats,
    TimeRange,
)


class TestKeyRange:
    def test_all_contains_everything(self):
        kr = KeyRange.all()
        assert kr.contains((1, 2, 3))
        assert kr.contains(())

    def test_prefix_match(self):
        kr = KeyRange.prefix((1, 2))
        assert kr.contains((1, 2, 999))
        assert kr.contains((1, 2))
        assert not kr.contains((1, 3, 0))
        assert not kr.contains((0, 2, 0))

    def test_inclusive_bounds(self):
        kr = KeyRange(min_prefix=(5,), max_prefix=(7,))
        assert not kr.contains((4, 99))
        assert kr.contains((5, 0))
        assert kr.contains((7, 99))
        assert not kr.contains((8, 0))

    def test_exclusive_min(self):
        kr = KeyRange(min_prefix=(5,), min_inclusive=False)
        assert not kr.contains((5, 99))
        assert kr.contains((6, 0))

    def test_exclusive_max(self):
        kr = KeyRange(max_prefix=(7,), max_inclusive=False)
        assert kr.contains((6, 99))
        assert not kr.contains((7, 0))

    def test_full_key_exclusive_min_for_continuation(self):
        # The client adaptor resumes a query from the last returned key.
        last = (1, 2, 1000)
        kr = KeyRange(min_prefix=last, min_inclusive=False,
                      max_prefix=(1,), max_inclusive=True)
        assert not kr.contains((1, 2, 1000))
        assert kr.contains((1, 2, 1001))
        assert kr.contains((1, 3, 0))
        assert not kr.contains((2, 0, 0))

    def test_before_after_monotone(self):
        kr = KeyRange(min_prefix=(3,), max_prefix=(6,))
        keys = sorted([(i, j) for i in range(10) for j in range(3)])
        befores = [kr.before_range(k) for k in keys]
        afters = [kr.after_range(k) for k in keys]
        # before_range: non-increasing; after_range: non-decreasing.
        assert befores == sorted(befores, reverse=True)
        assert afters == sorted(afters)

    def test_span_of_sorted_keys(self):
        keys = sorted((i, j) for i in range(10) for j in range(3))
        assert KeyRange.all().span(keys) == (0, 30)
        assert KeyRange.all().span([]) == (0, 0)
        assert KeyRange.prefix((4,)).span(keys) == (12, 15)
        assert KeyRange.prefix((4, 1)).span(keys) == (13, 14)
        assert KeyRange.prefix((10,)).span(keys) == (30, 30)
        exclusive = KeyRange(min_prefix=(3,), min_inclusive=False,
                             max_prefix=(6,), max_inclusive=False)
        assert exclusive.span(keys) == (12, 18)
        # Within a window: never outside it, and empty when inverted.
        assert KeyRange.prefix((4,)).span(keys, 13, 20) == (13, 15)
        assert KeyRange.prefix((4,)).span(keys, 20) == (20, 20)
        assert KeyRange(min_prefix=(6,), max_prefix=(3,)).span(keys) == (
            18, 18)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.integers(0, 4)), max_size=40),
           st.data())
    def test_span_is_where_contains_holds(self, keys, data):
        """Every bound kind x every prefix length, bounds on, between
        and outside the keys held: the bisected span is exactly the
        stretch the per-key predicates select."""
        keys = sorted(set(keys))
        bound = st.one_of(st.none(), st.builds(
            lambda key, width: key[:width],
            st.tuples(*[st.integers(-1, 5)] * 3), st.integers(0, 3)))
        key_range = data.draw(st.builds(
            KeyRange, min_prefix=bound, min_inclusive=st.booleans(),
            max_prefix=bound, max_inclusive=st.booleans()))
        lo, hi = key_range.span(keys)
        inside = [key for key in keys if key_range.contains(key)]
        assert keys[lo:hi] == inside
        if inside:
            assert all(key_range.before_range(key) for key in keys[:lo])
            assert all(key_range.after_range(key) for key in keys[hi:])
        start = data.draw(st.integers(0, len(keys)))
        stop = data.draw(st.integers(start, len(keys)))
        lo, hi = key_range.span(keys, start, stop)
        assert start <= lo <= hi <= stop
        assert keys[lo:hi] == [key for key in keys[start:stop]
                               if key_range.contains(key)]


class TestTimeRange:
    def test_all(self):
        tr = TimeRange.all()
        assert tr.contains(0)
        assert tr.contains(10**18)

    def test_between_inclusive(self):
        tr = TimeRange.between(10, 20)
        assert not tr.contains(9)
        assert tr.contains(10)
        assert tr.contains(20)
        assert not tr.contains(21)

    def test_exclusive_bounds(self):
        tr = TimeRange(min_ts=10, min_inclusive=False,
                       max_ts=20, max_inclusive=False)
        assert not tr.contains(10)
        assert tr.contains(11)
        assert tr.contains(19)
        assert not tr.contains(20)

    def test_half_open(self):
        tr = TimeRange.between(None, 100)
        assert tr.contains(0)
        assert not tr.contains(101)
        tr = TimeRange.between(100, None)
        assert not tr.contains(99)
        assert tr.contains(10**15)

    def test_overlaps(self):
        tr = TimeRange.between(10, 20)
        assert tr.overlaps(0, 10)
        assert tr.overlaps(20, 30)
        assert tr.overlaps(12, 15)
        assert tr.overlaps(0, 100)
        assert not tr.overlaps(0, 9)
        assert not tr.overlaps(21, 30)

    def test_overlaps_ignores_exclusivity(self):
        # Over-selection is harmless; rows get filtered later.
        tr = TimeRange(min_ts=10, min_inclusive=False, max_ts=20,
                       max_inclusive=False)
        assert tr.overlaps(5, 10)
        assert tr.overlaps(20, 25)

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.integers(0, 1000), hi=st.integers(0, 1000),
        smin=st.integers(0, 1000), smax=st.integers(0, 1000),
    )
    def test_overlap_consistent_with_contains(self, lo, hi, smin, smax):
        if lo > hi or smin > smax:
            return
        tr = TimeRange.between(lo, hi)
        any_contained = any(
            tr.contains(ts) for ts in range(smin, min(smax, smin + 50) + 1)
        ) or (smax - smin > 50 and tr.contains(smax))
        if any_contained:
            assert tr.overlaps(smin, smax)


class TestQuery:
    def test_defaults(self):
        q = Query()
        assert q.direction == ASCENDING
        assert q.limit is None

    def test_bad_direction_rejected(self):
        with pytest.raises(QueryError):
            Query(direction="sideways")

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryError):
            Query(limit=-1)

    def test_descending_allowed(self):
        assert Query(direction=DESCENDING).direction == DESCENDING


class TestQueryStats:
    def test_scan_ratio(self):
        stats = QueryStats(rows_scanned=14, rows_returned=10)
        assert stats.scan_ratio == pytest.approx(1.4)

    def test_scan_ratio_no_rows(self):
        assert QueryStats().scan_ratio == 1.0
        assert QueryStats(rows_scanned=5).scan_ratio == 5.0
