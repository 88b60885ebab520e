"""The stretch cursor against the row-at-a-time cursor it replaced.

Until PR 23 every row of a scan climbed ``TabletReader._scan_asc`` (two
``KeyRange`` predicate calls) -> ``heapq.merge(key=schema.key_of)`` ->
``execute_query`` (a ``TimeRange.contains`` and two counter bumps).
That cursor is kept here, as it was, as the reference - it carries the
``limit=0`` fix (it used to yield one row) and nothing else - and the
stretch cursor (:mod:`repro.core.cursor`, fed runs by
``ReadPlan.tablet_runs`` / ``memtable_runs``) must return the same rows
*and* count the same ``QueryStats``, for a query read to its end or to
its limit, over any mix of sources.  ``benchmarks/test_scan_cursor.py``
times the two against each other.
"""

import bisect
import heapq
from functools import partial
from itertools import chain
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import memtable as memtable_module
from repro.core.cursor import execute_query
from repro.core.memtable import MemTable
from repro.core.periods import Period, PeriodLevel
from repro.core.readpath import ReadPlan
from repro.core.row import (ASCENDING, DESCENDING, KeyRange, Query,
                            QueryStats, TimeRange)
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader, TabletWriter
from repro.disk import SimulatedDisk


# ------------------------------------------- the row-at-a-time reference

def reference_scan(last_keys, block, key_range, descending=False):
    """``TabletReader.scan`` as it was: ``first_block_for`` /
    ``last_block_for`` find the starting block, then every row's key is
    put to the range predicates.  ``block(index)`` is ``(rows, keys)``,
    ``last_keys`` each block's last key."""
    if not last_keys:
        return
    if descending:
        start = len(last_keys) - 1
        if key_range.max_prefix is not None:
            low, high = 0, len(last_keys)
            while low < high:
                mid = (low + high) // 2
                if key_range.after_range(last_keys[mid]):
                    high = mid
                else:
                    low = mid + 1
            start = min(low, start)
        for index in range(start, -1, -1):
            rows, keys = block(index)
            for row_index in range(len(rows) - 1, -1, -1):
                key = keys[row_index]
                if key_range.after_range(key):
                    continue
                if key_range.before_range(key):
                    return
                yield rows[row_index]
        return
    seek = key_range.min_prefix
    start = 0 if seek is None else bisect.bisect_left(last_keys, seek)
    for index in range(start, len(last_keys)):
        rows, keys = block(index)
        position = 0
        if index == start and seek is not None:
            position = bisect.bisect_left(keys, seek)
        for row_index in range(position, len(rows)):
            key = keys[row_index]
            if key_range.before_range(key):
                continue
            if key_range.after_range(key):
                return
            yield rows[row_index]


def reference_merge_sorted(sources, key_of, descending=False):
    if len(sources) == 1:
        return iter(sources[0])
    return heapq.merge(*sources, key=key_of, reverse=descending)


def reference_execute_query(sources, schema, query, now, ttl_micros, stats):
    descending = query.direction == "desc"
    merged = reference_merge_sorted(sources, schema.key_of, descending)
    time_range = query.time_range
    expiry_cutoff = None if ttl_micros is None else now - ttl_micros
    limit = query.limit
    if limit == 0:          # the fix: it used to test only after a yield
        return
    returned = 0
    for row in merged:
        stats.rows_scanned += 1
        ts = schema.ts_of(row)
        if not time_range.contains(ts):
            continue
        if expiry_cutoff is not None and ts < expiry_cutoff:
            continue
        stats.rows_returned += 1
        yield row
        returned += 1
        if limit is not None and returned >= limit:
            return


# ----------------------------------------------------------- the sources

KEY_WIDTH = 3
OLD_SCHEMA = Schema(
    [Column("a", ColumnType.INT64), Column("b", ColumnType.INT64),
     Column("ts", ColumnType.TIMESTAMP), Column("v", ColumnType.INT64)],
    key=["a", "b", "ts"])
SCHEMA = OLD_SCHEMA.with_appended_column(
    Column("note", ColumnType.STRING, default="-"))
PERIOD = Period(0, 14_400_000_000, PeriodLevel.FOUR_HOUR)

TABLET, OLD_TABLET, MEMTABLE, MEMTABLE_WITH_TAIL = range(4)


class Sources:
    """A hand-built :class:`ReadPlan` over ``parts``: per source, its
    kind and its rows (ascending, at ``SCHEMA``)."""

    def __init__(self, parts, block_size=24):
        self.disk = SimulatedDisk()
        self.parts = parts
        self.readers = {}
        self.handles = []           # a TabletMeta or a MemTable each
        for number, (kind, rows) in enumerate(parts, start=1):
            if kind in (TABLET, OLD_TABLET):
                schema = SCHEMA if kind == TABLET else OLD_SCHEMA
                written = (rows if kind == TABLET
                           else [row[:-1] for row in rows])
                meta = TabletWriter(self.disk, schema, block_size,
                                    "zlib").write(
                    f"t/tab-{number}.lt", written, number, created_at=0)
                self.readers[number] = TabletReader(self.disk,
                                                    meta.filename)
                self.handles.append(meta)
                continue
            table = MemTable(number, SCHEMA, PERIOD)
            # Arrival order is not key order; the last third stays in
            # the tail when the kind says so.
            arriving = rows[1::2] + rows[0::2]
            sealed = len(arriving) - (len(arriving) // 3
                                      if kind == MEMTABLE_WITH_TAIL else 0)
            for row in arriving[:sealed]:
                table.insert(row, now=0)
            table.seal()
            for row in arriving[sealed:]:
                table.insert(row, now=0)
            self.handles.append(table)
        self.plan = ReadPlan(SCHEMA, None, 1, [], [],
                             lambda meta: self.readers[meta.tablet_id])

    def runs(self, key_range, descending):
        """What ``readpath.scan_stretches`` hands the cursor."""
        plan = self.plan
        return [plan.memtable_runs(handle, key_range, descending)
                if isinstance(handle, MemTable)
                else plan.tablet_runs(handle, key_range, descending)
                for handle in self.handles]

    def row_cursors(self, key_range, descending, block_rows=5):
        """The reference's cursors, over the same rows cut into blocks
        of its own."""
        cursors = []
        for _kind, rows in self.parts:
            blocks = [(rows[at:at + block_rows],
                       [row[:KEY_WIDTH] for row in rows[at:at + block_rows]])
                      for at in range(0, len(rows), block_rows)]
            cursors.append(reference_scan(
                [keys[-1] for _rows, keys in blocks], blocks.__getitem__,
                key_range, descending))
        return cursors

    def blocks(self):
        return [reader.block_count for reader in self.readers.values()]


def both_ways(sources, query, now, ttl_micros):
    descending = query.direction == DESCENDING
    stats, reference_stats = QueryStats(), QueryStats()
    rows = list(chain.from_iterable(execute_query(
        sources.runs(query.key_range, descending), SCHEMA, query, now,
        ttl_micros, stats)))
    reference = list(reference_execute_query(
        sources.row_cursors(query.key_range, descending), SCHEMA, query,
        now, ttl_micros, reference_stats))
    return rows, stats, reference, reference_stats


# ------------------------------------------------------- the differential
#
# Small domains, so prefixes tie, sources interleave and bounds land on,
# between and outside the keys held.

part = st.integers(0, 3)
keys = st.tuples(part, part, st.integers(0, 11))


@st.composite
def source_sets(draw):
    held = sorted(draw(st.sets(keys, min_size=1, max_size=90)))
    count = draw(st.integers(1, 5))
    kinds = [draw(st.sampled_from(
        [TABLET, TABLET, MEMTABLE, MEMTABLE_WITH_TAIL]))
        for _ in range(count)]
    if draw(st.booleans()):
        kinds[0] = OLD_TABLET           # at most one old-schema source
    owner = draw(st.lists(st.integers(0, count - 1), min_size=len(held),
                          max_size=len(held)))
    parts = []
    for index, kind in enumerate(kinds):
        note = "-" if kind == OLD_TABLET else f"s{index}"
        rows = [(*key, 7 * key[2] + index, note)
                for key, which in zip(held, owner) if which == index]
        if rows:
            parts.append((kind, rows))
    return parts


bound = st.one_of(st.none(), st.builds(
    lambda key, width: key[:width],
    st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 12)),
    st.integers(0, KEY_WIDTH)))
key_ranges = st.one_of(
    st.builds(KeyRange, min_prefix=bound, min_inclusive=st.booleans(),
              max_prefix=bound, max_inclusive=st.booleans()),
    st.builds(KeyRange.prefix, st.builds(
        lambda key, width: key[:width], keys, st.integers(0, KEY_WIDTH))))
stamp = st.one_of(st.none(), st.integers(-1, 12))
time_ranges = st.builds(TimeRange, min_ts=stamp, min_inclusive=st.booleans(),
                        max_ts=stamp, max_inclusive=st.booleans())
#: None, 0, 1, somewhere inside, and more than any source set holds.
limits = st.sampled_from([None, None, 0, 1, 2, 5, 17, 40, 1_000])
ttls = st.one_of(st.none(), st.integers(0, 14))
queries = st.tuples(key_ranges, time_ranges,
                    st.sampled_from([ASCENDING, DESCENDING]), limits, ttls)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source_sets(), st.lists(queries, min_size=1, max_size=8),
       st.sampled_from([1, 3, 64]))
def test_same_rows_and_same_stats_as_the_row_cursor(parts, asked, step):
    # ``step`` 1 and 3: a small memtable hands over many chunks, as a
    # large one does at the real first step of 64 keys a run.
    with mock.patch.object(memtable_module, "_chunks",
                           partial(memtable_module._chunks, step=step)):
        sources = Sources(parts)
        for key_range, time_range, direction, limit, ttl in asked:
            query = Query(key_range, time_range, direction, limit)
            rows, stats, reference, reference_stats = both_ways(
                sources, query, now=12, ttl_micros=ttl)
            assert rows == reference
            assert stats == reference_stats


def test_the_shapes_the_generator_is_meant_to_reach():
    """One of each by hand: multi-block tablets, a memtable with an
    unsealed tail, an old-schema tablet, a limit inside a filtered
    stretch - so a change to the strategies cannot quietly stop
    covering them."""
    rows = [(a, b, ts, ts, "x") for a in range(3) for b in range(3)
            for ts in range(10)]
    parts = [(OLD_TABLET, [(*row[:4], "-") for row in rows[0::4]]),
             (TABLET, rows[1::4]), (MEMTABLE_WITH_TAIL, rows[2::4]),
             (MEMTABLE, rows[3::4])]
    sources = Sources(parts)
    assert min(sources.blocks()) > 2
    assert sources.handles[2].capture()[1]          # the tail
    expected = sorted(chain.from_iterable(rows for _k, rows in parts))
    query = Query()
    got, stats, reference, reference_stats = both_ways(sources, query, 0,
                                                       None)
    assert got == reference == expected
    assert stats == reference_stats == QueryStats(90, 90)
    query = Query(KeyRange.prefix((1,)), TimeRange(min_ts=3, max_ts=6,
                                                   max_inclusive=False),
                  DESCENDING, limit=4)
    got, stats, reference, reference_stats = both_ways(sources, query, 0,
                                                       None)
    assert got == reference == [
        row for row in reversed(expected)
        if row[0] == 1 and 3 <= row[2] < 6][:4]
    assert stats == reference_stats
    assert stats.rows_returned == 4 < stats.rows_scanned < 30
