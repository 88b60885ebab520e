"""Scan cursor gate: stretches vs the row-at-a-time cursor.

The read cursor moves *runs* - the in-range slice of a cached block, a
memtable chunk - and merges, filters and counts a stretch at a time
(``repro.core.cursor``).  The cursor it replaced put every row through
two range predicates, a ``heapq.merge`` key call, a ``TimeRange.contains``
and two counter bumps; it lives on as the reference of
``tests/core/test_cursor_property.py``, which proves the two return the
same rows and the same ``QueryStats``.  This gate keeps the point of
the change measurable: on a fixed four-tablet + one-memtable fixture
whose keys interleave (every tablet holds every device, as
time-partitioned tablets do), with the block cache warm, the stretch
cursor must return rows at least 3x as fast as the reference.  A ratio
on one machine in one process - wall-clock, not modeled time, like
``test_codec_throughput.py``.
"""

import time
from itertools import chain

from repro.core.cursor import execute_query
from repro.core.descriptor import TableDescriptor
from repro.core.memtable import MemTable
from repro.core.periods import Period, PeriodLevel
from repro.core.readcache import ReadCache
from repro.core.readpath import ReadPlan
from repro.core.row import DESCENDING, KeyRange, Query, QueryStats, TimeRange
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletReader, TabletWriter
from repro.disk import SimulatedDisk
from tests.core.test_cursor_property import (reference_execute_query,
                                             reference_scan)

NETWORKS, DEVICES, SAMPLES = 8, 16, 60      # per tablet: 7,680 rows
TABLETS = 4
MINUTE = 60_000_000
BASE = 1_700_000_000_000_000
FLOOR = 3.0
ROUNDS = 5

SCHEMA = Schema(
    [Column("network", ColumnType.INT64), Column("device", ColumnType.INT64),
     Column("ts", ColumnType.TIMESTAMP), Column("bytes", ColumnType.INT64),
     Column("rate", ColumnType.DOUBLE)],
    key=["network", "device", "ts"])


def slice_rows(part):
    """Every device's samples for one time slice, in key order."""
    start = BASE + part * SAMPLES * MINUTE
    return [(network, device, start + sample * MINUTE,
             network * 1_000 + sample, device * 0.5)
            for network in range(NETWORKS) for device in range(DEVICES)
            for sample in range(SAMPLES)]


class Fixture:
    def __init__(self):
        disk = SimulatedDisk()
        cache = ReadCache(64 << 20)
        writer = TabletWriter(disk, SCHEMA, 64 * 1024, "zlib", 10)
        self.metas = [
            writer.write(f"t/tab-{part}.lt", slice_rows(part), part,
                         created_at=0)
            for part in range(TABLETS)]
        self.readers = {meta.tablet_id: TabletReader(disk, meta.filename,
                                                     cache=cache)
                        for meta in self.metas}
        self.mem_rows = slice_rows(TABLETS)[::4]
        self.memtable = MemTable(
            99, SCHEMA, Period(0, 1 << 62, PeriodLevel.FOUR_HOUR))
        for row in self.mem_rows[1::2] + self.mem_rows[0::2]:
            self.memtable.insert(row, now=0)
        self.memtable.seal()
        self.mem_keys = [row[:3] for row in self.mem_rows]
        self.plan = ReadPlan(
            TableDescriptor("t", SCHEMA, tablets=self.metas, generation=1),
            [self.memtable], lambda meta: self.readers[meta.tablet_id])
        for reader in self.readers.values():      # warm the block cache
            assert sum(1 for _ in reader.scan(KeyRange.all())) == \
                NETWORKS * DEVICES * SAMPLES
            assert reader.block_count > 1
        # The reference reads warm (rows, keys) lists, as it did when
        # the cache held them: built here, once, outside any timing.
        key_of = SCHEMA.key_of
        self.blocks = {}
        for tablet_id, reader in self.readers.items():
            blocks = []
            for index in range(reader.block_count):
                rows = list(zip(*reader.scan_block_columns(index)))
                blocks.append((rows, [key_of(row) for row in rows]))
            self.blocks[tablet_id] = blocks

    def stretches(self, query, stats):
        descending = query.direction == DESCENDING
        plan = self.plan
        sources = [plan.tablet_runs(meta, query.key_range, descending)
                   for meta in self.metas]
        sources.append(plan.memtable_runs(self.memtable, query.key_range,
                                          descending))
        return chain.from_iterable(execute_query(
            sources, SCHEMA, query, 0, None, stats))

    def row_at_a_time(self, query, stats):
        """The old tower over the same warm blocks: a per-row tablet
        cursor each (the memtable as one sorted block), a heap, a
        per-row filter."""
        descending = query.direction == DESCENDING
        sources = [
            reference_scan(reader.last_keys,
                           self.blocks[tablet_id].__getitem__,
                           query.key_range, descending)
            for tablet_id, reader in self.readers.items()]
        sources.append(reference_scan(
            self.mem_keys[-1:], lambda _index: (self.mem_rows,
                                                self.mem_keys),
            query.key_range, descending))
        return reference_execute_query(sources, SCHEMA, query, 0, None,
                                       stats)


def mix():
    """A dashboard's page: one network's graph over a window that cuts
    every tablet (so the time filter does real work), one device's,
    a newest-first page, a whole-table export."""
    window = TimeRange(min_ts=BASE + 30 * MINUTE,
                       max_ts=BASE + (TABLETS * SAMPLES + 30) * MINUTE,
                       max_inclusive=False)
    queries = [Query(KeyRange.prefix((network,)), window)
               for network in range(NETWORKS)]
    queries += [Query(KeyRange.prefix((network, 5)), window)
                for network in range(NETWORKS)]
    queries += [Query(KeyRange.prefix((3,)), direction=DESCENDING, limit=500),
                Query()]
    return queries


def best_rate(run, queries):
    best = 0.0
    for _ in range(ROUNDS):
        rows = 0
        started = time.perf_counter()
        for query in queries:
            rows += sum(1 for _ in run(query, QueryStats()))
        best = max(best, rows / (time.perf_counter() - started))
    return best, rows


def test_stretch_cursor_beats_the_row_cursor():
    fixture = Fixture()
    queries = mix()
    for query in queries:       # same answer, same counts, before timing
        stats, reference_stats = QueryStats(), QueryStats()
        assert list(fixture.stretches(query, stats)) == list(
            fixture.row_at_a_time(query, reference_stats))
        assert stats == reference_stats and stats.rows_returned
    reference_rate, rows = best_rate(fixture.row_at_a_time, queries)
    stretch_rate, _rows = best_rate(fixture.stretches, queries)
    print(f"\nscan cursor, warm cache, {TABLETS} tablets + 1 memtable, "
          f"{rows:,} rows a round:")
    print(f"  row-at-a-time reference  {reference_rate:12,.0f} rows/s")
    print(f"  stretch cursor           {stretch_rate:12,.0f} rows/s"
          f"   ({stretch_rate / reference_rate:.1f}x)")
    assert stretch_rate >= FLOOR * reference_rate
