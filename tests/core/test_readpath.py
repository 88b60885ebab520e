"""The read path over a hand-built :class:`ReadPlan` - no ``Table``.

The read functions take everything they need from the plan (the
tablet list, the memtables, a way to open a reader, a corruption
hook), so the snapshot semantics are testable in isolation: what a
plan lists is what a read sees, whatever happens to the table after.
"""

from itertools import chain

import pytest

from repro.core.errors import CorruptTabletError
from repro.core.memtable import MemTable
from repro.core.periods import period_for
from repro.core.readpath import (ReadMetrics, ReadPlan, aggregate,
                                 latest_row, scan_stretches, tablets_holding,
                                 timespan_groups)
from repro.core.row import (DESCENDING, KeyRange, Query, QueryStats,
                            TimeRange)
from repro.core.schema import Column, ColumnType
from repro.core.tablet import TabletReader, TabletWriter
from repro.core.vector import AggregateSpec
from repro.disk import SimulatedDisk
from repro.obs.metrics import MetricsRegistry

from ..conftest import usage_schema

NOW = 10_000 * 86_400_000_000


def scan_rows(plan, query, now, stats):
    return chain.from_iterable(scan_stretches(plan, query, now, stats))


def usage_row(device, ts, value=0):
    return (1, device, ts, value, 0.0)


class World:
    """Two tablets with disjoint timespans plus one memtable."""

    def __init__(self):
        self.schema = usage_schema()
        self.disk = SimulatedDisk()
        self.metrics = MetricsRegistry()
        self.corrupt = []
        self.old_rows = [usage_row(d, NOW + d) for d in range(40)]
        self.new_rows = [usage_row(d, NOW + 1000 + d) for d in range(40)]
        self.mem_rows = [usage_row(d, NOW + 2000 + d) for d in (3, 5)]
        writer = TabletWriter(self.disk, self.schema, 256, "zlib", 10)
        self.old = writer.write("t/tab-1.lt", self.old_rows, 1, NOW)
        self.new = writer.write("t/tab-2.lt", self.new_rows, 2, NOW)
        self.memtable = MemTable(
            1, self.schema, period_for(NOW + 2000, NOW + 2000, True))
        for row in self.mem_rows:
            self.memtable.insert(row, NOW + 2000)
        self.readers = {
            meta.tablet_id: TabletReader(self.disk, meta.filename)
            for meta in (self.old, self.new)}

    def plan(self, tablets=None, memtables=None):
        return ReadPlan(
            self.schema, None, 1,
            [self.old, self.new] if tablets is None else tablets,
            [self.memtable] if memtables is None else memtables,
            lambda meta: self.readers[meta.tablet_id],
            on_corrupt=lambda meta, exc: self.corrupt.append(meta),
            metrics=ReadMetrics(self.metrics))

    def everything(self):
        return sorted(self.old_rows + self.new_rows + self.mem_rows,
                      key=self.schema.key_of)


@pytest.fixture
def world():
    return World()


class TestScan:
    def test_merges_every_source_in_key_order(self, world):
        stats = QueryStats()
        rows = list(scan_rows(world.plan(), Query(), NOW, stats))
        assert rows == world.everything()
        assert stats.tablets_opened == 2
        assert stats.rows_returned == len(rows)

    def test_prunes_by_time_and_counts_it(self, world):
        stats = QueryStats()
        query = Query(time_range=TimeRange.between(NOW + 1000, NOW + 1999))
        rows = list(scan_rows(world.plan(), query, NOW, stats))
        assert rows == world.new_rows
        assert (stats.tablets_opened, stats.tablets_pruned) == (1, 1)
        assert world.metrics.counter("query.tablets_pruned").value == 1

    def test_a_plan_sees_exactly_what_it_lists(self, world):
        """The snapshot is the argument: a plan without the newer
        tablet and the memtable answers as of before they existed."""
        stats = QueryStats()
        plan = world.plan(tablets=[world.old], memtables=[])
        assert list(scan_rows(plan, Query(), NOW, stats)) == world.old_rows

    def test_descending_with_limit(self, world):
        query = Query(KeyRange.prefix((1, 3)), TimeRange.all(), DESCENDING,
                      limit=2)
        rows = list(scan_rows(world.plan(), query, NOW, QueryStats()))
        assert rows == [usage_row(3, NOW + 2003), usage_row(3, NOW + 1003)]

    def test_ttl_comes_from_the_plan(self, world):
        plan = ReadPlan(world.schema, 500, 1, [world.old, world.new], [],
                        lambda meta: world.readers[meta.tablet_id])
        rows = list(scan_rows(plan, Query(), NOW + 1400, QueryStats()))
        assert rows == [r for r in world.new_rows if r[2] >= NOW + 900]


class TestLatest:
    def test_stops_at_the_newest_group(self, world):
        stats = QueryStats()
        best = latest_row(world.plan(), (1, 3), None, NOW, stats)
        assert best == usage_row(3, NOW + 2003)
        assert stats.rows_scanned == 1      # memtable group answered

    def test_walks_back_to_older_groups(self, world):
        assert latest_row(world.plan(), (1, 7), None, NOW,
                          QueryStats()) == usage_row(7, NOW + 1007)
        assert latest_row(world.plan(), (1, 99), None, NOW,
                          QueryStats()) is None

    def test_cutoff_bounds_the_search(self, world):
        assert latest_row(world.plan(), (1, 7), NOW + 1500, NOW,
                          QueryStats()) is None

    def test_groups_are_newest_first_and_time_disjoint(self, world):
        groups = timespan_groups([world.old, world.new], [world.memtable])
        assert [[source for source, _lo, _hi in group]
                for group in groups] == [[world.memtable], [world.new],
                                         [world.old]]


class TestAggregate:
    def spec(self, key_range=None):
        return AggregateSpec(key_range or KeyRange.all(), TimeRange.all(),
                             (), None, (("COUNT", None),), ())

    def test_counts_columnar_and_fallback_sources(self, world):
        stats = QueryStats()
        partials = aggregate(world.plan(), self.spec(), NOW, stats)
        (slots,) = partials.groups.values()
        assert slots[0][0] == len(world.everything())
        assert (stats.rows_scanned, stats.rows_returned) == (82, 82)
        counters = world.metrics.snapshot()["counters"]
        assert counters["query.pushdown.rows_columnar"] == 80
        # Rows that arrived as runs and were transposed: the memtable's.
        assert counters["query.pushdown.rows_fallback"] == 2

    def test_runs_go_through_the_same_filters_and_accounting(self, world):
        """A source that exists only as rows (here the memtable, and
        the tablets read under a newer schema) is key-trimmed by its
        scan, then time- and residual-filtered by the kernels, with a
        scan's accounting: scanned = inside the key bounds, returned =
        inside the time bounds too."""
        newer = world.schema.with_appended_column(
            Column("hops", ColumnType.INT64, 7))
        plan = ReadPlan(newer, None, 1, [world.old, world.new],
                        [world.memtable],
                        lambda meta: world.readers[meta.tablet_id],
                        metrics=ReadMetrics(world.metrics))
        hops = newer.column_index("hops")
        device = newer.column_index("device")
        spec = AggregateSpec(
            KeyRange(min_prefix=(1, 3), max_prefix=(1, 9)),
            TimeRange.between(NOW + 5, NOW + 2003), (), None,
            (("COUNT", None), ("SUM", hops), ("MAX", device)),
            ((device, "!=", 7),))
        stats = QueryStats()
        (slots,) = aggregate(plan, spec, NOW, stats).groups.values()
        # Devices 3..9 of each tablet and device 3, 5 of the memtable
        # are in the key box; ts bounds drop old devices 3, 4 and the
        # memtable's device 5; the residual drops device 7 twice.
        assert (stats.rows_scanned, stats.rows_returned) == (16, 13)
        assert [slot[0] for slot in slots] == [11, 11, 11]
        assert slots[1][1] == 11 * 7 and slots[2][3] == 9
        counters = world.metrics.snapshot()["counters"]
        assert counters["query.pushdown.rows_fallback"] == 16
        assert counters["query.pushdown.rows_kernel_filtered"] == 5
        assert counters.get("query.pushdown.rows_columnar", 0) == 0


class TestIsolation:
    def corrupt_new_tablet(self, world):
        data = bytearray(world.disk.storage.read_all(world.new.filename))
        for index in range(4, 12):
            data[index] ^= 0xFF
        world.disk.storage.delete(world.new.filename)
        world.disk.storage.write_file(world.new.filename, bytes(data))

    def test_every_consumer_reports_the_bad_tablet(self, world):
        self.corrupt_new_tablet(world)
        reads = [
            lambda: list(scan_rows(world.plan(), Query(), NOW, QueryStats())),
            lambda: latest_row(world.plan(memtables=[]), (1, 7), None, NOW,
                               QueryStats()),
            lambda: aggregate(world.plan(), TestAggregate().spec(), NOW,
                              QueryStats()),
            lambda: tablets_holding(world.plan(), KeyRange.prefix((1, 7)),
                                    None),
        ]
        for read in reads:
            with pytest.raises(CorruptTabletError):
                read()
        assert world.corrupt == [world.new] * len(reads)

    def test_the_hook_is_optional(self, world):
        self.corrupt_new_tablet(world)
        plan = ReadPlan(world.schema, None, 1, [world.new], [],
                        lambda meta: world.readers[meta.tablet_id])
        with pytest.raises(CorruptTabletError):
            list(scan_rows(plan, Query(), NOW, QueryStats()))
