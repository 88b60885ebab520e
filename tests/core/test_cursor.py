"""Unit tests for the merge cursor (repro.core.cursor).

Sources are lists of runs: ``(rows, keys)`` stretches that each ascend,
handed over in scan order (last run first when descending).  The
differential test against the old row-at-a-time cursor is
``test_cursor_property.py``.
"""

from itertools import chain

from repro.core.cursor import execute_query, merge_runs
from repro.core.row import DESCENDING, Query, QueryStats, TimeRange
from repro.core.schema import Column, ColumnType, Schema


def make_schema():
    return Schema(
        [Column("k", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.INT64)],
        key=["k", "ts"],
    )


def rows_for(keys):
    return [(k, ts, k * 100) for k, ts in keys]


def run_of(keys):
    """One run out of ascending ``(k, ts)`` keys."""
    return rows_for(keys), list(keys)


def merged_rows(sources, descending=False):
    return [row for rows, _keys in merge_runs(sources, descending)
            for row in (reversed(rows) if descending else rows)]


class TestMergeSorted:
    def test_single_source_passthrough(self):
        run = run_of([(1, 10), (2, 20)])
        assert list(merge_runs([[run]])) == [run]
        # ... untouched: the very lists the source handed over.
        (rows, keys), = merge_runs([[run]])
        assert rows is run[0] and keys is run[1]

    def test_interleaved_sources(self):
        a = [run_of([(1, 10), (3, 10), (5, 10)])]
        b = [run_of([(2, 10), (4, 10), (6, 10)])]
        assert [r[0] for r in merged_rows([a, b])] == [1, 2, 3, 4, 5, 6]

    def test_descending_merge(self):
        a = [run_of([(5, 10)]), run_of([(1, 10), (3, 10)])]
        b = [run_of([(2, 10), (4, 10)])]
        merged = merged_rows([a, b], descending=True)
        assert [r[0] for r in merged] == [5, 4, 3, 2, 1]

    def test_empty_sources(self):
        assert list(merge_runs([iter(()), iter(())])) == []
        assert list(merge_runs([])) == []

    def test_every_run_ascends_and_the_keys_come_along(self):
        a = [run_of([(1, 10), (4, 10)]), run_of([(6, 10), (9, 10)])]
        b = [run_of([(2, 10), (3, 10), (7, 10)]), run_of([(8, 10)])]
        for descending in (False, True):
            sources = [a[::-1], b[::-1]] if descending else [a, b]
            runs = list(merge_runs(sources, descending))
            for rows, keys in runs:
                assert keys == sorted(keys)
                assert [(r[0], r[1]) for r in rows] == keys
            firsts = [keys[0] for _rows, keys in runs]
            assert firsts == sorted(firsts, reverse=descending)
            assert sorted(chain.from_iterable(k for _r, k in runs)) == [
                (k, 10) for k in (1, 2, 3, 4, 6, 7, 8, 9)]

    def test_disjoint_sources_are_never_sorted(self):
        """Time-partitioned tablets under one key prefix: each stretch
        comes out of one source, as the slice it was."""
        a = [run_of([(1, 10), (1, 20)])]
        b = [run_of([(1, 30), (1, 40)]), run_of([(1, 50)])]
        assert list(merge_runs([b, a])) == a + b

    def test_sources_are_not_read_until_asked(self):
        pulled = []

        def source(name, runs):
            for run in runs:
                pulled.append(name)
                yield run

        merged = merge_runs([
            source("a", [run_of([(1, 10)]), run_of([(5, 10)])]),
            source("b", [run_of([(2, 10)]), run_of([(3, 10)])])])
        assert pulled == []
        assert next(merged)[1] == [(1, 10)]
        assert pulled == ["a", "b"]         # one run each, no more
        assert next(merged)[1] == [(2, 10)]
        assert pulled == ["a", "b", "a"]


class TestExecuteQuery:
    def _run(self, sources, query, now=1_000_000, ttl=None):
        stats = QueryStats()
        rows = list(chain.from_iterable(execute_query(
            sources, make_schema(), query, now, ttl, stats)))
        return rows, stats

    def test_time_filter_counts_scanned(self):
        query = Query(time_range=TimeRange.between(15, 25))
        got, stats = self._run([[run_of([(1, 10), (1, 20), (1, 30)])]],
                               query)
        assert [r[1] for r in got] == [20]
        assert stats.rows_scanned == 3
        assert stats.rows_returned == 1

    def test_ttl_filters_expired(self):
        got, stats = self._run([[run_of([(1, 10), (1, 500)])]], Query(),
                               now=600, ttl=200)
        assert [r[1] for r in got] == [500]
        assert (stats.rows_scanned, stats.rows_returned) == (2, 1)

    def test_no_ttl_returns_all(self):
        got, _stats = self._run([[run_of([(1, 10), (1, 500)])]], Query(),
                                now=600, ttl=None)
        assert len(got) == 2

    def test_limit_stops_early(self):
        run = run_of([(k, 10) for k in range(100)])
        got, stats = self._run([[run]], Query(limit=5))
        assert got == run[0][:5]
        # Stopping early means not everything was scanned: the stretch
        # the limit falls in is counted up to the row that reached it.
        assert (stats.rows_scanned, stats.rows_returned) == (5, 5)

    def test_limit_counts_the_filtered_rows_it_walked_past(self):
        run = run_of([(k, k % 2) for k in range(100)])
        query = Query(time_range=TimeRange.between(1, 1), limit=3)
        got, stats = self._run([[run]], query)
        assert [r[0] for r in got] == [1, 3, 5]
        assert (stats.rows_scanned, stats.rows_returned) == (6, 3)

    def test_limit_zero_reads_nothing(self):
        def never():
            raise AssertionError("source read")
            yield

        got, stats = self._run([never()], Query(limit=0))
        assert got == [] and stats == QueryStats()

    def test_exclusive_time_bounds(self):
        query = Query(time_range=TimeRange(min_ts=10, min_inclusive=False,
                                           max_ts=30, max_inclusive=False))
        got, _stats = self._run([[run_of([(1, 10), (1, 20), (1, 30)])]],
                                query)
        assert [r[1] for r in got] == [20]

    def test_descending_direction(self):
        a = [run_of([(2, 10), (3, 10)])]
        b = [run_of([(4, 10)]), run_of([(1, 10)])]
        got, _stats = self._run([a, b], Query(direction=DESCENDING))
        assert [r[0] for r in got] == [4, 3, 2, 1]
