"""Unit tests for the merge cursor (repro.core.cursor).

Sources are lists of runs (``RowRun`` stretches that each ascend),
handed over in scan order (last run first when descending).  The
cursor hands back ``(pieces, order)`` stretches; ``stretch_rows``
builds them.  The differential test against the old row-at-a-time
cursor is ``test_cursor_property.py``.
"""

from itertools import chain

from repro.core.cursor import cut_stretches, execute_query, stretch_rows
from repro.core.row import DESCENDING, Query, QueryStats, RowRun, TimeRange
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
    return RowRun(rows_for(keys))


def stretches(sources, descending=False):
    return list(cut_stretches(
        sources, make_schema().key_indexes,
        Query(direction=DESCENDING if descending else "asc"), 0, None,
        QueryStats()))


def merged_rows(sources, descending=False):
    return [row for pieces in stretches(sources, descending)
            for row in stretch_rows(pieces, descending)]


class TestMergeSorted:
    def test_single_source_passthrough(self):
        run = run_of([(1, 10), (2, 20)])
        # ... untouched: the very run the source handed over, whole.
        assert stretches([[run]]) == [[(run, 0, 2)]]

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
        assert stretches([iter(()), iter(())]) == []
        assert stretches([]) == []

    def test_every_stretch_ascends_in_key_order(self):
        a = [run_of([(1, 10), (4, 10)]), run_of([(6, 10), (9, 10)])]
        b = [run_of([(2, 10), (3, 10), (7, 10)]), run_of([(8, 10)])]
        for descending in (False, True):
            sources = [a[::-1], b[::-1]] if descending else [a, b]
            built = [stretch_rows(pieces)
                     for pieces in stretches(sources, descending)]
            for rows in built:
                keys = [row[:2] for row in rows]
                assert keys == sorted(keys)
            firsts = [rows[0][:2] for rows in built]
            assert firsts == sorted(firsts, reverse=descending)
            assert sorted(row[:2] for row in chain.from_iterable(built)) \
                == [(k, 10) for k in (1, 2, 3, 4, 6, 7, 8, 9)]

    def test_disjoint_sources_are_never_sorted(self):
        """Time-partitioned tablets under one key prefix: each stretch
        comes out of one source, as the slice it was."""
        a = [run_of([(1, 10), (1, 20)])]
        b = [run_of([(1, 30), (1, 40)]), run_of([(1, 50)])]
        assert stretches([b, a]) == [
            [(a[0], 0, 2)], [(b[0], 0, 2)], [(b[1], 0, 1)]]

    def test_interleaved_pieces_are_cut_where_the_order_turns(self):
        """Two sources that interleave a key prefix at a time - its
        older rows, then its newer - merge as pieces in key order, each
        a slice of one run: no row or key tuple, no sort."""
        old = run_of([(k, ts) for k in (1, 2, 3) for ts in range(10)])
        new = run_of([(k, ts) for k in (1, 2, 3) for ts in range(10, 20)])
        assert stretches([[old], [new]]) == [[
            (old, 0, 10), (new, 0, 10), (old, 10, 20), (new, 10, 20),
            (old, 20, 30)], [(new, 20, 30)]]

    def test_sources_that_interleave_row_by_row_are_sorted(self):
        """Piece after piece of one row: the stretch becomes one run
        whose rows are its pieces' in the order one sort gives."""
        evens = run_of([(k, 10) for k in range(0, 40, 2)])
        odds = run_of([(k, 10) for k in range(1, 41, 2)])
        (sorted_run, lo, hi), = stretches([[evens], [odds]])[0]
        assert (lo, hi) == (0, 39)
        assert [row[0] for row in sorted_run.rows(0, 39)] == list(range(39))
        assert [r[0] for r in merged_rows([[evens], [odds]])] == list(
            range(40))

    def test_sources_are_not_read_until_asked(self):
        pulled = []

        def source(name, runs):
            for run in runs:
                pulled.append(name)
                yield run

        merged = execute_query([
            source("a", [run_of([(1, 10)]), run_of([(5, 10)])]),
            source("b", [run_of([(2, 10)]), run_of([(3, 10)])])],
            make_schema(), Query(), 0, None, QueryStats())
        assert pulled == []
        assert next(merged) == rows_for([(1, 10)])
        assert pulled == ["a", "b"]         # one run each, no more
        assert next(merged) == rows_for([(2, 10)])
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
        assert got == run.rows(0, 5)
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
