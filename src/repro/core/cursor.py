"""The read cursor: merging sources' sorted runs into one filtered result.

Paper §3.2: "Using these starting points, LittleTable opens a cursor on
each tablet, filters any rows that fall outside the query's timestamp
bounds (which generally do not align exactly with the tablets'
timespans), and merge-sorts the resulting streams to form a single
result stream ordered by primary key."

Same order, same first-row cost, but what moves is a *run*
(:data:`repro.core.row.Run`): a source hands over the in-range slice of
a block (or a memtable chunk) at a time, :func:`merge_runs` takes from
every source the rows not past the nearest of the current runs' far
ends - one stable sort of positions when more than one source had any,
nothing at all for a lone source - and :func:`execute_query` filters
and counts a stretch at a time.  :func:`take_stretch` is that round,
shared with the merge executor (``merge._merge_blockwise``), which runs
the same loop between block passthroughs.

Lazy: a source is not touched before the first ``next()``, which reads
one run (one block) from each; a later run is read only when the one
before it has been handed on.  Sources start with short runs and
lengthen them (``TabletReader.scan_runs``, ``memtable._chunks``), so a
reader that stops after one row pays for a short stretch, not for a
block of every source.

The scanned/returned accounting here is what Figure 9 reports: a row
taken from a source (inside the key bounds) counts as scanned; it
counts as returned only if it also passes the timestamp and TTL
filters.  Stretches are counted as they are handed out, and the one a
``limit`` falls in is counted up to the row that reached it, so a
query read to its end or to its limit counts what a row-at-a-time walk
would.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence

from .row import DESCENDING, Key, Query, QueryStats, Row, Run
from .schema import Schema
from .vector import resolve_time_bounds


class _Head:
    """One source's current run and the window of it not yet taken."""

    __slots__ = ("runs", "rows", "keys", "pos", "end")

    def __init__(self, runs: Iterable[Run]):
        self.runs = iter(runs)

    def advance(self) -> bool:
        """Step to the source's next run; False once it has none."""
        for rows, keys in self.runs:
            if keys:
                self.rows, self.keys = rows, keys
                self.pos, self.end = 0, len(keys)
                return True
        return False


def take_stretch(heads: Sequence[Any], descending: bool = False) -> Run:
    """Move one stretch out of ``heads``: from every head the rows not
    past the nearest of their runs' far ends, after which no head has
    a row left that sorts among them.

    A head holds a run in ``rows``/``keys`` and the non-empty window
    ``[pos, end)`` of it still to take, which is narrowed here (from
    the top when descending; the stretch ascends either way).  What
    several heads gave is put in order by one stable sort of
    *positions* - never of the rows, which may hold a NaN - that finds
    each head's presorted slice and gallops; equal keys keep head
    order.  What one head gave is already in order.
    """
    rows: List[Row] = []
    keys: List[Key] = []
    gave = 0
    if descending:
        edge = max(head.keys[head.pos] for head in heads)
        for head in heads:
            cut = bisect_left(head.keys, edge, head.pos, head.end)
            if cut < head.end:
                rows += head.rows[cut:head.end]
                keys += head.keys[cut:head.end]
                head.end = cut
                gave += 1
    else:
        edge = min(head.keys[head.end - 1] for head in heads)
        for head in heads:
            cut = bisect_right(head.keys, edge, head.pos, head.end)
            if cut > head.pos:
                rows += head.rows[head.pos:cut]
                keys += head.keys[head.pos:cut]
                head.pos = cut
                gave += 1
    if gave > 1:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rows = list(map(rows.__getitem__, order))
        keys = list(map(keys.__getitem__, order))
    return rows, keys


def merge_runs(sources: Iterable[Iterable[Run]], descending: bool = False
               ) -> Iterator[Run]:
    """The sources' runs merged into one sequence of runs in scan
    order (every run ascends; descending, the last comes first).

    Each source yields its own runs in that order.  Keys are unique
    across sources (primary-key uniqueness, §3.4.4), so no shadowing
    logic is needed.  Once one source is left its runs pass through
    untouched.
    """
    live = [head for head in map(_Head, sources) if head.advance()]
    while len(live) > 1:
        yield take_stretch(live, descending)
        live = [head for head in live
                if head.pos < head.end or head.advance()]
    for head in live:
        if head.end - head.pos < len(head.keys):
            yield (head.rows[head.pos:head.end], head.keys[head.pos:head.end])
        else:
            yield head.rows, head.keys
        yield from head.runs


def execute_query(sources: Iterable[Iterable[Run]],
                  schema: Schema,
                  query: Query,
                  now: int,
                  ttl_micros: Optional[int],
                  stats: QueryStats) -> Iterator[List[Row]]:
    """Filter the merged runs for ``query``; yields lists of rows in
    result order, each the caller's own.

    ``sources`` must already be restricted to the query's key bounds
    (each source seeks by key) and translated to the current schema;
    this function applies the timestamp bounds, TTL expiry (§3.3: "the
    server also filters expired rows from query results" - a raised
    low bound), the client limit, and counts scanned vs returned rows
    into ``stats``.
    """
    remaining = query.limit
    if remaining == 0:
        return
    descending = query.direction == DESCENDING
    lo, hi = resolve_time_bounds(
        query.time_range, None if ttl_micros is None else now - ttl_micros)
    bounded = lo is not None or hi is not None
    lo = -inf if lo is None else lo
    hi = inf if hi is None else hi
    ts_index = schema.ts_index
    ts_of = itemgetter(ts_index)
    for rows, _keys in merge_runs(sources, descending):
        if descending:
            rows = rows[::-1]
        kept = rows
        if bounded:
            # Usually the whole stretch is inside: two C passes say so.
            stamps = list(map(ts_of, rows))
            if min(stamps) < lo or max(stamps) > hi:
                kept = [row for row in rows if lo <= row[ts_index] <= hi]
        scanned = len(rows)
        if remaining is not None:
            if len(kept) >= remaining:
                # The limit falls in this stretch: count up to the row
                # that reaches it, as a row-at-a-time walk would.
                if len(kept) < scanned:
                    scanned = 1 + [
                        at for at, ts in enumerate(stamps)
                        if lo <= ts <= hi][remaining - 1]
                else:
                    scanned = remaining
                kept = kept[:remaining]
            remaining -= len(kept)
        stats.rows_scanned += scanned
        stats.rows_returned += len(kept)
        if kept:
            yield kept
        if remaining == 0:
            return
