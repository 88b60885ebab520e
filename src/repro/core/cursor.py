"""The read cursor: merging sources' sorted runs into one filtered result.

Paper §3.2: "Using these starting points, LittleTable opens a cursor on
each tablet, filters any rows that fall outside the query's timestamp
bounds (which generally do not align exactly with the tablets'
timespans), and merge-sorts the resulting streams to form a single
result stream ordered by primary key."

Same order, same first-row cost, but what moves is a *run*
(:data:`repro.core.row.Run`): a source hands over the key span of one
cached block, or one memtable chunk, at a time.  The cursor decides
which rows from key and timestamp columns alone, and hands a stretch
on as *pieces* ``(run, lo, hi)`` in key order; its consumer decides
what to build: :func:`stretch_rows` (a scan, ``latest``, the merge) or
:class:`Page` (a query page, encoded from columns without a row).
:func:`take_stretch` is one round, shared with the merge executor
(``merge._merge_blockwise``), which runs it between block
passthroughs; :func:`cut_stretches` is the one loop over it.

Lazy: a source is not touched before the first ``next()``, which reads
one run (one block) from each; a later run is read only when the one
before it has been handed on.

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
from functools import partial
from itertools import chain
from math import inf
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .row import DESCENDING, Key, Query, QueryStats, Row, Run, _cut_columns
from .schema import Schema
from .vector import resolve_time_bounds

#: ``(run, lo, hi)``: rows ``[lo, hi)`` of one run, ascending.
Piece = Tuple[Run, int, int]


class _Head:
    """One source's current run and the window of it not yet taken."""

    __slots__ = ("runs", "run", "pos", "end", "key_indexes", "_keys")

    def __init__(self, runs: Iterable[Run], key_indexes: Sequence[int]):
        self.runs = iter(runs)
        self.key_indexes = key_indexes

    def advance(self) -> bool:
        """Step to the source's next run; False once it has none."""
        for run in self.runs:
            if run.lo < run.hi:
                self.run, self.pos, self.end = run, run.lo, run.hi
                self._keys = None
                return True
        return False

    def keys(self) -> List[Sequence[Any]]:
        """The run's key columns, taken once and held while it is the
        head's (not by the run: a page holds its runs)."""
        if self._keys is None:
            self._keys = self.run.key_columns(self.key_indexes)
        return self._keys


def key_at(columns: Sequence[Sequence[Any]], at: int) -> Key:
    return tuple(map(itemgetter(at), columns))


#: After ``SHORT_GALLOP`` galloped pieces averaging under ``SHORT_PIECE``
#: rows, one sort of positions orders the round instead: a piece costs
#: the gallop a few microseconds in Python, about what sorting and
#: gathering eight rows in C does.
SHORT_GALLOP, SHORT_PIECE = 4, 8


class _Sorted:
    """Pieces of several runs that interleave a few rows at a time, as
    one run: ``order`` holds the positions of their concatenation in
    key order (``keys``, a key tuple a row)."""

    ts_bounds = None

    def __init__(self, pieces: List[Piece], keys: List[Key],
                 order: List[int]):
        self.pieces, self.keys, self.order = pieces, keys, order
        self.lo, self.hi = 0, len(order)

    def _gathered(self, lists: List[List[Any]], lo: int, hi: int):
        at = self.order[lo:hi]
        return [list(map(values.__getitem__, at)) for values in lists]

    def key_columns(self, key_indexes: Sequence[int]) -> List[List[Any]]:
        return self._gathered(list(map(list, zip(*self.keys))), 0, self.hi)

    def rows(self, lo: int, hi: int) -> List[Row]:
        return self._gathered([stretch_rows(self.pieces)], lo, hi)[0]

    def columns(self, lo: int, hi: int) -> List[List[Any]]:
        return self._gathered(_built(self.pieces, False, lambda run, a, b:
                                     run.columns(a, b)), lo, hi)


def take_stretch(heads: Sequence[Any], descending: bool = False,
                 cut=None) -> Tuple[List[Piece], List[Piece]]:
    """Move one stretch out of ``heads``: from every head the rows not
    past the nearest of their runs' far ends, after which no head has
    a row left that sorts among them.

    A head holds a run (its key columns from ``keys()``) and the window
    ``[pos, end)`` of it still to take, narrowed here (from the top when
    descending).  Returns ``(parts, kept)``: what each head gave, and
    the pieces of it that ``cut(keys, run, lo, hi)`` keeps, ascending in
    key order, equal keys in head order.  What several heads kept is
    merged as Timsort merges runs: by galloping while the sources give
    long pieces - the run whose next key is least gives every row up to
    another's next key, found by bisecting its key columns (time-split
    sources interleave a key prefix at a time) - and, once
    ``SHORT_GALLOP`` pieces average under ``SHORT_PIECE`` rows (sources
    that interleave a row or a few at a time), by one stable sort of
    positions: a :class:`_Sorted` run.
    """
    if len(heads) == 1:
        head, = heads
        part = (head.run, head.pos, head.end)
        head.pos = head.end
        return [part], [part] if cut is None else cut(head.keys, *part)
    edge = (max(key_at(head.keys(), head.pos) for head in heads)
            if descending else
            min(key_at(head.keys(), head.end - 1) for head in heads))
    parts: List[Piece] = []
    for head in heads:
        cut_at = _cut_columns(head.keys(), edge, head.pos, head.end,
                              past=not descending)
        if descending and cut_at < head.end:
            parts.append((head.run, cut_at, head.end))
            head.end = cut_at
        elif not descending and cut_at > head.pos:
            parts.append((head.run, head.pos, cut_at))
            head.pos = cut_at
    keys_of = {id(head.run): head.keys for head in heads}
    kept = parts if cut is None else [
        piece for run, lo, hi in parts
        for piece in cut(keys_of[id(run)], run, lo, hi)]
    by_run = {}
    for piece in kept:
        by_run.setdefault(id(piece[0]), []).append(piece)
    if len(by_run) < 2:
        return parts, kept
    # A lane: a run's key columns, its pieces, where the first is reached.
    lanes = [[keys_of[key](), pieces, pieces[0][1]]
             for key, pieces in by_run.items()]
    ordered: List[Piece] = []
    taken = 0
    while len(lanes) > 1:
        firsts = [key_at(keys, at) for keys, _pieces, at in lanes]
        least = min(range(len(firsts)), key=firsts.__getitem__)
        lane = lanes[least]
        keys, pieces, at = lane
        run, _lo, hi = pieces[0]
        stop = _cut_columns(keys, min(firsts[:least] + firsts[least + 1:]),
                            at, hi, past=True)
        ordered.append((run, at, stop))
        taken += stop - at
        if (len(ordered) >= SHORT_GALLOP
                and taken < SHORT_PIECE * len(ordered)):
            keys = [key for run, lo, hi in kept for key in zip(
                *[column[lo:hi] for column in keys_of[id(run)]()])]
            run = _Sorted(kept, keys,
                          sorted(range(len(keys)), key=keys.__getitem__))
            return parts, [(run, 0, run.hi)]
        if stop < hi:
            lane[2] = stop
        elif len(pieces) > 1:
            del pieces[0]
            lane[2] = pieces[0][1]
        else:
            del lanes[least]
    (_keys, pieces, at), = lanes
    return parts, ordered + [(pieces[0][0], at, pieces[0][2])] + pieces[1:]


def _time_cut(tlo: float, thi: float, keys, run: Run, lo: int, hi: int
              ) -> List[Piece]:
    """The pieces of rows ``[lo, hi)`` of ``run`` whose timestamps lie in
    ``[tlo, thi]``.  The source's timespan, then the stretch's least and
    greatest stamps, usually settle that all of it does; otherwise the
    stamps ascend within each group of equal key columns before ``ts``,
    and two bisects a group cut it."""
    bounds = run.ts_bounds
    if bounds is not None and tlo <= bounds[0] and bounds[1] <= thi:
        return [(run, lo, hi)]
    columns = keys()
    stamps = columns[-1]
    window = stamps[lo:hi]
    if tlo <= min(window) and max(window) <= thi:
        return [(run, lo, hi)]
    # Leading key columns the stretch holds one value of split no group.
    groups = columns[:-1]
    while groups and groups[0][lo] == groups[0][hi - 1]:
        groups = groups[1:]
    pieces: List[Piece] = []
    while lo < hi:
        end = hi
        for column in groups:
            end = bisect_right(column, column[lo], lo, end)
        first = bisect_left(stamps, tlo, lo, end)
        last = bisect_right(stamps, thi, first, end)
        if first < last:
            if pieces and pieces[-1][2] == first:
                first = pieces.pop()[1]
            pieces.append((run, first, last))
        lo = end
    return pieces


def _count(pieces: List[Piece]) -> int:
    return sum(map(itemgetter(2), pieces)) - sum(map(itemgetter(1), pieces))


def _first(pieces: List[Piece], limit: int, descending: bool
           ) -> List[Piece]:
    """The ascending pieces of the first ``limit`` rows in result order."""
    taken: List[Piece] = []
    for run, lo, hi in (reversed(pieces) if descending else pieces):
        if hi - lo >= limit:
            taken.append((run, hi - limit, hi) if descending
                         else (run, lo, lo + limit))
            break
        taken.append((run, lo, hi))
        limit -= hi - lo
    return taken[::-1] if descending else taken


def cut_stretches(sources: Iterable[Iterable[Run]],
                  key_indexes: Sequence[int], query: Query, now: int,
                  ttl_micros: Optional[int], stats: QueryStats
                  ) -> Iterator[List[Piece]]:
    """The rows of ``query``, a stretch of ascending pieces at a time
    (:func:`take_stretch`) in result order.

    ``sources`` must already be restricted to the query's key bounds
    (each source seeks by key) and translated to the current schema;
    this function applies the timestamp bounds, TTL expiry (§3.3: "the
    server also filters expired rows from query results" - a raised
    low bound), the client limit, and counts scanned vs returned rows
    into ``stats``.  Keys are unique across sources (primary-key
    uniqueness, §3.4.4), so no shadowing logic is needed.
    """
    remaining = query.limit
    if remaining == 0:
        return
    descending = query.direction == DESCENDING
    lo, hi = resolve_time_bounds(
        query.time_range, None if ttl_micros is None else now - ttl_micros)
    cut = None
    if lo is not None or hi is not None:
        cut = partial(_time_cut, -inf if lo is None else lo,
                      inf if hi is None else hi)
    live = [head for head in (_Head(runs, key_indexes) for runs in sources)
            if head.advance()]
    while live:
        parts, kept = take_stretch(live, descending, cut)
        scanned, returned = _count(parts), _count(kept)
        if remaining is not None:
            if returned >= remaining:
                # The limit falls in this stretch: count up to the row
                # that reaches it, as a row-at-a-time walk would.
                kept = _first(kept, remaining, descending)
                run, lo, hi = kept[0] if descending else kept[-1]
                scanned = _walked(parts, live, run,
                                  lo if descending else hi - 1, descending)
                returned = remaining
            remaining -= returned
        stats.rows_scanned += scanned
        stats.rows_returned += returned
        if returned:
            yield kept
        if remaining == 0:
            return
        live = [head for head in live
                if head.pos < head.end or head.advance()]


def _walked(parts: List[Piece], heads: Sequence[_Head], run: Run, at: int,
            descending: bool) -> int:
    """How many rows of ``parts`` a walk in result order passes up to
    and including row ``at`` of ``run``."""
    if len(parts) == 1:
        _run, lo, hi = parts[0]
        return hi - at if descending else at - lo + 1
    keys_of = {id(head.run): head.keys for head in heads}
    key = key_at(keys_of[id(run)]() if id(run) in keys_of
                 else run.key_columns(heads[0].key_indexes), at)
    walked = 0
    for run, lo, hi in parts:
        cut_at = _cut_columns(keys_of[id(run)](), key, lo, hi,
                              past=not descending)
        walked += hi - cut_at if descending else cut_at - lo
    return walked


def _built(pieces: List[Piece], descending: bool, take) -> List[List[Any]]:
    """The lists ``take(run, lo, hi)`` gives (rows, or columns) for the
    pieces, joined in result order; a run is asked once, for the rows
    its pieces span (a cold block builds them in one go)."""
    run, base, _hi = pieces[0]
    if all(piece[0] is run for piece in pieces):    # gather in C
        got = take(run, base, pieces[-1][2])
        if len(pieces) == 1:
            return [part[::-1] for part in got] if descending else got
        at = list(chain.from_iterable(
            range(lo - base, hi - base) for _run, lo, hi in pieces))
        if descending:
            at.reverse()
        return [list(map(part.__getitem__, at)) for part in got]
    spans = {}      # a run's pieces ascend: its first starts the span
    for run, lo, hi in pieces:
        spans[id(run)] = (run, spans.get(id(run), (run, lo))[1], hi)
    taken = {key: (take(run, lo, hi), lo)
             for key, (run, lo, hi) in spans.items()}
    built: List[List[Any]] = []
    for run, lo, hi in reversed(pieces) if descending else pieces:
        got, base = taken[id(run)]
        built = built or [[] for _ in got]
        for into, part in zip(built, got):
            part = part[lo - base:hi - base]
            into += reversed(part) if descending else part
    return built


def stretch_rows(pieces: List[Piece], descending: bool = False
                 ) -> List[Row]:
    """A stretch's rows in result order, a fresh list."""
    rows, = _built(pieces, descending,
                   lambda run, lo, hi: (run.rows(lo, hi),))
    return rows


class Page:
    """A query page: the stretches the cursor cut, built as rows or as
    ``width`` columns only when asked for.  The pieces hold what they
    were cut from (a cached block's entry, a memtable chunk's rows), so
    a page is built after its read plan is released, touching no file.
    Its rows are the ones a scan takes - the cache's own tuples - so a
    caller that keeps every row (a digest through the router) keeps no
    second copy of them."""

    def __init__(self, stretches: Iterable[List[Piece]], descending: bool,
                 width: int):
        self.stretches = list(stretches)
        self.descending, self.width = descending, width
        self.count = sum(map(_count, self.stretches))

    def truncate(self, limit: int) -> None:
        """Keep the first ``limit`` rows."""
        self.count = min(self.count, limit)
        kept: List[List[Piece]] = []
        for pieces in self.stretches:
            if limit:
                kept.append(_first(pieces, limit, self.descending))
                limit -= _count(kept[-1])
        self.stretches = kept

    def rows(self) -> List[Row]:
        return list(chain.from_iterable(
            stretch_rows(pieces, self.descending)
            for pieces in self.stretches))

    def columns(self) -> List[List[Any]]:
        columns: List[List[Any]] = [[] for _ in range(self.width)]
        for pieces in self.stretches:
            for column, part in zip(columns, _built(
                    pieces, self.descending,
                    lambda run, lo, hi: run.columns(lo, hi))):
                column += part
        return columns


def execute_query(sources: Iterable[Iterable[Run]],
                  schema: Schema,
                  query: Query,
                  now: int,
                  ttl_micros: Optional[int],
                  stats: QueryStats) -> Iterator[List[Row]]:
    """:func:`cut_stretches` for a consumer of rows: yields lists of
    rows in result order, each the caller's own."""
    descending = query.direction == DESCENDING
    for pieces in cut_stretches(sources, schema.key_indexes, query, now,
                                ttl_micros, stats):
        yield stretch_rows(pieces, descending)
