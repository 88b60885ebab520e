"""The read path: functions over one immutable snapshot of a table.

"LittleTable opens a cursor on each tablet, filters any rows that
fall outside the query's timestamp bounds ... and merge-sorts the
resulting streams" (§3.2), after picking the tablets by timespan and
key range (§3.4.5).  Every read - ``scan``/``query``,
``aggregate_partials``, ``latest``, ``EXPLAIN``'s prune preview and
bulk delete's candidate pass - starts from the :class:`ReadPlan` that
:meth:`repro.core.table.Table._read_plan` captures and pins in one
state-lock hold, so the pruning, the schema translation and the
corruption guard below apply to all of them alike.  Nothing here
touches a ``Table``: tests run these functions on a hand-built plan.

What a source hands the cursor is a *run* (:data:`repro.core.row.Run`):
the key span of one cached block, or one chunk of a memtable -
:meth:`ReadPlan.tablet_runs` / :meth:`ReadPlan.memtable_runs` - and
the consumer builds what it takes: :func:`scan_stretches` rows,
:func:`scan_page` a page that the server encodes from columns.
``tablet_rows`` flattens the same runs for the one caller that wants
rows (bulk delete's rewrite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Callable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..disk.storage import StorageError
from ..obs.metrics import NULL_REGISTRY
from .cursor import Page, cut_stretches, execute_query
from .descriptor import TableDescriptor
from .errors import CorruptTabletError
from .memtable import MemTable
from .readcache import TabletPruneIndex
from .row import (DESCENDING, KeyRange, Query, QueryStats, RowRun, Run,
                  TimeRange, rows_of)
from .schema import Schema
from .tablet import TabletMeta, TabletReader
from .vector import (AggregatePartials, AggregateSpec, accumulate,
                     residual_filter, resolve_time_bounds, time_filter)

Row = Tuple[Any, ...]
#: What a damaged or vanished tablet file raises when read.
CORRUPTION = (CorruptTabletError, StorageError)


class ReadMetrics:
    """The ``query.*`` counters the read functions advance, looked up
    once per table so no read does a registry lookup."""

    def __init__(self, registry=NULL_REGISTRY):
        counter = registry.counter
        self.tablets_pruned = counter("query.tablets_pruned")
        self.push_blocks = counter("query.pushdown.blocks_columnar")
        self.push_blocks_fallback = counter("query.pushdown.blocks_fallback")
        self.push_rows_columnar = counter("query.pushdown.rows_columnar")
        self.push_rows_fallback = counter("query.pushdown.rows_fallback")
        self.push_rows_filtered = counter(
            "query.pushdown.rows_kernel_filtered")


def translated_runs(runs: Iterator[Run], schema: Schema, written: Schema
                    ) -> Iterator[Run]:
    """``runs`` of rows ``written`` under an older schema, at
    ``schema`` (§3.5); a translation never touches a key column."""
    if written.version == schema.version:
        return runs
    translate = schema.translate_row
    return (RowRun([translate(row, written)
                    for row in run.rows(run.lo, run.hi)]) for run in runs)


def reader_runs(reader: TabletReader, schema: Schema,
                key_range: Optional[KeyRange] = None,
                descending: bool = False, columnar: bool = False
                ) -> Iterator[Run]:
    """Scan a tablet's runs, translating old-schema rows (§3.5)."""
    reader.ensure_loaded()
    return translated_runs(
        reader.scan_runs(key_range or KeyRange.all(), descending, columnar),
        schema, reader.schema)


@dataclass
class ReadPlan:
    """One consistent snapshot of a table's sources.

    ``version`` is the frozen table version captured (its schema, TTL,
    ``generation`` and tablets are the plan's) and ``memtables`` the
    non-empty unflushed ones; memtables are safe for concurrent reads
    (a scan racing an insert sees some, all, or none of it, §3.1).
    ``generation`` keys the prune index; ``cache_generation`` and
    ``insert_seq`` let ``latest`` decide whether its answer may be
    cached.  Used as a context manager: the table's plan pins its
    generation, which keeps every file in ``tablets`` on disk, until
    the ``with`` block ends.
    """

    version: TableDescriptor
    memtables: Sequence[MemTable]
    open_reader: Callable[[TabletMeta], TabletReader]
    cache_generation: int = 0
    insert_seq: int = 0
    on_corrupt: Optional[Callable[[TabletMeta, BaseException], None]] = None
    prune_index: TabletPruneIndex = field(default_factory=TabletPruneIndex)
    metrics: ReadMetrics = field(default_factory=ReadMetrics)
    release: Optional[Callable[[int], None]] = None


    def __enter__(self) -> "ReadPlan":
        return self

    def __exit__(self, *_exc_info) -> None:
        if self.release is not None:
            self.release(self.version.generation)

    def select(self, time_range: TimeRange, key_range: Optional[KeyRange],
               stats: Optional[QueryStats] = None) -> List[TabletMeta]:
        """Tablets that may hold rows in the rectangle, in ``min_ts``
        order: the zone-map + time-interval pruning every read shares.
        Pruned tablets advance ``query.tablets_pruned``."""
        selected, pruned = self.prune_index.select(
            self.version, time_range, key_range)
        if pruned:
            if stats is not None:
                stats.tablets_pruned += pruned
            self.metrics.tablets_pruned.inc(pruned)
        return selected

    def corrupt(self, meta: TabletMeta, exc: BaseException) -> None:
        """Report a checksum or structural failure (or a vanished
        file) met while reading ``meta``; the caller re-raises.

        The table quarantines the tablet - descriptor drops it, file
        moves to ``quarantine/`` - so detection is never silent: this
        read gets a typed error, the ``storage.checksum_failures`` /
        ``storage.quarantined_tablets`` metrics advance, and
        *subsequent* reads serve from the remaining tablets.  Rows
        already yielded from the bad tablet's earlier blocks were
        CRC-verified, so nothing corrupt was ever returned.
        """
        if self.on_corrupt is not None:
            self.on_corrupt(meta, exc)

    def tablet_runs(self, meta: TabletMeta,
                    key_range: Optional[KeyRange] = None,
                    descending: bool = False, columnar: bool = False
                    ) -> Iterator[Run]:
        """A guarded tablet scan at the plan's schema, a run (one
        block's in-range span) at a time; nothing is opened or read
        before the first ``next()``."""
        try:
            yield from reader_runs(self.open_reader(meta),
                                   self.version.schema, key_range,
                                   descending, columnar)
        except CORRUPTION as exc:
            self.corrupt(meta, exc)
            raise

    def tablet_rows(self, meta: TabletMeta,
                    key_range: Optional[KeyRange] = None) -> Iterator[Row]:
        """The same scan for a caller that wants rows."""
        return rows_of(self.tablet_runs(meta, key_range))

    def memtable_runs(self, memtable: MemTable, key_range: KeyRange,
                      descending: bool = False) -> Iterator[Run]:
        """Scan a memtable's runs, translating rows written under an
        older schema (a schema change retires filling memtables, but
        they stay readable until flushed)."""
        return translated_runs(memtable.scan_runs(key_range, descending),
                               self.version.schema, memtable.schema)

    def may_hold_prefix(self, meta: TabletMeta,
                        encoded_prefix: Optional[List[bytes]]) -> bool:
        """False only when the tablet's Bloom filter rules the key
        prefix out (§3.4.5); ``encoded_prefix`` None skips the probe."""
        if encoded_prefix is None:
            return True
        try:
            return self.open_reader(meta).may_contain_prefix(
                encoded_prefix) is not False
        except CORRUPTION as exc:
            self.corrupt(meta, exc)
            raise


# ---------------------------------------------------------------- scans

def _query_sources(plan: ReadPlan, query: Query, stats: QueryStats,
                   columnar: bool = False) -> List[Iterator[Run]]:
    """Every selected tablet's runs, then the overlapping memtables'."""
    descending = query.direction == DESCENDING
    sources = [plan.tablet_runs(meta, query.key_range, descending, columnar)
               for meta in plan.select(query.time_range, query.key_range,
                                       stats)]
    stats.tablets_opened += len(sources)
    for memtable in plan.memtables:
        if query.time_range.overlaps(memtable.min_ts, memtable.max_ts):
            sources.append(plan.memtable_runs(memtable, query.key_range,
                                              descending))
    return sources


def scan_stretches(plan: ReadPlan, query: Query, now: int, stats: QueryStats
                   ) -> Iterator[List[Row]]:
    """The merged, filtered result of ``query`` (§3.2) as lists of rows
    in result order (:func:`repro.core.cursor.execute_query`).  Lazy:
    the first ``next()`` reads one block of each selected tablet."""
    return execute_query(_query_sources(plan, query, stats),
                         plan.version.schema, query, now,
                         plan.version.ttl_micros, stats)


def scan_page(plan: ReadPlan, query: Query, now: int, stats: QueryStats
              ) -> Page:
    """The same result as one :class:`~repro.core.cursor.Page` (a
    ``query`` page), built as rows or columns by whoever reads it."""
    schema = plan.version.schema
    return Page(cut_stretches(
        _query_sources(plan, query, stats, columnar=True),
        schema.key_indexes, query, now, plan.version.ttl_micros, stats),
        query.direction == DESCENDING, len(schema.columns))


def tablets_holding(plan: ReadPlan, key_range: KeyRange,
                    encoded_prefix: Optional[List[bytes]]
                    ) -> List[TabletMeta]:
    """Tablets with at least one row inside ``key_range`` (bulk
    delete's candidate pass).  Tablets whose zone map, Bloom filter
    or key index rules the range out are never scanned."""
    return [
        meta for meta in plan.select(TimeRange.all(), key_range)
        if plan.may_hold_prefix(meta, encoded_prefix)
        and any(plan.tablet_runs(meta, key_range))]


# ------------------------------------------------------------ aggregation

#: ``fold(columns, lo, hi, lane)``: rows ``[lo, hi)`` of one column
#: batch, all inside the key bounds, go through the kernels; ``lane``
#: is the ``query.pushdown.rows_*`` counter of the way they came.
Fold = Callable[[Sequence[Sequence[Any]], int, int, Any], None]


def aggregate(plan: ReadPlan, spec: AggregateSpec, now: int,
              stats: QueryStats) -> AggregatePartials:
    """Partial aggregation over the plan's sources: the one aggregate
    engine, whichever facade was asked.

    The counterpart of :func:`scan_stretches` for aggregate queries:
    the same zone-map + time-interval tablet pruning, and every source
    goes through the same column kernels (``time_filter`` /
    ``residual_filter`` / ``accumulate``).  v2 and v3 tablets hand over
    whole decoded columns with no per-row tuple; what exists only as
    rows - a memtable, a v1 tablet, a tablet written under an older
    schema - arrives as the runs a scan would read and is transposed,
    one ``zip(*rows)`` a run.  Primary keys are unique across sources
    (§3.4.4), so per-source partials combine by simple merge; the
    executor (or the shard router) finalizes.

    Accounting matches a scan's: ``rows_scanned`` counts rows inside
    the key bounds, ``rows_returned`` those alive after the time/TTL
    filter, and pruned tablets advance the same
    ``query.tablets_pruned`` counter plain selects use.
    """
    ttl = plan.version.ttl_micros
    cutoff = None if ttl is None else now - ttl
    tlo, thi = resolve_time_bounds(spec.time_range, cutoff)
    partials = AggregatePartials()
    groups = partials.groups
    ts_index = plan.version.schema.ts_index
    # What the kernels read: all a block decodes beside its key columns.
    reads = {ts_index, *spec.group_indexes,
             *(index for index, _op, _value in spec.residuals),
             *(index for func, index in spec.aggregates
               if index is not None and func != "COUNT")}
    filtered = plan.metrics.push_rows_filtered

    def fold(columns: Sequence[Sequence[Any]], lo: int, hi: int,
             lane: Any) -> None:
        in_bounds = hi - lo
        stats.rows_scanned += in_bounds
        sel = time_filter(columns[ts_index], lo, hi, tlo, thi)
        stats.rows_returned += in_bounds if sel is None else len(sel)
        if spec.residuals:
            sel = residual_filter(columns, spec.residuals, sel, lo, hi)
        aggregated = in_bounds if sel is None else len(sel)
        lane.inc(in_bounds)
        filtered.inc(in_bounds - aggregated)
        if aggregated:
            accumulate(groups, spec, columns, ts_index, sel, lo, hi)

    for meta in plan.select(spec.time_range, spec.key_range, stats):
        stats.tablets_opened += 1
        try:
            _fold_tablet(plan, meta, spec.key_range, reads, fold)
        except CORRUPTION as exc:
            plan.corrupt(meta, exc)
            raise
    for memtable in plan.memtables:
        if spec.time_range.overlaps(memtable.min_ts, memtable.max_ts):
            _fold_runs(plan, plan.memtable_runs(memtable, spec.key_range),
                       fold)
    return partials


def _fold_runs(plan: ReadPlan, runs: Iterator[Run], fold: Fold) -> None:
    """Sources that exist only as rows: each run a scan would read,
    transposed into the column batch the kernels take."""
    lane = plan.metrics.push_rows_fallback
    for run in runs:
        fold(run.columns(run.lo, run.hi), 0, run.hi - run.lo, lane)


def _fold_tablet(plan: ReadPlan, meta: TabletMeta, key_range: KeyRange,
                 reads: Set[int], fold: Fold) -> None:
    """Fold one tablet into the partial group states.

    Same-schema tablets are column-major already: each block the key
    range touches hands over the columns in ``reads``, and bisecting its
    key columns trims it to the range - no row or key tuple is built.
    """
    metrics = plan.metrics
    reader = plan.open_reader(meta)
    reader.ensure_loaded()
    if reader.schema.version != plan.version.schema.version:
        # Old-schema rows are translated one by one (§3.5).
        _fold_runs(plan, reader_runs(reader, plan.version.schema,
                                     key_range), fold)
        metrics.push_blocks_fallback.inc(reader.block_count)
        return
    keys = reader.schema.key_indexes[:key_range.bound_width]
    wanted = sorted({*keys, *reads})
    entries = reader.block_entries()
    # Blocks [first, inside) end on an in-range key; block ``inside``
    # ends past the range but may begin inside it.
    first, inside = key_range.span(reader.last_keys)
    for index in range(first, min(inside + 1, len(entries))):
        columns = reader.scan_block_columns(index, wanted)
        lo, hi = key_range.span_columns([columns[i] for i in keys], 0,
                                        entries[index].row_count)
        if lo < hi:
            metrics.push_blocks.inc()
            fold(columns, lo, hi, metrics.push_rows_columnar)


# ----------------------------------------------- latest row for a prefix

def latest_row(plan: ReadPlan, prefix: Tuple[Any, ...],
               cutoff: Optional[int], now: int, stats: QueryStats,
               encoded_prefix: Optional[List[bytes]] = None
               ) -> Optional[Row]:
    """The newest row whose key starts with ``prefix`` (§3.4.5).

    Works backwards through groups of sources with overlapping
    timespans, so it usually stops after the newest group.  When the
    prefix covers all key columns except the timestamp, the first row
    of a descending cursor is the answer; otherwise the whole prefix
    within each group is scanned for the maximum timestamp.
    ``encoded_prefix`` lets Bloom filters skip tablets that cannot
    contain the prefix; rows older than ``cutoff`` do not count.
    """
    schema = plan.version.schema
    ts_of = schema.ts_of
    full_prefix = len(prefix) == schema.key_width - 1
    key_range = KeyRange.prefix(prefix)
    # Under a full prefix the cursor's first row is the group's newest.
    query = Query(key_range, TimeRange.all(), DESCENDING,
                  limit=1 if full_prefix else None)
    best: Optional[Row] = None
    tablets = plan.select(TimeRange.all(), key_range)
    for group in timespan_groups(tablets, plan.memtables):
        if cutoff is not None and max(
                span_max for _src, _span_min, span_max in group) < cutoff:
            break
        sources = []
        for source, _span_min, _span_max in group:
            if not isinstance(source, TabletMeta):
                sources.append(plan.memtable_runs(source, key_range,
                                                  descending=True))
            elif plan.may_hold_prefix(source, encoded_prefix):
                sources.append(plan.tablet_runs(source, key_range,
                                                descending=True))
        for row in chain.from_iterable(execute_query(
                sources, schema, query, now, plan.version.ttl_micros, stats)):
            ts = ts_of(row)
            if cutoff is not None and ts < cutoff:
                continue
            if full_prefix:
                return row
            if best is None or ts > ts_of(best):
                best = row
        if best is not None:
            break
    return best


def timespan_groups(tablets: Sequence[TabletMeta],
                    memtables: Sequence[MemTable]
                    ) -> List[List[Tuple[Any, int, int]]]:
    """Sources grouped by overlapping timespans, newest first.

    Each group is a list of (source, span_min, span_max) where the
    source is a TabletMeta or a MemTable.  Groups are maximal runs of
    sources whose timespans form a connected interval chain.

    The caller may already have dropped tablets whose key-range zone
    map proves they cannot hold a qualifying row; removing sources
    only splits groups into still-time-disjoint subgroups, so the
    newest-first dominance argument in :func:`latest_row` is
    preserved.
    """
    spans = [(meta, meta.min_ts, meta.max_ts) for meta in tablets]
    spans.extend((memtable, memtable.min_ts, memtable.max_ts)
                 for memtable in memtables if not memtable.empty)
    spans.sort(key=lambda item: item[1])
    groups: List[List[Tuple[Any, int, int]]] = []
    current: List[Tuple[Any, int, int]] = []
    current_max = None
    for item in spans:
        _source, span_min, span_max = item
        if current and span_min > current_max:
            groups.append(current)
            current = []
            current_max = None
        current.append(item)
        current_max = span_max if current_max is None else max(
            current_max, span_max)
    if current:
        groups.append(current)
    groups.reverse()
    return groups
