"""Scale-out: a shard router over N LittleTable engine workers.

The paper's deployment funnels "hundreds of thousands of devices"
through adaptors into a single server (§3.1); one engine behind one
accept loop is the scaling wall.  The :class:`ShardRouter` breaks it
by partitioning every table's rows across N independent engines and
presenting the same database facade the network dispatcher already
speaks, so the server front serves a router without knowing it.

Routing is deterministic per row key:

* Tables whose primary key has leading columns before ``ts`` route by
  a stable hash (CRC32) of those leading values - every row of one
  device lands on one shard, so ``latest(prefix)`` and fully-pinned
  prefix queries touch a single worker.
* Tables keyed by bare ``ts`` route by the four-hour grid underlying
  the engine's time-period bins (§3.4.2): ``ts // 4h  mod  N``.  The
  grid is epoch-aligned and independent of "now", so routing never
  shifts as periods roll over.

Queries outside a single shard scatter to every live worker and merge
into one run ordered by the schema's key tuples (the same plain tuple
comparison a tablet's block index is bisected with), preserving the
server row limit's ``more_available`` continuation contract across
shard boundaries: merged rows are only emitted up to the smallest
last-key any truncated shard reached, so a client resuming past the
last returned key never skips rows another shard still holds.

Failure isolation: a worker that crashes (failpoint
:class:`~repro.disk.faults.CrashPoint`, torn I/O, unexpected internal
errors) is marked down.  Requests touching its keys raise
:class:`~repro.core.errors.ShardDegradedError`; keys on the surviving
workers - and the router itself - keep serving.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core.codec import compiled_ops
from ..core.config import EngineConfig
from ..core.database import LittleTable
from ..core.errors import LittleTableError, ShardDegradedError
from ..core.maintenance import MaintenancePolicy, MaintenanceReport
from ..core.periods import FOUR_HOURS
from ..core.row import (DESCENDING, KeyRange, Query, QueryResult, QueryStats,
                        TimeRange)
from ..core.schema import Schema
from ..core.vector import AggregatePartials, AggregateSpec
from ..obs.metrics import MetricsRegistry
from ..util.clock import Clock


def shard_of(leading: Tuple[Any, ...], ts: Optional[int],
             shard_count: int) -> int:
    """The shard owning a key: hash of the leading key columns, or
    the epoch-aligned four-hour time bin for bare-``ts`` keys.

    ``repr`` of the canonical stored value types (int/float/str/bytes)
    is deterministic across processes, so the CRC is a stable routing
    hash with no dependence on Python's randomized ``hash()``.
    """
    if shard_count == 1:
        return 0
    if leading:
        digest = zlib.crc32(repr(leading).encode("utf-8"))
        return digest % shard_count
    if ts is None:
        return 0
    return (ts // FOUR_HOURS) % shard_count


def merge_sorted_runs(runs: Sequence[Sequence[Tuple[Any, ...]]],
                      key: Callable[[Tuple[Any, ...]], Tuple[Any, ...]],
                      descending: bool = False) -> List[Tuple[Any, ...]]:
    """Merge per-shard sorted runs into one ordered list.

    Plain tuple comparison on the schema's key tuples - the same
    ordering a tablet's block index is bisected with.  The
    runs are concatenated and sorted: Timsort finds each presorted run
    and merges them in C, which beats popping a Python heap per row.
    Keys are globally unique (each full key routes to exactly one
    shard), so ties cannot occur between runs.
    """
    merged = [row for run in runs for row in run]
    merged.sort(key=key, reverse=descending)
    return merged


class ShardedTable:
    """Table facade spanning one logical table's N physical shards.

    Implements the slice of the :class:`~repro.core.table.Table` API
    the network dispatcher and the SQL executor use; rows fan out on
    write and merge back ordered on read.
    """

    def __init__(self, router: "ShardRouter", name: str):
        self._router = router
        self.name = name

    # ------------------------------------------------------- structure

    @property
    def schema(self) -> Schema:
        return self._router._any_live_table(self.name).schema

    @property
    def ttl_micros(self) -> Optional[int]:
        return self._router._any_live_table(self.name).ttl_micros

    # ---------------------------------------------------------- writes

    def insert(self, rows: Sequence[Dict[str, Any]]) -> int:
        """Dict rows are laid out positionally and take the positional
        path, exactly as :meth:`Table.insert` does."""
        now = self._router.clock.now()
        positional = self.schema.positional_from_dict
        return self._router._insert(
            self.name, [positional(row, now) for row in rows])

    def insert_tuples(self, rows: Sequence[Tuple[Any, ...]]) -> int:
        return self._router._insert(self.name, rows)

    # --------------------------------------------------------- queries

    def query(self, query: Query) -> QueryResult:
        return self._router._query(self.name, query)

    def scan(self, query: Query) -> Iterator[Tuple[Any, ...]]:
        """Unbounded ordered stream (SQL executor path): repeated
        query commands continued past each truncation, like the
        client adaptor does (§3.5)."""
        return self._router._scan(self.name, query)

    def latest(self, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        return self.latest_many((prefix,), max_lookback_micros)[0]

    def latest_many(self, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> List[Optional[Tuple[Any, ...]]]:
        """Each prefix's latest row, in input order, from one
        ``latest_many`` call per shard that owns any of them.

        A prefix that fixes every leading key column lives on one
        shard; a shorter one asks every shard and keeps the newest
        answer.  A batch that needs a downed shard is refused before
        any shard runs (:meth:`ShardRouter._refuse_down`).  The shards
        are called in turn, not on the pool: a cached answer costs
        about a microsecond, less than a hand-off to a thread.
        """
        router = self._router
        prefixes = [tuple(prefix) for prefix in prefixes]
        schema = self.schema
        leading_width = schema.key_width - 1
        positions: Dict[int, List[int]] = {}
        fanned: List[int] = []
        for position, prefix in enumerate(prefixes):
            if leading_width and len(prefix) >= leading_width:
                positions.setdefault(router._shard_for_leading(
                    prefix[:leading_width]), []).append(position)
            else:
                fanned.append(position)
        if fanned:
            for index in range(router.shard_count):
                positions.setdefault(index, []).extend(fanned)
        router._refuse_down(positions)
        router._m_single.inc(len(prefixes) - len(fanned))
        router._m_scatter.inc(len(fanned))
        ts_of = schema.ts_of
        rows: List[Optional[Tuple[Any, ...]]] = [None] * len(prefixes)
        for index in sorted(positions):
            wanted = positions[index]
            found = router._run(index, lambda db: db.table(
                self.name).latest_many([prefixes[p] for p in wanted],
                                       max_lookback_micros))
            for position, row in zip(wanted, found):
                best = rows[position]
                if row is not None and (best is None
                                        or ts_of(row) > ts_of(best)):
                    rows[position] = row
        return rows

    def aggregate_partials(self, spec: AggregateSpec) -> AggregatePartials:
        """Scatter-gather partial aggregation (vectorized pushdown).

        Each shard folds its own tablets and memtables into partial
        group states locally; only those states cross the gather and
        merge - never raw rows.  Keys place deterministically on one
        shard, so no group is double counted.  Pinned-prefix queries
        skip the fan-out entirely, like point queries do.
        """
        router = self._router
        pinned = router._pinned_shard(
            self.schema, Query(spec.key_range, spec.time_range))
        if pinned is not None:
            router._m_single.inc()
            return router._run(
                pinned,
                lambda db: db.table(self.name).aggregate_partials(spec))
        router._m_scatter.inc()
        merged = AggregatePartials()
        for partials in router._fanout_table(
                self.name, lambda t: t.aggregate_partials(spec)):
            merged.merge(partials)
        return merged

    def prune_preview(self, time_range: TimeRange, key_range: KeyRange
                      ) -> Tuple[int, int]:
        """Summed (would-open, total) tablet counts across shards."""
        previews = self._router._fanout_table(
            self.name,
            lambda t: t.prune_preview(time_range, key_range))
        return (sum(selected for selected, _total in previews),
                sum(total for _selected, total in previews))

    @property
    def unflushed_memtable_count(self) -> int:
        return sum(self._router._fanout_table(
            self.name, lambda t: t.unflushed_memtable_count))

    # ----------------------------------------------- admin & lifecycle

    def flush_all(self) -> List[Any]:
        written: List[Any] = []
        for result in self._router._fanout_table(self.name,
                                                 lambda t: t.flush_all()):
            written.extend(result)
        return written

    def flush_before(self, ts: int) -> List[Any]:
        written: List[Any] = []
        for result in self._router._fanout_table(
                self.name, lambda t: t.flush_before(ts)):
            written.extend(result)
        return written

    def bulk_delete(self, prefix: Sequence[Any]) -> int:
        prefix = tuple(prefix)
        schema = self.schema
        leading_width = schema.key_width - 1
        if leading_width and len(prefix) >= leading_width:
            shard = self._router._shard_for_leading(
                prefix[:leading_width])
            return self._router._run(
                shard,
                lambda db: db.table(self.name).bulk_delete(prefix))
        return sum(self._router._fanout_table(
            self.name, lambda t: t.bulk_delete(prefix)))

    def append_column(self, column: Any) -> None:
        self._router._fanout_table(
            self.name, lambda t: t.append_column(column))

    def widen_column(self, name: str) -> None:
        self._router._fanout_table(
            self.name, lambda t: t.widen_column(name))

    def set_ttl(self, ttl_micros: Optional[int]) -> None:
        self._router._fanout_table(
            self.name, lambda t: t.set_ttl(ttl_micros))

    def stats_summary(self) -> Dict[str, Any]:
        """Shard-merged shape summary: integer counts sum, the rest
        come from shard 0's survivors."""
        summaries = self._router._fanout_table(
            self.name, lambda t: t.stats_summary())
        merged: Dict[str, Any] = dict(summaries[0])
        for summary in summaries[1:]:
            for field, value in summary.items():
                if field in ("name", "ttl_micros", "schema_version"):
                    continue
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    base = merged.get(field) or 0
                    merged[field] = base + value
        merged["shards"] = len(summaries)
        return merged


class ShardRouter:
    """N engine workers behind one database facade.

    Duck-types the :class:`~repro.core.database.LittleTable` facade
    (catalog, insert/query/latest, maintenance, health), so the
    network dispatcher, the SQL session, and ``repro.connect()``
    callers cannot tell one engine from many.
    """

    def __init__(self, shards: int = 4,
                 data_dir: Optional[str] = None,
                 config: Optional[EngineConfig] = None,
                 clock: Optional[Clock] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 maintenance_policy: Optional[MaintenancePolicy] = None,
                 engines: Optional[Sequence[LittleTable]] = None,
                 durability=None):
        """Open ``shards`` workers, either in memory or over
        ``data_dir/shard-NN`` subdirectories (gnitz-style: one
        manifest root, one subtree per shard).  Pass ``engines`` to
        adopt pre-built workers (tests, custom disks); they should
        share a clock and metrics registry for coherent routing and
        one STATS surface.  ``durability`` (a
        :class:`~repro.core.durability.DurabilityPolicy`) becomes each
        worker's database default: per-shard WALs, one per worker
        table.
        """
        if engines is not None:
            if not engines:
                raise ValueError("engines must be non-empty")
            self.engines = list(engines)
            self.metrics = metrics if metrics is not None \
                else self.engines[0].metrics
        else:
            if shards < 1:
                raise ValueError("shards must be >= 1")
            self.metrics = metrics if metrics is not None \
                else MetricsRegistry()
            self.engines = []
            for index in range(shards):
                subdir = None if data_dir is None else \
                    f"{data_dir}/shard-{index:02d}"
                kwargs = {} if durability is None else \
                    {"durability": durability}
                self.engines.append(LittleTable.open(
                    subdir, config=config, clock=clock,
                    metrics=self.metrics,
                    maintenance_policy=maintenance_policy, **kwargs))
        self.clock = self.engines[0].clock
        self.config = self.engines[0].config
        self.durability = self.engines[0].durability
        # Worker crash state: shard index -> reason string.  Sticky
        # until revive_shard; guarded only by the GIL (reads are
        # racy-but-monotonic, which is fine for routing decisions).
        self._down: Dict[int, str] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, len(self.engines)),
            thread_name_prefix="shard")
        self._m_scatter = self.metrics.counter("shard.scatter_queries")
        self._m_single = self.metrics.counter("shard.single_shard_queries")
        self._m_degraded = self.metrics.gauge("shard.degraded")
        self._m_crashes = self.metrics.counter("shard.worker_crashes")
        self._m_routed = self.metrics.counter("shard.rows_routed")

    # ------------------------------------------------------------ shape

    @property
    def shard_count(self) -> int:
        return len(self.engines)

    @property
    def degraded_shards(self) -> Dict[int, str]:
        """Downed workers: shard index -> crash reason."""
        return dict(self._down)

    def revive_shard(self, index: int) -> None:
        """Reopen a downed worker's engine over the same disk (the
        operator's restart).  Unflushed rows it held are lost, exactly
        like a process crash of that worker (§4.1)."""
        engine = self.engines[index]
        self.engines[index] = LittleTable(
            disk=engine.disk, config=engine.config, clock=engine.clock,
            cold_disk=engine.cold_disk, metrics=self.metrics,
            maintenance_policy=engine.maintenance_policy,
            durability=engine.durability)
        self._down.pop(index, None)
        self._m_degraded.set(len(self._down))

    # --------------------------------------------------------- routing

    def _shard_for_leading(self, leading: Tuple[Any, ...]) -> int:
        return shard_of(leading, None, len(self.engines))

    def _route_row(self, leading_indexes: Sequence[int], ts_index: int,
                   row: Sequence[Any]) -> int:
        """The shard a positional row belongs to.  The row is not yet
        validated: one too short to hold its key, or whose bare ``ts``
        is no integer, still goes to *a* worker, which refuses it."""
        try:
            if leading_indexes:
                leading = tuple(row[i] for i in leading_indexes)
                return shard_of(leading, None, len(self.engines))
            ts = row[ts_index]
        except IndexError:
            return 0
        if type(ts) is not int:
            ts = self.clock.now()
        return shard_of((), ts, len(self.engines))

    def _run(self, index: int, fn: Callable[[LittleTable], Any]) -> Any:
        """Run one operation on one worker, with crash isolation.

        Engine errors (validation, duplicate keys, read-only mode...)
        pass through: they are the worker answering, not dying.
        Anything else - failpoint CrashPoints, torn I/O, internal
        bugs - marks the worker down and surfaces as
        :class:`ShardDegradedError` so the router keeps serving the
        surviving shards.
        """
        reason = self._down.get(index)
        if reason is not None:
            raise ShardDegradedError(
                f"shard {index} is down: {reason}")
        try:
            return fn(self.engines[index])
        except LittleTableError:
            raise
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._down[index] = f"{type(exc).__name__}: {exc}"
            self._m_crashes.inc()
            self._m_degraded.set(len(self._down))
            raise ShardDegradedError(
                f"shard {index} worker crashed: "
                f"{type(exc).__name__}: {exc}") from exc

    def _live_indexes(self) -> List[int]:
        return [i for i in range(len(self.engines)) if i not in self._down]

    def _refuse_down(self, indexes: Iterable[int]) -> None:
        """Refuse an operation that needs a downed shard, before it
        runs anywhere: a refused operation is never partially applied."""
        down = ", ".join(f"{i} ({self._down[i]})" for i in sorted(indexes)
                         if i in self._down)
        if down:
            raise ShardDegradedError(
                f"operation needs shards that are down: {down}")

    def _scatter(self, work: Dict[int, Callable[[LittleTable], Any]]
                 ) -> List[Any]:
        """Run one callable per target shard in parallel; results in
        shard order.  The one scatter: fan-outs and multi-shard
        inserts both go through it.

        It refuses up front - before any worker runs anything - when a
        target shard is down, so a refused operation is never
        partially applied.  Of the errors of shards that fail
        mid-flight, a degradation (data unavailable) surfaces before
        an engine's own answer.
        """
        indexes = sorted(work)
        self._refuse_down(indexes)
        if len(indexes) == 1:
            return [self._run(indexes[0], work[indexes[0]])]
        futures = [self._pool.submit(self._run, index, work[index])
                   for index in indexes]
        results = []
        errors: List[BaseException] = []
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                errors.append(exc)
        if errors:
            for error in errors:
                if isinstance(error, ShardDegradedError):
                    raise error
            raise errors[0]
        return results

    def _fanout(self, fn: Callable[[LittleTable], Any]) -> List[Any]:
        """Run ``fn`` on every worker; a downed shard refuses the
        whole operation (:meth:`_scatter`)."""
        return self._scatter(dict.fromkeys(range(len(self.engines)), fn))

    def _fanout_table(self, name: str,
                      fn: Callable[[Any], Any]) -> List[Any]:
        return self._fanout(lambda db: fn(db.table(name)))

    def _any_live_table(self, name: str):
        for index in self._live_indexes():
            return self.engines[index].table(name)
        raise ShardDegradedError("all shards are down")

    # ---------------------------------------------------------- catalog

    def table_names(self) -> List[str]:
        for index in self._live_indexes():
            return self.engines[index].table_names()
        raise ShardDegradedError("all shards are down")

    def has_table(self, name: str) -> bool:
        for index in self._live_indexes():
            return self.engines[index].has_table(name)
        raise ShardDegradedError("all shards are down")

    def table(self, name: str) -> ShardedTable:
        self._any_live_table(name)  # NoSuchTableError when absent
        return ShardedTable(self, name)

    def create_table(self, name: str, schema: Schema,
                     ttl_micros: Optional[int] = None,
                     durability=None) -> ShardedTable:
        """DDL fans out to every worker (the catalog is replicated;
        only row data is partitioned).  A ``durability`` policy fans
        out with it: each worker keeps its own per-shard WAL for the
        table."""
        self._fanout(lambda db: db.create_table(
            name, schema, ttl_micros=ttl_micros, durability=durability))
        return ShardedTable(self, name)

    def drop_table(self, name: str) -> None:
        self._fanout(lambda db: db.drop_table(name))

    # ------------------------------------------------------- operations

    def insert(self, table_name: str,
               rows: Sequence[Dict[str, Any]]) -> int:
        return self.table(table_name).insert(rows)

    def _insert(self, table_name: str, rows: Sequence[Any]) -> int:
        """Partition a positional batch by routing key and insert
        shard-locally.

        Validation and uniqueness stay with the owning worker; the
        router only reads the raw leading values (or ts) to route.
        """
        if not rows:
            return 0
        schema = self._any_live_table(table_name).schema
        leading_indexes = schema.key_indexes[:-1]
        ts_index = schema.ts_index
        by_shard: Dict[int, List[Any]] = {}
        for row in rows:
            by_shard.setdefault(
                self._route_row(leading_indexes, ts_index, row),
                []).append(row)
        self._m_routed.inc(len(rows))

        def insert_batch(batch: List[Any]) -> Callable[[LittleTable], int]:
            return lambda db: db.table(table_name).insert_tuples(batch)

        return sum(self._scatter({index: insert_batch(batch)
                                  for index, batch in by_shard.items()}))

    def _pinned_shard(self, schema: Schema, query: Query) -> Optional[int]:
        """The single shard a query is confined to, or None.

        A query pins to one shard when its key range fixes every
        leading key column to one value (prefix semantics make that
        ``min_prefix == max_prefix`` covering the leading columns,
        both sides inclusive).
        """
        leading_width = schema.key_width - 1
        if leading_width == 0:
            return None
        kr = query.key_range
        if (kr.min_prefix is None or kr.max_prefix is None
                or not kr.min_inclusive or not kr.max_inclusive):
            return None
        if len(kr.min_prefix) < leading_width \
                or len(kr.max_prefix) < leading_width:
            return None
        leading = tuple(kr.min_prefix[:leading_width])
        if leading != tuple(kr.max_prefix[:leading_width]):
            return None
        return self._shard_for_leading(leading)

    def query(self, table_name: str,
              query: Optional[Query] = None) -> QueryResult:
        return self._query(table_name,
                           query if query is not None else Query())

    def _query(self, table_name: str, query: Query) -> QueryResult:
        schema = self._any_live_table(table_name).schema
        pinned = self._pinned_shard(schema, query)
        if pinned is not None:
            self._m_single.inc()
            return self._run(
                pinned, lambda db: db.table(table_name).query(query))
        self._m_scatter.inc()
        results = self._fanout_table(table_name,
                                     lambda t: t.query(query))
        return self._merge_results(schema, query, results)

    def _merge_results(self, schema: Schema, query: Query,
                       results: List[QueryResult]) -> QueryResult:
        """Scatter-gather merge preserving the §3.5 continuation
        contract across shard boundaries."""
        descending = query.direction == DESCENDING
        key_of = compiled_ops(schema).key_of
        stats = QueryStats()
        for result in results:
            stats.rows_scanned += result.stats.rows_scanned
            stats.tablets_opened += result.stats.tablets_opened
            stats.tablets_pruned += result.stats.tablets_pruned
        # A truncated shard only vouches for rows up to its own last
        # key; beyond the *smallest* such frontier (largest, for
        # descending scans) another shard's unseen rows could
        # interleave, so the merged stream must stop there.
        boundary = None
        any_truncated = False
        for result in results:
            if result.more_available and result.rows:
                any_truncated = True
                last_key = key_of(result.rows[-1])
                if boundary is None:
                    boundary = last_key
                elif descending:
                    boundary = max(boundary, last_key)
                else:
                    boundary = min(boundary, last_key)
        limit = self.config.server_row_limit
        if query.limit is not None:
            limit = min(limit, query.limit)
        rows = merge_sorted_runs([r.rows for r in results], key_of,
                                 descending)
        more_available = any_truncated
        if boundary is not None:
            keys = [key_of(row) for row in rows]
            if descending:
                keys.reverse()
                del rows[len(keys) - bisect_left(keys, boundary):]
            else:
                del rows[bisect_right(keys, boundary):]
        if len(rows) > limit:
            # Engine parity: a query stopped by the *client's* own
            # limit is complete, not truncated (Table.query only
            # flags more_available when the server row limit cut
            # the scan).  Here another merged row did arrive, so
            # flag it only when the server bound is the tighter one.
            if query.limit is None or query.limit > limit:
                more_available = True
            del rows[limit:]
        stats.rows_returned = len(rows)
        return QueryResult(rows, more_available, stats)

    def _scan(self, table_name: str,
              query: Query) -> Iterator[Tuple[Any, ...]]:
        """Stream a query to exhaustion by continuing past each
        truncation - the adaptor's §3.5 loop, run router-side for the
        SQL executor."""
        schema = self._any_live_table(table_name).schema
        descending = query.direction == DESCENDING
        remaining = query.limit
        current = query
        while True:
            result = self._query(table_name, current)
            for row in result.rows:
                yield row
            if remaining is not None:
                remaining -= len(result.rows)
                if remaining <= 0:
                    return
            if not result.more_available or not result.rows:
                return
            last_key = schema.key_of(result.rows[-1])
            kr = current.key_range
            if descending:
                kr = type(kr)(min_prefix=kr.min_prefix,
                              min_inclusive=kr.min_inclusive,
                              max_prefix=last_key, max_inclusive=False)
            else:
                kr = type(kr)(min_prefix=last_key, min_inclusive=False,
                              max_prefix=kr.max_prefix,
                              max_inclusive=kr.max_inclusive)
            current = Query(kr, current.time_range, current.direction,
                            remaining)

    def latest(self, table_name: str, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None):
        return self.table(table_name).latest(
            prefix, max_lookback_micros=max_lookback_micros)

    # ------------------------------------------------------ maintenance

    def maintenance(self) -> MaintenanceReport:
        """One maintenance pass across every live worker.  Downed
        workers are skipped (their tables are degraded, not the
        router); per-table reports merge by summing."""
        report = MaintenanceReport()
        for index in self._live_indexes():
            try:
                report.merge_from(
                    self._run(index, lambda db: db.maintenance()))
            except ShardDegradedError:
                continue
        return report

    def maintenance_until_quiet(self, max_rounds: int = 1000) -> int:
        for round_index in range(max_rounds):
            if self.maintenance().is_quiet:
                return round_index
        return max_rounds

    def start_maintenance(self) -> None:
        """Start every worker's own background scheduler (idempotent),
        each under its engine's ``maintenance_policy``.  A scheduler
        drives one engine's tables; it cannot drive this facade's."""
        for engine in self.engines:
            engine.start_maintenance()

    def stop_maintenance(self) -> None:
        """Stop every worker's scheduler (idempotent)."""
        for engine in self.engines:
            engine.stop_maintenance()

    def flush_all(self) -> None:
        for index in self._live_indexes():
            self._run(index, lambda db: db.flush_all())

    def close(self) -> None:
        """Clean shutdown of every live worker, then the pool.

        Bypasses :meth:`_run`: a worker dying mid-close changes
        nothing about closing the rest.
        """
        for index in self._live_indexes():
            try:
                self.engines[index].close()
            except Exception:
                continue
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- health

    @property
    def read_only(self) -> bool:
        """The router refuses writes only when *every* live worker is
        read-only; a single degraded disk degrades its own keys."""
        live = self._live_indexes()
        return bool(live) and all(
            self.engines[i].read_only for i in live)

    @property
    def read_only_reason(self) -> Optional[str]:
        reasons = [self.engines[i].read_only_reason
                   for i in self._live_indexes()
                   if self.engines[i].read_only_reason]
        return "; ".join(reasons) if reasons else None

    def stats(self) -> Dict[str, Any]:
        """Metrics snapshot - all workers share one registry, so this
        is already the whole-cluster view (facade parity with
        ``LittleTable.stats`` and ``RemoteDatabase.stats``)."""
        return self.metrics.snapshot()

    def health(self) -> Dict[str, Any]:
        """Alias of :meth:`health_summary` (facade parity)."""
        return self.health_summary()

    def health_summary(self) -> Dict[str, Any]:
        """One health view across all workers: the merged engine
        summary plus shard topology and degradation."""
        live = self._live_indexes()
        base: Dict[str, Any]
        if live:
            base = self.engines[live[0]].health_summary()
        else:
            base = {}
        base["read_only"] = self.read_only
        base["read_only_reason"] = self.read_only_reason
        base["shards"] = len(self.engines)
        base["degraded_shards"] = {
            str(i): reason for i, reason in sorted(self._down.items())}
        return base

    def wal_status(self) -> Dict[str, Any]:
        """Durability state across all workers (``wal_status`` command
        parity): each shard keeps its own per-table WALs, so the view
        is per-shard.  Downed workers are skipped."""
        return {
            "default_tier": self.durability.tier,
            "shards": {str(i): self.engines[i].wal_status()
                       for i in self._live_indexes()},
        }
