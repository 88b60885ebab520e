"""Scale-out: a shard router over N LittleTable engine workers.

The paper's deployment funnels "hundreds of thousands of devices"
through adaptors into a single server (§3.1); one engine behind one
accept loop is the scaling wall.  The :class:`ShardRouter` breaks it
by partitioning every table's rows across N independent engines and
presenting the same database facade the network dispatcher already
speaks, so the server front serves a router without knowing it.

Routing is deterministic per row key, as the paper keeps one
customer's data on one shard (§2.2):

* A row routes by its *first* key column alone: CRC32 of that value as
  the engine stores it (a string's UTF-8, an integer's decimal digits),
  so every row of one network lands on one shard, and any read or
  delete whose key range fixes that column - ``latest(prefix)``, a
  ``WHERE network = N`` page or aggregate, ``bulk_delete`` - touches a
  single worker.
* Tables keyed by bare ``ts`` route by the four-hour grid underlying
  the engine's time-period bins (§3.4.2): ``ts // 4h  mod  N``.  The
  grid is epoch-aligned and independent of "now", so routing never
  shifts as periods roll over.

Placement depends on the shard count, so a router over a data
directory keeps both in ``router.json``, written before any
``shard-NN`` subdirectory, and refuses a directory written for another
count or by another rule.

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

import json
import operator
import os
import re
import zlib
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core.config import EngineConfig
from ..core.database import LittleTable
from ..core.errors import (LittleTableError, ShardDegradedError,
                           ShardLayoutError, UnsupportedFormatError)
from ..core.maintenance import MaintenancePolicy, MaintenanceReport
from ..core.periods import FOUR_HOURS
from ..core.row import (DESCENDING, KeyRange, Query, QueryResult, QueryStats,
                        TimeRange, scan_pages)
from ..core.schema import Schema
from ..core.table import summary_ratios
from ..core.vector import AggregatePartials, AggregateSpec
from ..disk.storage import FileStorage
from ..obs.metrics import MetricsRegistry
from ..util.clock import Clock


#: The placement manifest of a router's data directory.
MANIFEST = "router.json"

#: The rule :func:`shard_of` implements, as ``router.json`` names it.
PLACEMENT = "crc32-first-key-column/ts-4h-bins"

_SHARD_DIR = re.compile(r"shard-\d\d+")


def shard_of(first: Any, shard_count: int, by_time: bool = False) -> int:
    """The shard owning every row whose first key column holds
    ``first``: CRC32 of the value as the engine stores it, or, for a
    bare-``ts`` key (``by_time``), its epoch-aligned four-hour bin.

    A string hashes as UTF-8 and an integer as its decimal digits, so
    an ``int`` or ``str`` subclass (an ``IntEnum`` member) routes with
    its plain value, the same in every process, and widening an INT32
    key column moves no row.  A value no key column can hold raises
    ``TypeError``.
    """
    if shard_count == 1:
        return 0
    if by_time:
        return operator.index(first) // FOUR_HOURS % shard_count
    if isinstance(first, str):
        raw = str.encode(first, "utf-8")
    else:
        raw = b"%d" % operator.index(first)
    return zlib.crc32(raw) % shard_count


def fixed_first(key_range: KeyRange) -> Tuple[Any, ...]:
    """``(value,)`` when both of ``key_range``'s bounds start with the
    same first key value - every key inside then holds it, whatever the
    bounds' inclusivity - else ``()``."""
    low, high = key_range.min_prefix, key_range.max_prefix
    if low and high and low[0] == high[0]:
        return low[:1]
    return ()


def open_layout(data_dir: str, shards: int) -> None:
    """Check ``data_dir``'s :data:`MANIFEST` against ``shards``, or
    write it - atomically, before any ``shard-NN`` directory exists -
    for a new directory.

    Refuses a manifest naming another shard count
    (:class:`ShardLayoutError`) and one naming another placement rule,
    or shard directories with no manifest, which is what a router that
    hashed every leading key column left (:class:`UnsupportedFormatError`).
    Nothing is written when it refuses.
    """
    storage = FileStorage(data_dir)
    if storage.exists(MANIFEST):
        try:
            manifest = json.loads(storage.read(
                MANIFEST, 0, storage.size(MANIFEST)))
            placement, count = manifest["placement"], manifest["shards"]
        except (ValueError, KeyError, TypeError):
            raise ShardLayoutError(
                f"{data_dir}: unreadable {MANIFEST}") from None
        if placement != PLACEMENT:
            raise UnsupportedFormatError(
                f"{data_dir}: {MANIFEST} names placement {placement!r}; "
                f"this router places rows by {PLACEMENT!r}")
        if count != shards:
            raise ShardLayoutError(
                f"{data_dir} holds {count} shard(s); opening it with "
                f"{shards} would read rows from the wrong shards")
        return
    if any(_SHARD_DIR.fullmatch(name) for name in os.listdir(data_dir)):
        raise UnsupportedFormatError(
            f"{data_dir} has shard directories but no {MANIFEST}: its "
            f"rows were placed by every leading key column; this router "
            f"places them by {PLACEMENT!r}")
    storage.write_file(MANIFEST, json.dumps(
        {"placement": PLACEMENT, "shards": shards}).encode("utf-8"))


def merge_sorted_runs(runs: Sequence[Sequence[Tuple[Any, ...]]],
                      key: Callable[[Tuple[Any, ...]], Tuple[Any, ...]],
                      descending: bool = False) -> List[Tuple[Any, ...]]:
    """Merge per-shard sorted runs into one ordered list.

    Plain comparison of what ``key`` gives each row.  The runs are
    concatenated and sorted: Timsort finds each presorted run and
    merges them in C, which beats popping a Python heap per row.  The
    sort is stable, so ``key`` may be a key's first value: that value
    routes every key holding it to one shard, and ties cannot occur
    between runs.
    """
    merged = [row for run in runs for row in run]
    merged.sort(key=key, reverse=descending)
    return merged


class ShardedTable:
    """Table facade spanning one logical table's N physical shards.

    Implements the slice of the :class:`~repro.core.table.Table` API
    the network dispatcher and the SQL executor use; rows fan out on
    write and merge back ordered on read.  The router's only row
    operations are the ones here.
    """

    def __init__(self, router: "ShardRouter", name: str, schema: Schema):
        self._router = router
        self.name = name
        # No DDL touches which key columns a table has, so the rule
        # that places its rows is fixed when the facade is made.
        self._by_time = schema.key_width == 1

    # ------------------------------------------------------- structure

    @property
    def schema(self) -> Schema:
        return self._router._first_live_engine().table(self.name).schema

    @property
    def ttl_micros(self) -> Optional[int]:
        return self._router._first_live_engine().table(self.name).ttl_micros

    # ---------------------------------------------------------- writes

    def insert(self, rows: Sequence[Dict[str, Any]]) -> int:
        """Dict rows are laid out positionally and take the positional
        path, exactly as :meth:`Table.insert` does."""
        now = self._router.clock.now()
        positional = self.schema.positional_from_dict
        return self._insert([positional(row, now) for row in rows])

    def insert_tuples(self, rows: Sequence[Tuple[Any, ...]]) -> int:
        return self._insert(rows)

    def _insert(self, rows: Sequence[Any]) -> int:
        """Partition a positional batch by routing key and insert
        shard-locally.

        Validation and uniqueness stay with the owning worker; the
        router only reads the raw first key value to route.  A
        batch that needs a read-only shard is refused before any shard
        runs, so it is never partly applied.
        """
        if not rows:
            return 0
        router = self._router
        schema = self.schema
        first, by_time = schema.key_indexes[0], self._by_time
        by_shard: Dict[int, List[Any]] = {}
        for row in rows:
            by_shard.setdefault(router._route_row(first, by_time, row),
                                []).append(row)
        router._refuse_read_only(by_shard)
        router._m_routed.inc(len(rows))

        def insert_batch(batch: List[Any]) -> Callable[[LittleTable], int]:
            return lambda db: db.table(self.name).insert_tuples(batch)

        return sum(router._scatter({index: insert_batch(batch)
                                    for index, batch in by_shard.items()}))

    # --------------------------------------------------------- queries

    def query(self, query: Query) -> QueryResult:
        return self._query(query)

    def scan(self, query: Query) -> Iterator[Tuple[Any, ...]]:
        """Unbounded ordered stream (SQL executor path): query commands
        continued past each truncation, as the client adaptor does
        (§3.5)."""
        return scan_pages(query, self._query,
                          lambda row: self.schema.key_of(row))

    def _owner(self, prefix: Sequence[Any]) -> Optional[int]:
        """The one shard holding every key that starts with ``prefix``:
        the owner of its first value (:func:`shard_of`).  None when the
        prefix is empty, or its first value is one no key column holds
        - every shard is then asked, and each engine refuses it."""
        if not prefix:
            return None
        try:
            return shard_of(prefix[0], len(self._router.engines),
                            self._by_time)
        except TypeError:
            return None

    def _query(self, query: Query) -> QueryResult:
        """One query command: a pinned shard's answer, or every
        shard's merged.  :meth:`scan` pages through this rather than
        :meth:`query`, which ``bench/trace.py`` wraps as a span of its
        own: a scan is one span, not one per page."""
        router = self._router
        pinned = self._owner(fixed_first(query.key_range))
        if pinned is not None:
            router._m_single.inc()
            return router._run(
                pinned, lambda db: db.table(self.name).query(query))
        router._m_scatter.inc()
        return self._merge_results(query, router._fanout_table(
            self.name, lambda t: t.query(query)))

    def _merge_results(self, query: Query,
                       results: List[QueryResult]) -> QueryResult:
        """Scatter-gather merge preserving the §3.5 continuation
        contract across shard boundaries.  A key's first value places
        it (:func:`shard_of`), so rows with equal first values share a
        shard and a page, in key order: the pages merge by first value
        alone, and no key tuple is built."""
        descending = query.direction == DESCENDING
        key_of = operator.itemgetter(self.schema.key_indexes[0])
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
        limit = self._router.config.server_row_limit
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

    def latest(self, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        return self.latest_many((prefix,), max_lookback_micros)[0]

    def latest_many(self, prefixes: Sequence[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> List[Optional[Tuple[Any, ...]]]:
        """Each prefix's latest row, in input order, from one
        ``latest_many`` call per shard that owns any of them.

        A prefix that fixes the first key column lives on one shard;
        an empty one asks every shard and keeps the newest answer.  A
        batch that needs a downed shard is refused before any shard
        runs (:meth:`ShardRouter._refuse_down`).  The shards are called
        in turn, not on the pool: a cached answer costs about a
        microsecond, less than a hand-off to a thread.
        """
        router = self._router
        prefixes = [tuple(prefix) for prefix in prefixes]
        positions: Dict[int, List[int]] = {}
        fanned: List[int] = []
        for position, prefix in enumerate(prefixes):
            owner = self._owner(prefix)
            if owner is None:
                fanned.append(position)
            else:
                positions.setdefault(owner, []).append(position)
        if fanned:
            for index in range(router.shard_count):
                positions.setdefault(index, []).extend(fanned)
        router._refuse_down(positions)
        router._m_single.inc(len(prefixes) - len(fanned))
        router._m_scatter.inc(len(fanned))
        ts_of = self.schema.ts_of
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
        shard, so no group is double counted.  A key range that fixes
        the first key column skips the fan-out, as a query's does.
        """
        router = self._router
        pinned = self._owner(fixed_first(spec.key_range))
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
        owner = self._owner(prefix)
        if owner is not None:
            return self._router._run(
                owner, lambda db: db.table(self.name).bulk_delete(prefix))
        return sum(self._router._fanout_write(
            lambda db: db.table(self.name).bulk_delete(prefix)))

    def append_column(self, column: Any) -> None:
        self._router._fanout_write(
            lambda db: db.table(self.name).append_column(column))

    def widen_column(self, name: str) -> None:
        self._router._fanout_write(
            lambda db: db.table(self.name).widen_column(name))

    def set_ttl(self, ttl_micros: Optional[int]) -> None:
        self._router._fanout_write(
            lambda db: db.table(self.name).set_ttl(ttl_micros))

    def stats_summary(self) -> Dict[str, Any]:
        """Shard-merged shape summary: counts sum, the worst period is
        the worst shard's, tier counts merge tier by tier, and the two
        ratios are those of the shards' summed counters.  The rest -
        name, TTL, schema version, tier - is shard 0's."""
        shards = self._router._fanout_table(
            self.name, lambda t: (t.stats_summary(), t.counters))
        summaries = [summary for summary, _counters in shards]
        merged: Dict[str, Any] = dict(summaries[0])
        for field, value in summaries[0].items():
            if type(value) is int and field not in ("ttl_micros",
                                                    "schema_version"):
                merged[field] = sum(summary[field] for summary in summaries)
        merged["max_tablets_per_period"] = max(
            summary["max_tablets_per_period"] for summary in summaries)
        tiers: Dict[str, int] = {}
        for summary in summaries:
            for tier, count in summary["tablets_by_tier"].items():
                tiers[tier] = tiers.get(tier, 0) + count
        merged["tablets_by_tier"] = tiers
        merged.update(summary_ratios(
            [counters for _summary, counters in shards]))
        merged["shards"] = len(summaries)
        return merged


class ShardRouter:
    """N engine workers behind one database facade.

    Duck-types the :class:`~repro.core.database.LittleTable` facade
    (catalog and DDL, maintenance, health, lifecycle), so the network
    dispatcher, the SQL session, and ``repro.connect()`` callers
    cannot tell one engine from many.  Rows go through
    :meth:`table`'s :class:`ShardedTable`, as they go through
    ``LittleTable.table``'s ``Table``.
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
        manifest root, one subtree per shard; :func:`open_layout`
        checks or writes the manifest first).  Pass ``engines`` to
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
            if data_dir is not None:
                open_layout(data_dir, shards)
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

    def _route_row(self, first: int, by_time: bool,
                   row: Sequence[Any]) -> int:
        """The shard a positional row belongs to, from its first key
        column (position ``first``).  The row is not yet validated: one
        too short to hold its key, or whose key value no column holds,
        still goes to *a* worker, which refuses it.  A bare ``ts`` that
        is no integer routes by ``now``, the stamp a worker gives a
        missing one."""
        try:
            return shard_of(row[first], len(self.engines), by_time)
        except IndexError:
            return 0
        except TypeError:
            if by_time:
                return shard_of(self.clock.now(), len(self.engines), True)
            return 0

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

    def _refuse_read_only(self, indexes: Iterable[int]) -> None:
        """Refuse a write that needs a read-only shard, before it runs
        anywhere: each shard's own table door would refuse only its
        part, leaving the rest of a fanned write applied."""
        for index in sorted(indexes):
            if index not in self._down:
                self.engines[index].check_writable()

    def _fanout_write(self, fn: Callable[[LittleTable], Any]) -> List[Any]:
        """:meth:`_fanout` for a write: refused up front when any shard
        is read-only or down."""
        self._refuse_read_only(range(len(self.engines)))
        return self._fanout(fn)

    def _first_live_engine(self) -> LittleTable:
        """Any live shard answers for the catalog, which DDL keeps
        the same on every shard."""
        for index, engine in enumerate(self.engines):
            if index not in self._down:
                return engine
        raise ShardDegradedError("all shards are down")

    # ---------------------------------------------------------- catalog

    def table_names(self) -> List[str]:
        return self._first_live_engine().table_names()

    def has_table(self, name: str) -> bool:
        return self._first_live_engine().has_table(name)

    def table(self, name: str) -> ShardedTable:
        # NoSuchTableError when absent
        return ShardedTable(self, name,
                            self._first_live_engine().table(name).schema)

    def create_table(self, name: str, schema: Schema,
                     ttl_micros: Optional[int] = None,
                     durability=None) -> ShardedTable:
        """DDL fans out to every worker (the catalog is replicated;
        only row data is partitioned).  A ``durability`` policy fans
        out with it: each worker keeps its own per-shard WAL for the
        table."""
        self._fanout_write(lambda db: db.create_table(
            name, schema, ttl_micros=ttl_micros, durability=durability))
        return ShardedTable(self, name, schema)

    def drop_table(self, name: str) -> None:
        self._fanout_write(lambda db: db.drop_table(name))

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
        """True when *every* live worker is read-only.  A single
        degraded disk degrades the writes that need its shard: the
        router refuses those (:meth:`_refuse_read_only`), not every
        write."""
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
        """One health view across all workers: the merged engine
        summary plus shard topology and degradation."""
        live = self._live_indexes()
        base: Dict[str, Any]
        if live:
            base = self.engines[live[0]].health()
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
