"""Background maintenance: its policy, its reports, its operations.

The paper's background merger (§3.3) runs continuously without
stalling the single writer or the dashboard read path.  This module
holds its API objects:

* :class:`MaintenancePolicy` - one config object for *how* background
  maintenance runs (tick interval, worker count, insert backpressure,
  merge budget).  A database owns one (``db.maintenance_policy``) and
  its ``start_maintenance()`` runs the loop under it.
* :class:`TableMaintenanceReport` / :class:`MaintenanceReport` - typed
  returns for ``Table.maintenance()`` / ``Database.maintenance()``.
  Read the attributes (``report.tables["usage"].flushed``);
  ``.as_dict()`` is the shape that crosses the wire protocol, and
  quiescence is :attr:`MaintenanceReport.is_quiet`, which accounts for
  *every* kind of work, TTL expiry and errors included.

and the operations themselves, the bodies of the like-named
:class:`~repro.core.table.Table` methods.  Flush, merge, TTL expiry,
cold migration and bulk delete share one shape: under the table's
maintenance lock (which serializes them among themselves, never
against inserts or queries) each decides what to do from the current
tablet list, does its I/O against immutable inputs with no state lock
held, and hands :meth:`~repro.core.table.Table._swap_tablets` the
tablets to remove and to add.  The swap is the only step that touches
the published tablet set.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from . import readpath
from .errors import QueryError
from .memtable import MemTable
from .merge import MergePlan, choose_merge, merge_tablets
from .row import KeyRange
from .tablet import TabletMeta

if TYPE_CHECKING:
    from .table import Table


@dataclass
class MaintenancePolicy:
    """How background maintenance runs for one database instance.

    ``tick_interval_s``
        Seconds from the start of one of a worker's passes to the
        start of its next (a pass ticks every table, flush debt
        first; one that outlasts the interval is followed at once).
    ``workers``
        Background threads, each looping over the pass.  Tables are
        independent units of work; two workers never tick the same
        table at once.
    ``max_flush_pending``
        Insert backpressure threshold: when a table has this many
        flush-pending memtables, inserts wait (up to
        ``backpressure_wait_s``) for the flushers to drain before
        appending more.  ``None`` disables backpressure.
    ``backpressure_wait_s``
        Longest a single insert batch may stall on backpressure
        before proceeding anyway (maintenance must never turn the
        writer away permanently; the stall is observable via the
        ``insert.backpressure_stalls`` counter).
    ``merge_budget_per_tick``
        Merges one table may execute per maintenance tick.  The
        paper's merger does one at a time; a larger budget drains
        merge debt faster at the cost of burstier I/O.
    """

    tick_interval_s: float = 1.0
    workers: int = 1
    max_flush_pending: Optional[int] = 8
    backpressure_wait_s: float = 5.0
    merge_budget_per_tick: int = 1

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.max_flush_pending is not None and self.max_flush_pending <= 0:
            raise ValueError(
                "max_flush_pending must be positive (or None to disable)")
        if self.backpressure_wait_s < 0:
            raise ValueError("backpressure_wait_s must be >= 0")
        if self.merge_budget_per_tick < 0:
            raise ValueError("merge_budget_per_tick must be >= 0")


@dataclass
class TableMaintenanceReport:
    """Work one maintenance pass did on one table.

    ``flushed`` counts tablets written by flushes, ``merged`` counts
    merges executed, ``expired`` counts tablets reclaimed by TTL, and
    ``errors`` holds stringified exceptions from work that failed
    (crash isolation: one failing table never stops the loop).
    """

    table: str = ""
    flushed: int = 0
    merged: int = 0
    expired: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def did_work(self) -> bool:
        """True when any work kind ran (errors count: a failing step
        is work the table still owes)."""
        return bool(self.flushed or self.merged or self.expired
                    or self.errors)

    def merge_from(self, other: "TableMaintenanceReport") -> None:
        """Accumulate another pass over the same table."""
        self.flushed += other.flushed
        self.merged += other.merged
        self.expired += other.expired
        self.errors.extend(other.errors)

    def as_dict(self) -> Dict[str, Any]:
        """The wire encoding."""
        return {"flushed": self.flushed, "merged": self.merged,
                "expired": self.expired, "errors": list(self.errors)}


@dataclass
class MaintenanceReport:
    """One maintenance pass over a whole database, per table."""

    tables: Dict[str, TableMaintenanceReport] = field(default_factory=dict)

    @property
    def flushed(self) -> int:
        return sum(r.flushed for r in self.tables.values())

    @property
    def merged(self) -> int:
        return sum(r.merged for r in self.tables.values())

    @property
    def expired(self) -> int:
        return sum(r.expired for r in self.tables.values())

    @property
    def errors(self) -> List[str]:
        out: List[str] = []
        for name in sorted(self.tables):
            out.extend(f"{name}: {message}"
                       for message in self.tables[name].errors)
        return out

    @property
    def is_quiet(self) -> bool:
        """True when *no* work of any kind ran anywhere.

        This is the quiescence test ``maintenance_until_quiet`` uses;
        unlike the old hand-rolled ``flushed == 0 and merged == 0``
        check it also covers TTL expiry and errors, so a database
        still reclaiming (or still failing) is never declared quiet.
        """
        return not any(r.did_work for r in self.tables.values())

    def add(self, report: TableMaintenanceReport) -> None:
        existing = self.tables.get(report.table)
        if existing is None:
            self.tables[report.table] = report
        else:
            existing.merge_from(report)

    def merge_from(self, other: "MaintenanceReport") -> None:
        for report in other.tables.values():
            self.add(report)

    def totals(self) -> TableMaintenanceReport:
        """All tables folded into one line (the CLI renders this)."""
        total = TableMaintenanceReport(table="*")
        for report in self.tables.values():
            total.merge_from(report)
        return total

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """The wire encoding: ``{table: summary}``."""
        return {name: report.as_dict()
                for name, report in self.tables.items()}


# ---------------------------------------------------------------- flush

def flush_group(table: "Table", memtable_id: int) -> List[TabletMeta]:
    """Flush one memtable plus its dependency closure (§3.4.3).

    All resulting on-disk tablets are added to the descriptor in a
    single atomic update, preserving the prefix-durability guarantee.
    Returns the tablets written.

    The write runs *off* the state lock: the group is frozen under a
    brief lock hold, the tablets are built lock-free, and the lock is
    re-acquired only for the O(1) swap and dependency bookkeeping.
    New dependency edges created by concurrent inserts can only point
    *at* group members (a read-only memtable never receives inserts),
    so the closure computed at freeze time stays complete.
    """
    with table._maintenance_lock:
        started = time.perf_counter()
        members = table._freeze_flush_group(memtable_id)
        if not members:
            return []
        written: List[TabletMeta] = []
        now = table.clock.now()
        with table.tracer.span("flush", table=table.name) as span:
            try:
                table.disk.fire("flush.before_write")
                for memtable in members:
                    meta = _write_memtable(table, memtable, now)
                    if meta is not None:
                        written.append(meta)
            except Exception as exc:
                # Leave the group flushable: re-queue it so the next
                # maintenance pass retries (files already written are
                # not in the descriptor - crash-equivalent garbage).
                # A simulated kill (CrashPoint derives from
                # BaseException) bypasses this on purpose.
                table._requeue_flush_group(members)
                table._notify_fault(exc)
                raise
            table._swap_tablets(
                (), written,
                before="flush.before_descriptor",
                after="flush.after_descriptor",
                bookkeeping=lambda: table._retire_flush_group_locked(members))
            # Rows just sealed into tablets no longer need their log
            # records; recycle wholly-covered segments.
            table._advance_wal_low_water()
            rows = sum(meta.row_count for meta in written)
            size = sum(meta.size_bytes for meta in written)
            span.tag(tablets=len(written), rows=rows, bytes=size)
        m = table.metrics
        m.counter("flush.count").inc()
        m.counter("flush.tablets").inc(len(written))
        m.counter("flush.rows").inc(rows)
        m.counter("flush.bytes").inc(size)
        m.histogram("flush.duration_us").observe(
            (time.perf_counter() - started) * 1e6)
        return written


def _write_memtable(table: "Table", memtable: MemTable, now: int
                    ) -> Optional[TabletMeta]:
    if memtable.empty:
        return None
    descriptor = table.descriptor
    tablet_id = descriptor.allocate_tablet_id()
    writer = table._tablet_writer(table.disk, memtable.schema)
    rows, sizes = memtable.sorted_run()
    meta = writer.write(
        descriptor.tablet_filename(tablet_id), rows,
        tablet_id, created_at=now, expected_rows=len(rows), sizes=sizes)
    if meta is not None:
        table.counters.bytes_flushed += meta.size_bytes
        table.counters.flushes += 1
    return meta


# ---------------------------------------------------------------- merge

def merge_once(table: "Table") -> Optional[MergePlan]:
    """Run one merge if the policy finds one (§3.4.1).

    Returns the executed plan, or None.  The merge streams the source
    tablets into a new tablet entirely off the state lock (sources
    are immutable files; :func:`~repro.core.merge.merge_tablets`),
    then the swap publishes it; the source files are reclaimed once
    in-flight readers drain.
    """
    with table._maintenance_lock:
        now = table.clock.now()
        hot_tablets = [t for t in table.descriptor.tablets
                       if t.tier != "cold"]
        plan = choose_merge(hot_tablets, now, table.name, table.config)
        if plan is None:
            return None
        with table.tracer.span("merge", table=table.name,
                               period=plan.period.level.name.lower(),
                               tablets=len(plan.tablets),
                               rows=plan.total_rows):
            started = time.perf_counter()
            table.disk.fire("merge.before_write")
            tablet_id = table.descriptor.allocate_tablet_id()
            try:
                meta, upgraded = merge_tablets(
                    plan, [table._reader(t) for t in plan.tablets],
                    table._tablet_writer(table.disk, table.schema),
                    table.schema,
                    table.descriptor.tablet_filename(tablet_id),
                    tablet_id, now)
            except readpath.CORRUPTION as exc:
                # Isolate the source the executor names, as a guarded
                # read would: the policy chooses this run every tick.
                if getattr(exc, "tablet", None) is not None:
                    table._isolate_corrupt(exc.tablet, exc)
                raise
            if upgraded:
                table._codec.note_upgraded_blocks(upgraded)
            table._swap_tablets(plan.tablets,
                                [meta] if meta is not None else (),
                                before="merge.before_descriptor",
                                after="merge.after_descriptor")
            _count_merge(table, plan, meta, started)
        return plan


def _count_merge(table: "Table", plan: MergePlan,
                 meta: Optional[TabletMeta], started: float) -> None:
    # Per-period rewrite counters make the appendix's O(log T)
    # per-row rewrite bound empirically checkable: rows_rewritten
    # divided by insert.rows bounds the mean rewrite count.
    rows_rewritten = 0
    m = table.metrics
    table.counters.merges += 1
    if meta is not None:
        rows_rewritten = meta.row_count
        table.counters.bytes_merge_written += meta.size_bytes
        table.counters.rows_merge_written += meta.row_count
        m.counter("merge.bytes_written").inc(meta.size_bytes)
    level = plan.period.level.name.lower()
    m.counter("merge.count").inc()
    m.counter("merge.tablets_merged").inc(len(plan.tablets))
    m.counter("merge.rows_rewritten").inc(rows_rewritten)
    m.counter(f"merge.count.{level}").inc()
    m.counter(f"merge.rows_rewritten.{level}").inc(rows_rewritten)
    m.histogram("merge.duration_us").observe(
        (time.perf_counter() - started) * 1e6)


# ------------------------------------------------------------------ TTL

def expire_tablets(table: "Table") -> int:
    """Drop tablets whose rows have all passed the TTL (§3.3).

    Returns the number of tablets reclaimed.
    """
    with table._maintenance_lock:
        ttl = table.descriptor.ttl_micros
        if ttl is None:
            return 0
        cutoff = table.clock.now() - ttl
        expired = [t for t in table.descriptor.tablets if t.max_ts < cutoff]
        if not expired:
            return 0
        expired_rows = sum(t.row_count for t in expired)
        with table.tracer.span("ttl_expire", table=table.name,
                               tablets=len(expired), rows=expired_rows):
            table._swap_tablets(expired, (),
                                before="ttl.before_descriptor",
                                after="ttl.after_descriptor")
        table.metrics.counter("ttl.tablets_expired").inc(len(expired))
        table.metrics.counter("ttl.rows_expired").inc(expired_rows)
        return len(expired)


# ------------------------------------------------------------ cold tier

def migrate_to_cold(table: "Table", before_ts: int) -> int:
    """Move tablets whose data is entirely older than ``before_ts``
    to the cold tier (the §6 LHAM-style extension).

    "LHAM introduced the idea of moving older data in a log-structured
    system to write-once media.  This approach is especially
    attractive for time-series data, where very old values are
    accessed infrequently but remain valuable."

    Each tablet's file is copied to the cold store, a replacement
    ``TabletMeta`` on the cold tier is published in place of the hot
    one, and the hot copy is reclaimed once no in-flight reader can
    still touch it.  Queries keep working transparently (at the cold
    tier's latencies); cold tablets are never merged.  Returns
    tablets migrated.
    """
    with table._maintenance_lock:
        if table.cold_disk is None:
            raise QueryError("no cold store attached to this table")
        migrated = 0
        for meta in table.on_disk_tablets:
            if meta.tier != "hot" or meta.max_ts >= before_ts:
                continue
            data = table.disk.storage.read_all(meta.filename)
            table.cold_disk.write_file(meta.filename, data)
            table._swap_tablets(
                [meta], [dataclasses.replace(meta, tier="cold")],
                before="migrate.before_descriptor")
            migrated += 1
        return migrated


# ---------------------------------------------------------- bulk delete

def bulk_delete(table: "Table", prefix: Sequence[Any]) -> int:
    """Delete every row whose key starts with ``prefix``.

    The bulk-delete feature §7 says Meraki was investigating "to
    simplify compliance with regional privacy laws" - e.g. remove one
    customer's networks entirely.  Memtables holding matching rows
    are flushed first, then each affected tablet is rewritten without
    the matching rows (tablets whose zone map, Bloom filter or key
    index rules the prefix out are untouched).  Returns the number of
    rows deleted.
    """
    prefix = tuple(prefix)
    if not prefix or len(prefix) >= table.schema.key_width:
        raise QueryError(
            "bulk delete takes a non-empty prefix of the key "
            "columns (excluding ts)")
    key_range = KeyRange.prefix(prefix)
    with table._maintenance_lock:
        with table._read_plan() as plan:
            holding = [memtable for memtable in plan.memtables
                       if any(memtable.scan_runs(key_range))]
        for memtable in holding:
            table.flush_memtable(memtable.memtable_id)
        removed = 0
        now = table.clock.now()
        with table._read_plan() as plan:
            for meta in readpath.tablets_holding(
                    plan, key_range, table._bloom_prefix(prefix)):
                removed += _rewrite_tablet_without(table, plan, meta,
                                                   key_range, now)
        return removed


def _rewrite_tablet_without(table: "Table", plan: readpath.ReadPlan,
                            meta: TabletMeta, key_range: KeyRange,
                            now: int) -> int:
    """Rewrite one tablet dropping rows inside ``key_range``.

    The replacement is installed by the swap; the old file is
    reclaimed once in-flight readers drain.  A crash in between
    leaves either version, never both.  Returns rows dropped.
    """
    tablet_id = table.descriptor.allocate_tablet_id()
    writer = table._tablet_writer(table._disk_for(meta), table.schema)
    key_of = table.schema.key_of
    rows = (row for row in plan.tablet_rows(meta)
            if not key_range.contains(key_of(row)))
    new_meta = writer.write(
        table.descriptor.tablet_filename(tablet_id), rows,
        tablet_id, created_at=now, expected_rows=meta.row_count,
    )
    kept = 0
    replacement: List[TabletMeta] = []
    if new_meta is not None:
        kept = new_meta.row_count
        replacement.append(dataclasses.replace(new_meta, tier=meta.tier))
    table._swap_tablets([meta], replacement,
                        before="rewrite.before_descriptor")
    return meta.row_count - kept


# ------------------------------------------------------------- the tick

def run_tick(table: "Table", merge_budget: int) -> TableMaintenanceReport:
    """One background tick: due flushes, budgeted merges, TTL.

    Flushes are due again before every merge: a writer at the
    backpressure limit waits behind one merge, not the whole budget.
    Each work kind is isolated: a failing flush still lets merges and
    TTL reclaim run, with the error recorded on the returned report
    and counted by the ``maintenance.errors`` metric.
    """
    report = TableMaintenanceReport(table=table.name)

    def failed(kind: str, exc: BaseException) -> None:
        report.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        table.metrics.counter("maintenance.errors").inc()
        table._notify_fault(exc)

    def flush_due() -> None:
        try:
            for memtable_id in table.pending_flush_work(table.clock.now()):
                report.flushed += len(table.flush_memtable(memtable_id))
        except Exception as exc:  # crash isolation per work kind
            failed("flush", exc)

    flush_due()
    try:
        for turn in range(max(int(merge_budget), 0)):
            if turn:
                flush_due()
            if table.maybe_merge() is None:
                break
            report.merged += 1
    except Exception as exc:
        failed("merge", exc)
    try:
        report.expired = table.expire_tablets()
    except Exception as exc:
        failed("ttl", exc)
    return report

