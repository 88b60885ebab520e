"""The LittleTable database: a catalog of tables over one disk.

This is the server-side object: it owns the simulated disk, creates
and drops tables, runs maintenance (flushing, merging, TTL reclaim),
and implements crash/recovery semantics.  The network server
(:mod:`repro.net.server`) exposes it over TCP; in-process users (tests,
benchmarks, the Dashboard applications) can use it directly.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence

from ..disk.faults import FailpointRegistry, classify_storage_error
from ..disk.storage import Storage
from ..disk.vfs import SimulatedDisk
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..util.clock import Clock, SystemClock
from .config import DEFAULT_CONFIG, EngineConfig
from .descriptor import TableDescriptor
from .durability import DurabilityPolicy
from .errors import NoSuchTableError, ReadOnlyModeError, TableExistsError
from .maintenance import (MaintenancePolicy, MaintenanceReport,
                          TableMaintenanceReport)
from .readcache import ReadCache
from .recovery import ScrubReport, startup_scrub
from .row import Query, QueryResult
from .schema import Schema
from .table import Table

# Environment hook for the failpoint framework: arms the disk with a
# registry parsed from e.g. "flush.before_descriptor=crash*1" without
# touching any code (see repro.disk.faults.FailpointRegistry.from_env).
FAILPOINTS_ENV = "LITTLETABLE_FAILPOINTS"

# Consecutive storage-layer I/O errors (EIO) before the engine
# degrades to read-only; a single ENOSPC degrades immediately.
EIO_READ_ONLY_THRESHOLD = 3


class LittleTable:
    """A single-node LittleTable instance.

    >>> from repro.core import Column, ColumnType, Schema
    >>> db = LittleTable()
    >>> schema = Schema(
    ...     [Column("network", ColumnType.INT64),
    ...      Column("device", ColumnType.INT64),
    ...      Column("ts", ColumnType.TIMESTAMP),
    ...      Column("bytes", ColumnType.INT64)],
    ...     key=["network", "device", "ts"])
    >>> table = db.create_table("usage", schema)
    """

    def __init__(self, disk: Optional[SimulatedDisk] = None,
                 config: Optional[EngineConfig] = None,
                 clock: Optional[Clock] = None,
                 cold_disk: Optional[SimulatedDisk] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 maintenance_policy: Optional[MaintenancePolicy] = None,
                 durability: Optional[DurabilityPolicy] = None):
        self.disk = disk if disk is not None else SimulatedDisk()
        # Optional write-once archive tier for old tablets (§6's
        # LHAM-style extension); see Table.migrate_to_cold.
        self.cold_disk = cold_disk
        self.config = config if config is not None else EngineConfig()
        # Database-default durability policy; per-table overrides come
        # from create_table / the persisted descriptor.
        self.durability = (durability if durability is not None
                           else DurabilityPolicy())
        self.durability.validate()
        self.config.validate()
        # Set by a warm standby's Follower (repro.net.replica) so lag
        # shows up in wal_status()/health_summary(); None on a primary.
        self.replication = None
        self.clock = clock if clock is not None else SystemClock()
        # One registry/tracer for the whole instance: tables, tablet
        # readers, the disks, and the network server all record here,
        # and ``db.metrics.snapshot()`` is the single source of truth
        # that the STATS command, the CLI, and the dashboard render.
        # Pass ``metrics=NULL_REGISTRY`` to disable collection.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.disk.attach_metrics(self.metrics)
        if self.cold_disk is not None:
            self.cold_disk.attach_metrics(self.metrics)
        # One engine-wide read cache (decoded blocks):
        # the byte budget is shared across all tables, like an OS page
        # cache.  ``config.read_cache_bytes = 0`` disables it.
        self.read_cache = ReadCache(self.config.read_cache_bytes,
                                    metrics=self.metrics)
        # How background maintenance behaves (tick interval, workers,
        # insert backpressure, merge budget).  Every pass reads it
        # afresh, so a newly assigned policy takes effect live (its
        # thread count at the next start_maintenance()).  The scheduler
        # is lazy: start_maintenance() spins it up, close() stops it.
        self.maintenance_policy = (
            maintenance_policy if maintenance_policy is not None
            else MaintenancePolicy())
        self.maintenance_policy.validate()
        self._scheduler = None
        self._m_maintenance_errors = self.metrics.counter(
            "maintenance.errors")
        self._tables: Dict[str, Table] = {}
        # Read-only degradation state (ISSUE: "the server degrades to
        # read-only on ENOSPC or persistent EIO").  Inserts are
        # rejected with ReadOnlyModeError; queries keep serving.
        self._read_only_reason: Optional[str] = None
        self._io_failure_streak = 0
        self._m_read_only = self.metrics.gauge("fault.read_only")
        self._m_read_only_entries = self.metrics.counter(
            "fault.read_only_entries")
        self._m_read_only_rejections = self.metrics.counter(
            "fault.read_only_rejections")
        # Startup scrub BEFORE the env failpoint hook arms: recovery
        # is the administrative pass cleaning up the last crash, not
        # part of the workload under test.
        if self.config.startup_scrub:
            self.last_scrub = startup_scrub(self.disk, self.metrics)
        else:
            self.last_scrub = ScrubReport()
        if self.disk.failpoints is None:
            spec = os.environ.get(FAILPOINTS_ENV, "")
            if spec:
                self.disk.failpoints = FailpointRegistry.from_env(spec)
        if self.disk.failpoints is not None:
            self.disk.failpoints.attach_metrics(self.metrics)
        self._open_existing_tables()

    @classmethod
    def open(cls, data_dir: Optional[str], **kwargs: Any) -> "LittleTable":
        """Open (or create) a persistent engine over ``data_dir``.

        The canonical way to get a file-backed instance — the CLI, the
        servers, and the shard router all open engines through here.
        ``data_dir=None`` returns an in-memory engine; any
        :class:`LittleTable` constructor keyword passes through, so a
        shard router can hand every worker the same clock, metrics
        registry, and config.
        """
        if data_dir is None:
            return cls(**kwargs)
        from ..disk.storage import FileStorage

        return cls(disk=SimulatedDisk(FileStorage(data_dir)), **kwargs)

    def _open_existing_tables(self) -> None:
        for name in TableDescriptor.list_tables(self.disk):
            self.open_table(TableDescriptor.load(self.disk, name))

    def effective_durability(self, descriptor: TableDescriptor
                             ) -> DurabilityPolicy:
        """The table's persisted policy layered over the database
        default; the persisted tier wins, so WAL-covered tables replay
        even when the engine opens with a plain default policy."""
        return self.durability.merged_with(
            DurabilityPolicy.from_dict(descriptor.durability))

    def open_table(self, descriptor: TableDescriptor,
                   standby: bool = False) -> Table:
        """Build the :class:`Table` for an on-disk descriptor and
        enter it in the catalog, replacing any table of that name.

        The one place a table is wired to its database - shared
        disks, clock, registry, tracer and read cache, the storage
        fault listener, the effective durability - used by startup,
        ``create_table``, ``restore`` and the follower's resync and
        ``promote``.  A WAL table replays its log, which also primes
        LSN bookkeeping past surviving segments.  ``standby`` builds a
        warm standby's copy, which runs WAL-less: streaming is its
        durability while it follows.
        """
        table = Table(self.disk, descriptor, self.config, self.clock,
                      cold_disk=self.cold_disk, metrics=self.metrics,
                      tracer=self.tracer, read_cache=self.read_cache,
                      durability=(None if standby else
                                  self.effective_durability(descriptor)),
                      fault_listener=self._note_storage_failure)
        if table.wal is not None:
            table.replay_wal()
        self._tables[descriptor.name] = table
        return table

    # ----------------------------------------------------------- catalog

    def table_names(self) -> List[str]:
        """Names of all tables, sorted."""
        return sorted(self._tables)

    def tables(self) -> List[Table]:
        """All tables in name order: a snapshot, so a caller on
        another thread may iterate it across creates and drops."""
        return sorted(self._tables.values(), key=lambda table: table.name)

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTableError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def create_table(self, name: str, schema: Schema,
                     ttl_micros: Optional[int] = None,
                     durability: Optional[DurabilityPolicy] = None) -> Table:
        """Create a new, empty table.

        ``durability`` layers over the database default; the effective
        policy's table-level fields persist in the descriptor so the
        table keeps its tier across re-opens.
        """
        if name in self._tables:
            raise TableExistsError(f"table exists: {name!r}")
        if "/" in name or not name:
            raise ValueError(f"bad table name: {name!r}")
        self._check_writable()
        effective = self.durability.merged_with(durability)
        effective.validate()
        descriptor = TableDescriptor(name=name, schema=schema,
                                     ttl_micros=ttl_micros)
        # Every policy field is table-level; a default policy persists
        # nothing, keeping the descriptor byte-identical to
        # pre-durability engines.
        descriptor.durability = effective.to_dict() or None
        descriptor.save(self.disk)
        return self.open_table(descriptor)

    def drop_table(self, name: str) -> None:
        """Drop a table and delete its files.

        §3.5: applications "drop a table and recreate it with a new
        schema ... frequently during new feature development".
        """
        table = self.table(name)
        # The catalog entry goes away before the files.
        del self._tables[name]
        table.drop()

    # -------------------------------------------------------- operations
    #
    # The facade is symmetric: insert/query/latest all take the table
    # name, so callers need not reach through ``db.table(x)`` for the
    # common operations (they still can, for the full Table API).

    def insert(self, table_name: str, rows: Sequence[Dict[str, Any]]) -> int:
        """Insert dict rows into a table."""
        self._check_writable()
        return self.table(table_name).insert(rows)

    def query(self, table_name: str,
              query: Optional[Query] = None) -> QueryResult:
        """Run one query command against a table.

        ``query`` defaults to the unbounded rectangle (all keys, all
        time); the server row limit still applies, exactly as with
        ``Table.query``.
        """
        return self.table(table_name).query(
            query if query is not None else Query())

    def latest(self, table_name: str, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None):
        """Latest row whose key starts with ``prefix`` (§3.4.5)."""
        return self.table(table_name).latest(
            prefix, max_lookback_micros=max_lookback_micros)

    def maintenance(self, stop: Optional[threading.Event] = None
                    ) -> MaintenanceReport:
        """Run one maintenance pass: a tick on every table.

        The one driver of maintenance, inline or (with ``stop``) from
        each :class:`MaintenanceScheduler` thread.  Tables with
        memtables queued for flush go first: those hold up the writer
        (backpressure) and WAL recycling, where merge debt only costs
        read amplification.  One table failing never stops the pass:
        the error lands on its entry and in ``maintenance.errors``.

        A table is ticked by one pass at a time.  An inline pass waits
        its turn; a background one moves on to the next table, leaves
        once ``stop`` is set, and skips a table dropped since it began.
        """
        report = MaintenanceReport()
        streak_before = self._io_failure_streak
        budget = self.maintenance_policy.merge_budget_per_tick
        for table in sorted(
                self.tables(),
                key=lambda table: not table.flush_pending_count):
            if stop is not None and stop.is_set():
                return report
            if self._tables.get(table.name) is not table:
                continue
            if not table.tick_lock.acquire(blocking=stop is None):
                continue
            try:
                report.add(table.maintenance(merge_budget=budget))
            except Exception as exc:  # crash isolation per table
                self._m_maintenance_errors.inc()
                report.add(TableMaintenanceReport(
                    table=table.name,
                    errors=[f"maintenance: {type(exc).__name__}: {exc}"]))
            finally:
                table.tick_lock.release()
        # A full pass with no fresh storage failure breaks the EIO
        # streak: only *consecutive* errors count toward read-only.
        if self._io_failure_streak == streak_before:
            self._io_failure_streak = 0
        return report

    def maintenance_until_quiet(self, max_rounds: int = 1000) -> int:
        """Repeat maintenance until no table has work.  Returns rounds.

        Quiescence is :attr:`MaintenanceReport.is_quiet`, which covers
        *every* work kind - the old hand-rolled check ignored TTL
        expiry (and errors), so a database still reclaiming could be
        declared quiet one round early.
        """
        for round_index in range(max_rounds):
            if self.maintenance().is_quiet:
                return round_index
        return max_rounds

    def start_maintenance(self):
        """Start the background :class:`MaintenanceScheduler` under
        :attr:`maintenance_policy` (idempotent): the one way
        background maintenance starts.  Returns the scheduler."""
        from .scheduler import MaintenanceScheduler

        if self._scheduler is None:
            self._scheduler = MaintenanceScheduler(self)
        self._scheduler.start()
        return self._scheduler

    def stop_maintenance(self) -> None:
        """Stop the background scheduler, if running (idempotent)."""
        if self._scheduler is not None:
            self._scheduler.stop()

    def flush_all(self) -> None:
        """Flush every table's memtables (clean shutdown)."""
        for table in self._tables.values():
            table.flush_all()

    def close(self) -> None:
        """Clean shutdown: stop maintenance, flush everything to disk.

        After ``close()`` every inserted row is durable; the instance
        remains usable (closing is idempotent), matching the paper's
        "clean shutdown flushes all tables" behaviour.
        """
        self.stop_maintenance()
        self.flush_all()
        self.disk.close()   # idle WAL append handles; reopened on use

    def __enter__(self) -> "LittleTable":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------- degraded (read-only) mode

    @property
    def read_only(self) -> bool:
        """True while the engine is degraded to read-only."""
        return self._read_only_reason is not None

    @property
    def read_only_reason(self) -> Optional[str]:
        """Why the engine is read-only, or None when writable."""
        return self._read_only_reason

    def enter_read_only(self, reason: str) -> None:
        """Degrade to read-only: reject writes, keep serving reads.

        Entered automatically on ENOSPC (immediately) or after
        ``EIO_READ_ONLY_THRESHOLD`` consecutive I/O failures; may also
        be called directly (e.g. by an operator before maintenance).
        """
        if self._read_only_reason is None:
            self._m_read_only_entries.inc()
        self._read_only_reason = reason
        self._m_read_only.set(1)

    def exit_read_only(self) -> None:
        """Clear read-only mode after the operator resolves the cause."""
        self._read_only_reason = None
        self._io_failure_streak = 0
        self._m_read_only.set(0)

    def _check_writable(self) -> None:
        if self._read_only_reason is not None:
            self._m_read_only_rejections.inc()
            raise ReadOnlyModeError(
                f"engine is read-only: {self._read_only_reason}")

    def _note_storage_failure(self, exc: BaseException) -> None:
        """Fault listener installed on every table (write-path errors).

        Classifies the failure by errno: disk-full degrades at once
        (retrying cannot help until space is freed); plain I/O errors
        must persist across ``EIO_READ_ONLY_THRESHOLD`` consecutive
        events before degrading, so one transient error doesn't take
        the write path down.
        """
        kind = classify_storage_error(exc)
        if kind == "enospc":
            self.enter_read_only(f"disk full: {exc}")
        elif kind == "eio":
            self._io_failure_streak += 1
            if (self._io_failure_streak >= EIO_READ_ONLY_THRESHOLD
                    and self._read_only_reason is None):
                self.enter_read_only(
                    f"{self._io_failure_streak} consecutive I/O errors;"
                    f" last: {exc}")

    def stats(self) -> Dict[str, Any]:
        """Full metrics snapshot: counters, gauges, histograms.

        Part of the unified facade - ``repro.connect(...)`` returns a
        :class:`~repro.net.remote.RemoteDatabase` whose ``stats()``
        answers with exactly this shape, so monitoring code runs
        unchanged in process and over the wire.
        """
        return self.metrics.snapshot()

    def health(self) -> Dict[str, Any]:
        """Degradation state (alias of :meth:`health_summary`).

        Named for facade parity with the remote adapter's
        ``health()``.
        """
        return self.health_summary()

    def health_summary(self) -> Dict[str, Any]:
        """Degradation state + fault counters, JSON-safe.

        Served through the STATS command so clients and ``ltdb stats``
        can see a degraded server without a separate endpoint.
        """
        counters = self.metrics.snapshot()["counters"]
        wal_segments = 0
        wal_bytes = 0
        buffered = 0
        tiers: Dict[str, str] = {}
        for name in self.table_names():
            table = self._tables[name]
            tiers[name] = table.durability.tier
            if table.wal is not None:
                status = table.wal.status()
                wal_segments += status["segment_count"]
                wal_bytes += status["wal_bytes"]
                buffered += status["buffered_records"]
        durability: Dict[str, Any] = {
            "default_tier": self.durability.tier,
            "tiers": tiers,
            "wal_segments": wal_segments,
            "wal_bytes": wal_bytes,
            "buffered_records": buffered,
            "rows_replayed": counters.get("wal.rows_replayed", 0),
        }
        if self.replication is not None:
            durability["replication"] = self.replication.status()
        return {
            "read_only": self.read_only,
            "read_only_reason": self._read_only_reason,
            "io_failure_streak": self._io_failure_streak,
            "checksum_failures": counters.get(
                "storage.checksum_failures", 0),
            "quarantined_tablets": counters.get(
                "storage.quarantined_tablets", 0),
            "scrub": self.last_scrub.as_dict(),
            "durability": durability,
        }

    def wal_status(self) -> Dict[str, Any]:
        """Per-table WAL state: LSNs, segments, buffered records.

        Part of the unified admin surface - the remote adapter's
        ``wal_status()`` answers with exactly this shape over the
        wire.  Tables on the ``none`` tier report just their tier.
        """
        status: Dict[str, Any] = {
            "default_tier": self.durability.tier,
            "tables": {name: self._tables[name].wal_status()
                       for name in self.table_names()},
        }
        if self.replication is not None:
            status["replication"] = self.replication.status()
        return status

    # ---------------------------------------------- snapshot & restore

    def snapshot(self, dest: str) -> Dict[str, Any]:
        """Capture a consistent point-in-time snapshot into ``dest``.

        O(1) stop-the-world: per table, the COW tablet list and
        descriptor are captured under the table lock; sealed tablets
        are then hard-linked (or byte-copied) off-lock, and unflushed
        memtable rows are written as sidecar tablets, so the snapshot
        is a self-contained, fsck-clean LittleTable data directory.
        Raises :class:`~repro.core.errors.SnapshotError` if ``dest``
        is non-empty; the live database is never modified.
        """
        from .snapshot import create_snapshot

        return create_snapshot(self, dest)

    def restore(self, src: str) -> Dict[str, Any]:
        """Install tables from a snapshot into this (empty) database.

        Raises :class:`~repro.core.errors.SnapshotError` when the
        manifest is missing/corrupt or any table already exists; a
        failed restore installs nothing.
        """
        from .snapshot import restore_into

        return restore_into(self, src)

    # ------------------------------------------------- crash & archival

    def simulate_crash(self) -> "LittleTable":
        """Return the database as it would recover after a crash.

        All in-memory (unflushed) rows are lost; everything persisted
        via atomic descriptor updates survives.  The returned instance
        shares the same disk.  The original instance must no longer be
        used.
        """
        self.stop_maintenance()
        return LittleTable(disk=self.disk, config=self.config,
                           clock=self.clock, cold_disk=self.cold_disk,
                           maintenance_policy=self.maintenance_policy,
                           durability=self.durability)

    def archive_to(self, spare: Storage) -> int:
        """Copy all files to a spare's storage, rsync-style (§3.5).

        Copies files missing from the spare and removes files the
        primary no longer has, repeating until a pass copies nothing -
        the same convergence rule as the paper's "run rsync ... until a
        sync completes without copying any files".  Returns the number
        of files copied.
        """
        copied = 0
        while True:
            pass_copied = 0
            primary_files = set(self.disk.list())
            spare_files = set(spare.list())
            for name in sorted(primary_files):
                data = self.disk.storage.read_all(name)
                if name in spare_files:
                    if spare.read_all(name) == data:
                        continue
                    spare.delete(name)
                spare.write_file(name, data)
                pass_copied += 1
            for name in sorted(spare_files - primary_files):
                spare.delete(name)
            copied += pass_copied
            if pass_copied == 0:
                return copied
