"""The table: LittleTable's unit of storage.

A table is "a union of sub-tables, called tablets, of two types"
(§3.2): filling/flush-pending in-memory tablets and immutable on-disk
tablets.  :class:`Table` is the lock-and-swap coordinator over them:
it owns the locks, the memtables and their admit loop, the epoch
bookkeeping that keeps replaced files alive for in-flight readers,
the one method that changes the tablet set
(:meth:`Table._swap_tablets`) and the one that hands a read its
snapshot (:meth:`Table._read_plan`).  What a read does with the
snapshot lives in :mod:`~repro.core.readpath`, the maintenance
operations in :mod:`~repro.core.maintenance`, the merge executor in
:mod:`~repro.core.merge`, the uniqueness check in
:mod:`~repro.core.uniqueness`.

Threading (the non-blocking maintenance engine)
-----------------------------------------------

The paper's background merger runs continuously without stalling the
writer or the dashboard read path (§3.3, §3.4.4).  Lock hierarchy
(acquire downwards, never upwards)::

    _maintenance_lock  ->  lock (state)  ->  _reader_lock

* :attr:`Table._maintenance_lock` serializes the tablet-set mutators
  among themselves: flush, merge, TTL expiry, bulk delete, cold
  migration, and schema changes.  It is held for the *duration* of
  the work, which is why that work must never be done under the state
  lock.
* :attr:`Table.lock` (the state lock) protects the mutable in-memory
  state: the memtable maps, the flush-dependency graph, and the
  descriptor binding.  It is only ever held briefly - an insert
  batch, a snapshot capture, or an O(1) swap.
* :attr:`Table._reader_lock` guards the open-reader map.

The on-disk tablet list is **copy-on-write**: neither
``descriptor.tablets`` nor any :class:`TabletMeta` reachable from it
is mutated after publication; the swap builds a new list and
publishes it with a single assignment under the state lock.  A reader
therefore snapshots ``(generation, tablets, memtables)`` in one brief
lock hold and scans entirely off-lock against immutable state.
Removed tablets' files enter a **deferred-delete queue** tagged with a
read epoch and are reclaimed only once every reader that could have
seen the old tablet list has finished (epoch-based reclamation).

Insert backpressure: while the database's maintenance loop
(:mod:`~repro.core.scheduler`) runs, each pass arms a flush-pending
threshold; an insert batch finding that many memtables awaiting flush
waits on the state lock's condition (bounded by the policy's wait
budget) for the flushers to drain, observable via
``insert.backpressure_stalls``.  Stopping the loop disarms it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import chain
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..disk.storage import StorageError
from ..disk.vfs import SimulatedDisk
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..util.clock import Clock
from . import maintenance as ops
from . import readpath
from .codec import SchemaCodec
from .config import EngineConfig
from .descriptor import TableDescriptor
from .durability import DEFAULT_DURABILITY, DurabilityPolicy
from .errors import (CorruptTabletError, DuplicateKeyError, LittleTableError,
                     QueryError, SchemaError, ValidationError)
from .flushdeps import FlushDependencies
from .memtable import MemTable
from .merge import MergePlan, pending_merge_runs
from .periods import period_for
from .readcache import LatestRowCache, ReadCache, TabletPruneIndex
from .row import KeyRange, Query, QueryResult, QueryStats, TimeRange
from .schema import Column, Schema
from .tablet import TabletMeta, TabletReader, TabletWriter
from .uniqueness import KeyUniqueness
from .vector import AggregatePartials, AggregateSpec, check_key_prefix
from .wal import WalReplayReport, WriteAheadLog, decode_record_rows

# One deferred delete: (epoch it was queued at, the device holding the
# file, the removed tablet, whether the file is quarantined rather
# than deleted).
_Doomed = Tuple[int, SimulatedDisk, TabletMeta, bool]


@dataclass
class TableCounters:
    """Lifetime counters used by benchmarks and production metrics.

    Plain ints: exact under the single-threaded test workloads; under
    concurrent readers they may drift by a few counts (monitoring
    data, not accounting data).
    """

    rows_inserted: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    queries: int = 0
    bytes_flushed: int = 0
    bytes_merge_written: int = 0
    rows_merge_written: int = 0
    merges: int = 0
    flushes: int = 0


class Table:
    """One LittleTable table."""

    def __init__(self, disk: SimulatedDisk, descriptor: TableDescriptor,
                 config: EngineConfig, clock: Clock,
                 cold_disk: Optional[SimulatedDisk] = None,
                 metrics: Optional[MetricsRegistry] = None, tracer=None,
                 read_cache: Optional[ReadCache] = None,
                 durability: Optional[DurabilityPolicy] = None,
                 fault_listener: Optional[
                     Callable[[BaseException], None]] = None):
        self.disk = disk
        self.cold_disk = cold_disk
        self.descriptor = descriptor
        self.config = config
        self.clock = clock
        # Durability tier (durability.py).  ``none`` keeps the paper's
        # prefix durability and never touches a log file; ``wal`` and
        # ``replicated`` attach a per-table write-ahead log whose
        # append-and-fsync gates every insert acknowledgment.
        self.durability = (durability if durability is not None
                           else DEFAULT_DURABILITY)
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(disk, descriptor.name, self.durability,
                          metrics=metrics)
            if self.durability.wal_enabled else None)
        self.last_wal_replay: Optional[WalReplayReport] = None
        self._maintenance_lock = threading.RLock()
        # Held by a database maintenance pass around its tick of this
        # table (LittleTable.maintenance): a background worker that
        # finds it taken moves on to the next table.
        self.tick_lock = threading.Lock()
        self.lock = threading.RLock()
        self._reader_lock = threading.Lock()
        # Inserts wait here when flush-pending memtables pile up past
        # the armed backpressure threshold; flushes notify.
        self._flush_cond = threading.Condition(self.lock)
        self._backpressure_limit: Optional[int] = None
        self._backpressure_wait_s = 5.0
        # WAL-tier schema changes close this gate while they flush and
        # swap: an insert admitted in that window would log a WAL
        # record at the old schema version that replay cannot decode.
        # ``none``-tier tables never set it (paper semantics intact).
        self._ddl_gate = False
        self.counters = TableCounters()
        # Observability: a database passes its shared registry/tracer;
        # a standalone table gets a private registry so the counters
        # are still inspectable.  Hot-path counters are cached here so
        # the insert loop never does a registry lookup.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        m = self.metrics
        self._m_rows_inserted = m.counter("insert.rows")
        self._m_insert_batches = m.counter("insert.batches")
        self._m_queries = m.counter("query.count")
        self._m_rows_scanned = m.counter("query.rows_scanned")
        self._m_rows_returned = m.counter("query.rows_returned")
        self._m_push_queries = m.counter("query.pushdown.queries")
        self._read_metrics = readpath.ReadMetrics(m)
        self._m_generation_bumps = m.counter("readcache.generation")
        self._m_backpressure = m.counter("insert.backpressure_stalls")
        self._h_backpressure_wait = m.histogram("insert.backpressure_wait_us")
        # End-to-end latency per insert batch / query call (the served
        # mode adds server.cmd.*.latency_us on top).
        self._h_insert_latency = m.histogram("insert.latency_us")
        self._h_query_latency = m.histogram("query.latency_us")
        self._h_swap_hold = m.histogram("maintenance.swap_lock_hold_us")
        self._m_deferred = m.counter("maintenance.deferred_deletes")
        self._m_quarantined = m.counter("storage.quarantined_tablets")
        # Receives storage-level exceptions from flush/merge/TTL so
        # the database can flip to read-only on persistent ENOSPC/EIO.
        self._fault_listener = fault_listener
        # The schema-compiled batch codec: validates, sizes, keys, and
        # block-encodes rows without per-value dispatch (core/codec.py).
        self._codec = SchemaCodec(descriptor.schema, self.metrics)
        # Read-path caches: a database passes its shared block cache
        # (one budget across all tables); a standalone table
        # builds a private one from its config.
        self._read_cache = (read_cache if read_cache is not None
                            else ReadCache(config.read_cache_bytes,
                                           metrics=self.metrics))
        self._prune_index = TabletPruneIndex()
        self._latest_cache = LatestRowCache(config.latest_cache_entries,
                                            metrics=self.metrics)
        # Bumped by every mutation that can change a latest() answer;
        # cached entries from older generations are never served.
        self._cache_generation = 0
        # Bumped per admitted batch; latest() skips storing an answer
        # computed from a snapshot that an insert has since overtaken.
        self._insert_seq = 0
        # Filling memtables, one per (period.start, period.level).
        self._filling: Dict[Tuple[int, int], MemTable] = {}
        # All unflushed memtables (filling + read-only awaiting flush).
        self._unflushed: Dict[int, MemTable] = {}
        self._flush_pending: List[int] = []
        self._deps = FlushDependencies()
        self._next_memtable_id = 1
        self._readers: Dict[int, TabletReader] = {}
        # Epoch-based deferred reclamation: _read_epoch advances on
        # every swap that removes tablets; each removal is queued with
        # the pre-swap epoch and its file is reclaimed only once no
        # active reader entered at or before that epoch.
        self._read_epoch = 0
        self._active_reads: Dict[int, int] = {}
        self._pending_deletes: List[_Doomed] = []
        self._uniqueness = KeyUniqueness(config, m, self._reader,
                                         self._bloom_prefix,
                                         descriptor.tablets)

    # ------------------------------------------------------------ basics

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def schema(self) -> Schema:
        return self.descriptor.schema

    @property
    def ttl_micros(self) -> Optional[int]:
        return self.descriptor.ttl_micros

    @property
    def on_disk_tablets(self) -> List[TabletMeta]:
        # The tablet list is copy-on-write: reading the binding once
        # yields an immutable snapshot, no lock needed.
        return list(self.descriptor.tablets)

    @property
    def unflushed_memtable_count(self) -> int:
        return len(self._unflushed)

    @property
    def flush_pending_count(self) -> int:
        return len(self._flush_pending)

    def row_count_estimate(self) -> int:
        """Rows on disk plus rows in memory (expired rows included)."""
        tablets = self.descriptor.tablets
        disk_rows = sum(t.row_count for t in tablets)
        return disk_rows + sum(len(m) for m in list(self._unflushed.values()))

    def stats_summary(self) -> Dict[str, Any]:
        """Operator-facing snapshot of the table's shape and activity.

        Everything an operator needs to recognize the paper's failure
        modes at a glance: tablet counts per period (seek storms,
        §3.4.1), write amplification (merge pathologies), the merge
        backlog in bytes, and the Figure 9 scan ratio.
        """
        now = self.clock.now()
        tablets = self.descriptor.tablets
        per_period: Dict[Tuple[int, int], int] = {}
        tiers: Dict[str, int] = {}
        for meta in tablets:
            period = period_for(meta.min_ts, now,
                                self.config.time_partitioning)
            bin_key = (period.start, int(period.level))
            per_period[bin_key] = per_period.get(bin_key, 0) + 1
            tiers[meta.tier] = tiers.get(meta.tier, 0) + 1
        counters = self.counters
        flushed = counters.bytes_flushed
        amplification = (
            (flushed + counters.bytes_merge_written) / flushed
            if flushed else 1.0
        )
        scanned = counters.rows_scanned
        returned = counters.rows_returned
        return {
            "name": self.name,
            "rows": self.row_count_estimate(),
            "bytes_on_disk": sum(t.size_bytes for t in tablets),
            "tablets": len(tablets),
            "tablets_by_tier": tiers,
            "max_tablets_per_period": max(per_period.values(), default=0),
            "unflushed_memtables": self.unflushed_memtable_count,
            "flush_pending": len(self._flush_pending),
            "deferred_deletes": len(self._pending_deletes),
            "merge_debt_bytes": sum(
                plan.total_bytes for plan in pending_merge_runs(
                    [t for t in tablets if t.tier != "cold"], now,
                    self.name, self.config)),
            "write_amplification": round(amplification, 2),
            "scan_ratio": round(scanned / returned, 2) if returned else None,
            "ttl_micros": self.descriptor.ttl_micros,
            "schema_version": self.schema.version,
            "durability_tier": self.durability.tier,
            "cache_generation": self._cache_generation,
            "latest_cache_entries": len(self._latest_cache),
        }

    def evict_reader_cache(self) -> None:
        """Drop in-memory read state, as a server restart would (§3.5:
        footers are reloaded "into memory on demand after a restart").
        Benchmarks call this to measure cold-cache behaviour; the
        table's cached blocks and the latest-row cache go with it,
        since none would survive a real restart."""
        with self.lock:
            self._uniqueness.forget()
            self._latest_cache.clear()
            with self._reader_lock:
                uids = [r.cache_uid for r in self._readers.values()]
                self._readers.clear()
        self._read_cache.invalidate_tablets(uids)

    def _disk_for(self, meta: TabletMeta) -> SimulatedDisk:
        """The device holding a tablet's file (hot disk or cold tier)."""
        if meta.tier == "cold":
            if self.cold_disk is None:
                raise CorruptTabletError(
                    f"tablet {meta.filename!r} is on the cold tier but no "
                    f"cold store is attached")
            return self.cold_disk
        return self.disk

    def _drop_reader_state(self, tablet_id: int) -> None:
        with self._reader_lock:
            reader = self._readers.pop(tablet_id, None)
        if reader is not None:
            self._read_cache.invalidate_tablet(reader.cache_uid)

    def _reader(self, meta: TabletMeta) -> TabletReader:
        with self._reader_lock:
            reader = self._readers.get(meta.tablet_id)
            if reader is None:
                # A replacement tablet (merge, rewrite) gets a new
                # reader, so a fresh uid: old cache entries can never
                # alias it.
                reader = TabletReader(self._disk_for(meta), meta.filename,
                                      metrics=self.metrics,
                                      cache=self._read_cache)
                self._readers[meta.tablet_id] = reader
        return reader

    def _bump_cache_generation(self) -> None:
        """Orphan all latest-row cache entries after a mutation."""
        self._cache_generation += 1
        self._m_generation_bumps.inc()

    def _bloom_prefix(self, values: Sequence[Any]) -> Optional[List[bytes]]:
        """Key-prefix columns encoded for a Bloom probe, or None when
        there is nothing to probe with (§3.4.5)."""
        if not values or not self.config.bloom_filters:
            return None
        return self._codec.encode_key_prefix(values)

    # ------------------------------------- read plan & epoch reclamation

    def _read_plan(self) -> readpath.ReadPlan:
        """Enter a read (``with table._read_plan() as plan``): pin the
        epoch and snapshot the sources in one state-lock hold, so no
        swap can land between the two and every file the plan lists
        stays on disk until the block ends.  The only way a read
        obtains tablets or memtables."""
        with self.lock:
            epoch = self._read_epoch
            self._active_reads[epoch] = self._active_reads.get(epoch, 0) + 1
            descriptor = self.descriptor
            return readpath.ReadPlan(
                descriptor.schema, descriptor.ttl_micros,
                descriptor.generation, descriptor.tablets,
                [m for m in self._unflushed.values() if not m.empty],
                self._reader, self._cache_generation, self._insert_seq,
                self._isolate_corrupt, self._prune_index,
                self._read_metrics, epoch, self._end_read)

    def _end_read(self, epoch: int) -> None:
        """Leave a read; reclaims deferred deletes it was pinning."""
        with self.lock:
            count = self._active_reads[epoch] - 1
            if count:
                self._active_reads[epoch] = count
            else:
                del self._active_reads[epoch]
            reapable = self._claim_reapable_locked()
        self._dispose(reapable)

    def _claim_reapable_locked(self) -> List[_Doomed]:
        """Deferred deletes no active reader can still see."""
        if not self._pending_deletes:
            return []
        floor = min(self._active_reads) if self._active_reads else None
        if floor is None:
            ready = self._pending_deletes
            self._pending_deletes = []
            return ready
        ready = [item for item in self._pending_deletes if item[0] < floor]
        if ready:
            self._pending_deletes = [
                item for item in self._pending_deletes if item[0] >= floor]
        return ready

    def _dispose(self, items: Sequence[_Doomed]) -> None:
        """Reclaim removed tablets' files and drop their reader/cache
        state.  A quarantined file moves into ``quarantine/`` on the
        same device - never deleted, so an operator can inspect or
        recover it.  Runs without the state lock (this is I/O)."""
        for _epoch, disk, meta, quarantined in items:
            if not quarantined:
                if disk.exists(meta.filename):
                    disk.delete(meta.filename)
            else:
                destination = f"quarantine/{meta.filename}"
                try:
                    if disk.exists(meta.filename):
                        if disk.exists(destination):
                            disk.delete(destination)
                        disk.rename(meta.filename, destination)
                except StorageError:
                    pass  # quarantining must not fail the caller further
            self._drop_reader_state(meta.tablet_id)

    # ---------------------------------------------------------- the swap

    def _swap_tablets(self, remove: Iterable[TabletMeta],
                      add: Sequence[TabletMeta],
                      before: Optional[str] = None,
                      after: Optional[str] = None,
                      quarantine: bool = False, save: bool = True,
                      bookkeeping: Optional[Callable[[], None]] = None
                      ) -> List[TabletMeta]:
        """Publish a new tablet list: the one place the set changes
        (§3.2: "after every change").

        Under one state-lock hold the copy-on-write list (current
        minus ``remove`` plus ``add``) is bound and the descriptor
        saved between the ``before``/``after`` failpoints.  If
        anything was removed the read epoch advances, the removed
        files queue behind it (deleted later, or moved aside when
        ``quarantine``) and the latest-row cache generation is bumped;
        a pure addition (flush) changes no existing answer and leaves
        that cache warm.  ``bookkeeping`` is caller state that must
        change atomically with the publication; ``save=False`` is
        for drop, whose descriptor is about to be deleted.  Returns the
        tablets actually removed (a concurrent quarantine may have
        taken one).
        """
        remove_ids = {t.tablet_id for t in remove}
        started = time.perf_counter()
        with self.lock:
            current = self.descriptor.tablets
            # Resolved before anything changes: a cold tablet without
            # a cold store raises here, not half way through.
            doomed = [(self._disk_for(t), t) for t in current
                      if t.tablet_id in remove_ids]
            if doomed or add:
                if before is not None:
                    self.disk.fire(before)
                self.descriptor.tablets = [
                    t for t in current if t.tablet_id not in remove_ids
                ] + list(add)
                if save:
                    self.descriptor.save(self.disk)
                if after is not None:
                    self.disk.fire(after)
            if doomed:
                # Readers entering from now on cannot reference the
                # removed tablets.
                epoch = self._read_epoch
                self._read_epoch = epoch + 1
                self._pending_deletes.extend(
                    (epoch, disk, meta, quarantine) for disk, meta in doomed)
                self._m_deferred.inc(len(doomed))
                self._bump_cache_generation()
            if bookkeeping is not None:
                bookkeeping()
            reapable = self._claim_reapable_locked()
        self._dispose(reapable)
        self._h_swap_hold.observe((time.perf_counter() - started) * 1e6)
        return [meta for _disk, meta in doomed]

    def quarantine_tablet(self, meta: TabletMeta, reason: str) -> bool:
        """Pull a corrupt tablet out of the live set.

        The swap drops it from the descriptor and its file moves into
        ``quarantine/`` once no in-flight reader still holds it.
        Returns False if the tablet was already gone (a concurrent
        merge or quarantine got there first).
        """
        if not self._swap_tablets([meta], (), quarantine=True):
            return False
        self._m_quarantined.inc()
        with self.tracer.span("quarantine", table=self.name,
                              tablet=meta.tablet_id, reason=reason):
            pass
        return True

    def _isolate_corrupt(self, meta: TabletMeta, exc: BaseException) -> None:
        """The read plan's corruption hook (readpath.ReadPlan.corrupt)."""
        if self.config.quarantine_on_corruption:
            self.quarantine_tablet(meta, f"{type(exc).__name__}: {exc}")

    def drop(self) -> None:
        """Delete the table's files (DROP TABLE, §3.5).  Nothing is
        written, so a table can be dropped to free a full disk; files
        go at once, pinned or not, because a new table may reuse the
        name immediately.  A crash part way is the startup scrub's to
        clean up."""
        with self._maintenance_lock:
            self._swap_tablets(self.descriptor.tablets, (), save=False)
            with self.lock:
                doomed, self._pending_deletes = self._pending_deletes, []
            self._dispose(doomed)
            if self.wal is not None:
                self.wal.delete_files()
            if self.disk.exists(self.descriptor.path()):
                self.disk.delete(self.descriptor.path())

    # ----------------------------------------------------------- inserts

    def insert(self, rows: Sequence[Dict[str, Any]]) -> int:
        """Insert a batch of rows given as column->value dicts.

        Missing ``ts`` values take the current time (§3.1).  Raises
        :class:`DuplicateKeyError` if any row's primary key already
        exists; rows earlier in the batch stay inserted (inserts are
        not transactional, §2.3.4).  Returns the number inserted.
        """
        now = self.clock.now()
        positional = self.schema.positional_from_dict
        return self.insert_tuples([positional(row, now) for row in rows])

    def insert_tuples(self, rows: Sequence[Tuple[Any, ...]]) -> int:
        """Insert positional row tuples (fast path); validates them
        and takes the table's state lock itself."""
        batch_started = time.perf_counter()
        wal = self.wal
        commit_lsn: Optional[int] = None
        error: Optional[LittleTableError] = None
        inserted = 0
        with self.lock:
            while self._ddl_gate:
                # A WAL-tier schema change is flushing + swapping; wait
                # so this batch logs at the post-swap schema version.
                self._flush_cond.wait(0.1)
            self._wait_for_flush_capacity_locked()
            # WAL tier: collect accepted rows so the whole batch
            # encodes in one compiled pass and logs as one record
            # before acknowledgment.
            accepted: Optional[List[Tuple[Any, ...]]] = (
                [] if wal is not None else None)
            touched: List[MemTable] = []
            try:
                inserted = self._admit_locked(rows, self.clock.now(),
                                              touched, accepted)
            except (DuplicateKeyError, ValidationError) as exc:
                # Inserts are not transactional (§2.3.4): rows earlier
                # in the batch stay inserted, so on the WAL tier they
                # must also stay *logged* before the error surfaces.
                if wal is None:
                    raise
                error = exc
            if accepted:
                commit_lsn = wal.log_batch_block(
                    self._codec.ops.encode_rows(accepted),
                    len(accepted), self.schema.version)
                for memtable in touched:
                    memtable.note_wal_lsn(commit_lsn)
            if error is None:
                self.counters.rows_inserted += inserted
                self._m_rows_inserted.inc(inserted)
                self._m_insert_batches.inc()
        # The durable append runs off the state lock: group commit
        # batches concurrent inserts into one fsync, and acknowledgment
        # (returning) is what implies durability on the WAL tier.
        if commit_lsn is not None:
            wal.commit(commit_lsn)
        # Observed whether or not a duplicate surfaced: the batch still
        # traversed the full path (backpressure stall included).
        self._h_insert_latency.observe(
            (time.perf_counter() - batch_started) * 1e6)
        if error is not None:
            raise error
        return inserted

    def _admit_locked(self, rows: Iterable[Tuple[Any, ...]], now: int,
                      touched: List[MemTable],
                      accepted: Optional[List[Tuple[Any, ...]]] = None,
                      skip_duplicates: bool = False) -> int:
        """Admit rows to their memtables: the one loop behind
        ``insert``, ``insert_tuples``, WAL replay and standby apply.

        A duplicate key raises, or with ``skip_duplicates`` (replay:
        the row is already in a tablet or a memtable) is passed over.
        Memtables that received rows are appended to ``touched`` and
        admitted rows to ``accepted`` (when given), so the caller can
        tie them to a WAL record even if the loop stops early.  A row
        is in its memtable's hash index and unsorted tail as soon as
        it is admitted, so uniqueness, ``size_bytes`` and the
        flush-size retirement see every earlier row of the batch;
        however the loop ends, each touched memtable is sealed (the
        tail becomes a sorted run) before the state lock is let go.
        Caller holds the state lock.  Returns rows admitted.
        """
        codec = self._codec
        validate = codec.validate_and_size
        key_of = codec.key_of
        ts_index = self.schema.ts_index
        flush_limit = self.config.flush_size_bytes
        record_insert = self._deps.record_insert
        invalidate_key = self._latest_cache.invalidate_key
        uniqueness = self._uniqueness
        is_unique = uniqueness.is_unique
        memtables = self._unflushed.values()
        descriptor = self.descriptor
        max_ts_ever = uniqueness.max_ts_ever
        inserted = 0
        # The filling memtable and its period window are carried
        # across rows: period windows partition the timestamp axis
        # for a fixed ``now`` (periods.py aligns every boundary), so
        # ``cur_lo <= ts < cur_hi`` proves the row bins into the
        # same memtable without re-deriving the period.
        cur_mt: Optional[MemTable] = None
        cur_lo = cur_hi = 0
        # Bumped up front: a batch refused part way has still admitted
        # rows a racing latest() must not cache over.
        self._insert_seq += 1
        try:
            for row in rows:
                # One pass: the compiled codec validates, coerces, and
                # returns the row's on-disk encoded size.
                row, size = validate(row)
                ts = row[ts_index]
                key = key_of(row)
                if not is_unique(key, ts, now, memtables, descriptor):
                    if skip_duplicates:
                        continue
                    raise self._duplicate_key(key)
                if cur_mt is None or ts < cur_lo or ts >= cur_hi:
                    cur_mt = self._memtable_for(ts, now)
                    cur_lo = cur_mt.period.start
                    cur_hi = cur_mt.period.end
                    record_insert(cur_mt.memtable_id)
                    touched.append(cur_mt)
                if not cur_mt.insert_sized(key, row, size, now):
                    if skip_duplicates:
                        continue
                    raise self._duplicate_key(key)
                if accepted is not None:
                    accepted.append(row)
                invalidate_key(key)
                if max_ts_ever is None or ts > max_ts_ever:
                    # Written through immediately: the uniqueness
                    # check's fast path 1 reads it for the *next* row.
                    max_ts_ever = ts
                    uniqueness.max_ts_ever = ts
                inserted += 1
                if cur_mt.size_bytes >= flush_limit:
                    self._retire_memtable(cur_mt)
                    cur_mt = None
        finally:
            for memtable in touched:
                memtable.seal()
        return inserted

    def _duplicate_key(self, key: Tuple[Any, ...]) -> DuplicateKeyError:
        return DuplicateKeyError(
            f"duplicate primary key {key!r} in table {self.name!r}")

    def set_flush_backpressure(self, limit: Optional[int],
                               wait_s: float = 5.0) -> None:
        """Arm (or with ``limit=None`` disarm) insert backpressure.

        The :class:`~repro.core.scheduler.MaintenanceScheduler` arms
        this from the database's policy before every pass and disarms
        it on stop.
        """
        with self.lock:
            self._backpressure_limit = limit
            self._backpressure_wait_s = wait_s
            self._flush_cond.notify_all()

    def _wait_for_flush_capacity_locked(self) -> None:
        """Stall an insert batch while flush-pending memtables exceed
        the armed threshold.  Bounded: maintenance must never turn the
        writer away permanently, so after the wait budget the insert
        proceeds regardless (the stall is the observable signal)."""
        limit = self._backpressure_limit
        if limit is None or len(self._flush_pending) < limit:
            return
        self._m_backpressure.inc()
        stalled = time.perf_counter()
        deadline = time.monotonic() + self._backpressure_wait_s
        while (self._backpressure_limit is not None
               and len(self._flush_pending) >= self._backpressure_limit):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._flush_cond.wait(remaining)
        self._h_backpressure_wait.observe(
            (time.perf_counter() - stalled) * 1e6)

    def _memtable_for(self, ts: int, now: int) -> MemTable:
        """The filling memtable for the row's time period (§3.4.3)."""
        period = period_for(ts, now, self.config.time_partitioning)
        bin_key = (period.start, int(period.level))
        memtable = self._filling.get(bin_key)
        if memtable is None:
            memtable = MemTable(self._next_memtable_id, self.schema, period)
            self._next_memtable_id += 1
            self._filling[bin_key] = memtable
            self._unflushed[memtable.memtable_id] = memtable
        return memtable

    def _freeze_locked(self, memtable: MemTable) -> None:
        """Mark a memtable read-only and take it out of the filling
        map, so the next row of its period opens a fresh one (§3.2)."""
        memtable.mark_read_only()
        bin_key = (memtable.period.start, int(memtable.period.level))
        if self._filling.get(bin_key) is memtable:
            del self._filling[bin_key]

    def _retire_memtable(self, memtable: MemTable) -> None:
        """Freeze a filling memtable and queue it for flush."""
        if memtable.read_only:
            return
        self._freeze_locked(memtable)
        self._flush_pending.append(memtable.memtable_id)

    # ------------------------------------------------------------ flush

    def flush_memtable(self, memtable_id: int) -> List[TabletMeta]:
        """Flush one memtable plus its dependency closure (§3.4.3) in
        one atomic descriptor update; returns the tablets written."""
        return ops.flush_group(self, memtable_id)

    def _freeze_flush_group(self, memtable_id: int) -> List[MemTable]:
        """Freeze a memtable and its dependency closure for flushing."""
        with self.lock:
            members = [self._unflushed[mid]
                       for mid in self._deps.flush_group(memtable_id)
                       if mid in self._unflushed]
            for memtable in members:
                self._freeze_locked(memtable)
        return members

    def _requeue_flush_group(self, members: Sequence[MemTable]) -> None:
        """A flush failed before its swap: keep the group flushable."""
        with self.lock:
            for memtable in members:
                mid = memtable.memtable_id
                if mid in self._unflushed and mid not in self._flush_pending:
                    self._flush_pending.append(mid)

    def _retire_flush_group_locked(self, members: Sequence[MemTable]
                                   ) -> None:
        """The flush swap's bookkeeping: the group's rows are now in
        published tablets, so its memtables leave the read set in the
        same lock hold."""
        group = [memtable.memtable_id for memtable in members]
        for mid in group:
            self._unflushed.pop(mid, None)
            if mid in self._flush_pending:
                self._flush_pending.remove(mid)
        self._deps.mark_flushed(group)
        self._flush_cond.notify_all()

    def _tablet_writer(self, disk: SimulatedDisk,
                       schema: Schema) -> TabletWriter:
        """The one place that turns :class:`EngineConfig` into tablet
        writer settings; callers choose only where the file goes and
        the schema its rows have."""
        config = self.config
        return TabletWriter(
            disk, schema, config.block_size_bytes, config.compression,
            config.bloom_bits_per_row if config.bloom_filters else 0,
            metrics=self.metrics, checksums=config.checksums)

    def _advance_wal_low_water(self) -> None:
        """Recycle WAL segments wholly covered by sealed tablets.

        Every record below the low-water mark has all its rows in
        tablets: it is the lowest LSN an unflushed memtable still
        depends on, or everything logged so far when none does (the
        state lock also serializes LSN assignment).
        """
        if self.wal is None:
            return
        with self.lock:
            mins = [m.min_wal_lsn for m in self._unflushed.values()
                    if m.min_wal_lsn is not None]
            low_water = min(mins) if mins else self.wal.next_lsn
        self.wal.advance_low_water(low_water)

    # -------------------------------------------------------- WAL replay

    def replay_wal(self) -> WalReplayReport:
        """Recover logged-but-unflushed rows at open (durability tiers).

        Reads every surviving segment through the raw storage backend
        (armed failpoints stay untouched), re-inserts rows the crash
        caught memtable-resident, and skips rows already durable in a
        tablet - a crash between the flush's descriptor swap and the
        segment recycling replays rows that are already on disk, and
        the uniqueness check drops them silently.  Replayed rows are
        *not* re-logged (their records still exist); their memtables
        carry the original LSNs, so the next flush advances the
        low-water mark past them and recycles the old segments.
        """
        assert self.wal is not None, "replay_wal on a none-tier table"
        records, report = self.wal.recover()
        self.apply_wal_records(records, report)
        self.metrics.counter("wal.rows_replayed").inc(report.rows_applied)
        self.last_wal_replay = report
        return report

    def apply_wal_records(self, records,
                          report: Optional[WalReplayReport] = None
                          ) -> WalReplayReport:
        """Insert decoded WAL records' rows, skipping duplicates.

        The application half of :meth:`replay_wal`, also fed by a warm
        standby with records streamed off a primary's log
        (:mod:`repro.net.replica`).  Rows already durable in a tablet
        or present in a memtable are skipped silently - streaming and
        replay may both overlap what an earlier pass applied.
        """
        if report is None:
            report = WalReplayReport(records=len(records))
        with self.lock:
            now = self.clock.now()
            for record in records:
                if record.schema_version != self.schema.version:
                    report.issues.append(
                        f"record lsn={record.lsn}: schema version "
                        f"{record.schema_version} != current "
                        f"{self.schema.version}; rows skipped")
                    report.rows_skipped += record.row_count
                    continue
                rows = decode_record_rows(record, self._codec, report)
                touched: List[MemTable] = []
                applied = self._admit_locked(rows, now, touched,
                                             skip_duplicates=True)
                if self.wal is not None:
                    for memtable in touched:
                        memtable.note_wal_lsn(record.lsn)
                report.rows_applied += applied
                report.rows_skipped += len(rows) - applied
        return report

    def wal_status(self) -> Dict[str, Any]:
        """This table's durability status (``wal_status`` command)."""
        if self.wal is None:
            return {"tier": self.durability.tier}
        status = self.wal.status()
        replay = self.last_wal_replay
        if replay is not None:
            status["last_replay"] = replay.as_dict()
        return status

    def flush_all(self) -> List[TabletMeta]:
        """Flush every unflushed memtable (used by shutdown and tests)."""
        return self._flush_each(lambda memtable: True)

    def flush_before(self, ts: int) -> List[TabletMeta]:
        """Flush every memtable holding rows with timestamps < ``ts``.

        This is the command §4.1.2 proposes so that aggregators need
        not "simply assume that data written more than 20 minutes in
        the past has reached disk": after ``flush_before(t)`` returns,
        every row with a timestamp before ``t`` that the table holds
        is durable (its dependency closure flushes with it, so the
        prefix-durability guarantee is unaffected).
        """
        return self._flush_each(
            lambda memtable: not memtable.empty and memtable.min_ts < ts)

    def _flush_each(self, wanted: Callable[[MemTable], bool]
                    ) -> List[TabletMeta]:
        written: List[TabletMeta] = []
        while True:
            with self.lock:
                target = next((m for m in self._unflushed.values()
                               if wanted(m)), None)
            if target is None:
                return written
            written.extend(self.flush_memtable(target.memtable_id))

    def pending_flush_work(self, now: int) -> List[int]:
        """Memtable ids due for flushing: queued, or filling and at
        their maximum size or age (§3.2)."""
        config = self.config
        with self.lock:
            due = list(self._flush_pending)
            filling = list(self._filling.values())
        due.extend(
            memtable.memtable_id for memtable in filling
            if not memtable.empty and (
                memtable.size_bytes >= config.flush_size_bytes
                or memtable.age_micros(now) >= config.flush_age_micros))
        return due

    # ------------------------------------------------------ maintenance
    #
    # Each operation is off-lock work that ends in the swap; the
    # bodies live in maintenance.py.

    def maybe_merge(self) -> Optional[MergePlan]:
        """Run one merge if the policy finds one (§3.4.1); returns
        the executed plan, or None."""
        return ops.merge_once(self)

    def expire_tablets(self) -> int:
        """Drop tablets whose rows have all passed the TTL (§3.3);
        returns the number reclaimed."""
        return ops.expire_tablets(self)

    def migrate_to_cold(self, before_ts: int) -> int:
        """Move tablets entirely older than ``before_ts`` to the cold
        tier (the §6 LHAM-style extension); returns tablets migrated."""
        return ops.migrate_to_cold(self, before_ts)

    def bulk_delete(self, prefix: Sequence[Any]) -> int:
        """Delete every row whose key starts with ``prefix`` (§7);
        returns the number of rows deleted."""
        return ops.bulk_delete(self, prefix)

    def maintenance(self,
                    merge_budget: int = 1) -> ops.TableMaintenanceReport:
        """One background tick: due flushes, budgeted merges, TTL,
        each isolated from the others' failures."""
        return ops.run_tick(self, merge_budget)

    def _notify_fault(self, exc: BaseException) -> None:
        """Tell the database about a storage-level failure (it decides
        whether to degrade to read-only).  Duplicate notifications for
        one failure are fine - the listener is idempotent."""
        listener = self._fault_listener
        if listener is not None:
            listener(exc)

    # ------------------------------------------------------------ query

    def scan(self, query: Query) -> Iterator[Tuple[Any, ...]]:
        """Stream rows for a query without the server row limit.

        Accounting still accumulates into :attr:`counters`.
        """
        self._check_bounds(query.key_range)
        stats = QueryStats()
        with self._read_plan() as plan:
            try:
                for stretch in readpath.scan_stretches(
                        plan, query, self.clock.now(), stats):
                    yield from stretch
            finally:
                self._count_read(stats.rows_scanned, stats.rows_returned,
                                 queries=0)

    def query(self, query: Query) -> QueryResult:
        """Execute one query command with the server row limit (§3.5).

        Runs entirely off the table lock against a snapshot: an
        in-flight merge, flush, or TTL reclaim never blocks it.
        """
        query_started = time.perf_counter()
        self._check_bounds(query.key_range)
        stats = QueryStats()
        limit = self.config.server_row_limit
        if query.limit is not None and query.limit <= limit:
            limit = query.limit
        else:
            # The server's limit binds: one row past it, if there is
            # one, is what says more is available.
            query = Query(query.key_range, query.time_range,
                          query.direction, limit + 1)
        with self._read_plan() as plan:
            rows = list(chain.from_iterable(readpath.scan_stretches(
                plan, query, self.clock.now(), stats)))
        more_available = len(rows) > limit
        del rows[limit:]
        self._count_read(stats.rows_scanned, stats.rows_returned)
        self._h_query_latency.observe(
            (time.perf_counter() - query_started) * 1e6)
        return QueryResult(rows, more_available, stats)

    def _check_bounds(self, key_range: KeyRange) -> None:
        schema = self.descriptor.schema
        check_key_prefix(schema, key_range.min_prefix)
        # A prefix range (``KeyRange.prefix``) is one tuple both ways.
        if key_range.max_prefix is not key_range.min_prefix:
            check_key_prefix(schema, key_range.max_prefix)

    def _count_read(self, scanned: int, returned: int,
                    queries: int = 1) -> None:
        self.counters.rows_scanned += scanned
        self.counters.rows_returned += returned
        self.counters.queries += queries
        self._m_rows_scanned.inc(scanned)
        self._m_rows_returned.inc(returned)
        self._m_queries.inc(queries)

    def prune_preview(self, time_range: TimeRange, key_range: KeyRange
                      ) -> Tuple[int, int]:
        """``(tablets that would open, total on disk)`` for a bounding
        box - the same zone-map + time-interval pruning every scan and
        aggregate pushdown applies, exposed for ``EXPLAIN``.  Metadata
        only: no tablet is opened and no counters advance.
        """
        with self._read_plan() as plan:
            selected, _pruned = plan.prune_index.select_snapshot(
                plan.generation, plan.tablets, time_range, key_range)
            return len(selected), len(plan.tablets)

    def aggregate_partials(self, spec: AggregateSpec) -> AggregatePartials:
        """Vectorized partial aggregation over this table's sources
        (:func:`repro.core.readpath.aggregate`): the pushed-down
        counterpart of :meth:`query` for aggregate statements, with
        the same snapshot/epoch discipline and query accounting."""
        stats = QueryStats()
        with self._read_plan() as plan:
            partials = readpath.aggregate(plan, spec, self.clock.now(),
                                          stats)
        self._count_read(stats.rows_scanned, stats.rows_returned)
        self._m_push_queries.inc()
        return partials

    def latest(self, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        """Find the latest row whose key starts with ``prefix`` (§3.4.5):
        a batch of one for :meth:`latest_many`."""
        return self.latest_many((prefix,), max_lookback_micros)[0]

    def latest_many(self, prefixes: Iterable[Sequence[Any]],
                    max_lookback_micros: Optional[int] = None
                    ) -> List[Optional[Tuple[Any, ...]]]:
        """The latest row whose key starts with each of ``prefixes``
        (§3.4.5; the search is :func:`repro.core.readpath.latest_row`),
        in input order, ``None`` where there is none.
        ``max_lookback_micros`` optionally bounds the search (used by
        EventsGrabber, §4.2, and the dashboard's device status page).

        Every prefix is checked before any is looked up, and the
        clock, the TTL/lookback cutoff and the cache's methods are read
        once for the batch; each prefix is still one query in the
        counters.
        """
        schema = self.schema
        key_width = schema.key_width
        prefixes = [tuple(prefix) for prefix in prefixes]
        for prefix in prefixes:
            if len(prefix) >= key_width:
                raise QueryError("prefix must be shorter than the full key")
            check_key_prefix(schema, prefix)
        now = self.clock.now()
        cutoff = None
        ttl = self.descriptor.ttl_micros
        if ttl is not None:
            cutoff = now - ttl
        if max_lookback_micros is not None:
            lookback_cutoff = now - max_lookback_micros
            cutoff = lookback_cutoff if cutoff is None else max(
                cutoff, lookback_cutoff)
        # Hot-row cache: the dashboard asks for the same devices'
        # newest rows over and over (§3.4.5).  A cached answer is the
        # table's *global* latest for the prefix, so the TTL/lookback
        # window is re-applied at lookup time; inserts covering the
        # prefix and all tablet-set mutations invalidate.  A hit needs
        # no snapshot, so it takes no lock and pins nothing: reading
        # the generation is one attribute load.
        cache = self._latest_cache
        lookup = cache.lookup
        miss = cache.miss_sentinel
        ts_of = schema.ts_of
        rows: List[Optional[Tuple[Any, ...]]] = []
        scanned = 0
        for prefix in prefixes:
            best = lookup(prefix, self._cache_generation, cutoff, ts_of)
            if best is miss:
                stats = QueryStats()
                with self._read_plan() as plan:
                    best = readpath.latest_row(plan, prefix, cutoff, now,
                                               stats,
                                               self._bloom_prefix(prefix))
                scanned += stats.rows_scanned
                with self.lock:
                    # Store only if no insert or mutation overtook the
                    # scan: an insert racing this lookup may have added
                    # a newer row for the prefix that the snapshot
                    # cannot see, and the insert's invalidate_key fired
                    # before this store.
                    if (self._insert_seq == plan.insert_seq
                            and self._cache_generation
                            == plan.cache_generation):
                        cache.store(prefix, plan.cache_generation, best,
                                    cutoff)
            rows.append(best)
        # A latest-row query returns at most one row to the client no
        # matter how many rows it scanned - this asymmetry is exactly
        # what produces Figure 9's long tail (§5.2.4).
        self._count_read(scanned, len(rows) - rows.count(None),
                         queries=len(rows))
        return rows

    # --------------------------------------------------- schema changes

    def append_column(self, column: Column) -> None:
        """§3.5: append a column to the tail of the schema."""
        self._apply_schema(self.schema.with_appended_column(column))

    def widen_column(self, name: str) -> None:
        """§3.5: widen an int32 column to int64."""
        self._apply_schema(self.schema.with_widened_column(name))

    def set_ttl(self, ttl_micros: Optional[int]) -> None:
        """§3.5: alter the table's TTL."""
        if ttl_micros is not None and ttl_micros <= 0:
            raise SchemaError("TTL must be positive (or None to disable)")
        with self._maintenance_lock:
            with self.lock:
                self.descriptor.ttl_micros = ttl_micros
                self.descriptor.save(self.disk)

    def _apply_schema(self, schema: Schema) -> None:
        # DDL is a tablet-set mutator: it serializes with flush/merge
        # through the maintenance lock and swaps state briefly.
        with self._maintenance_lock:
            # WAL tier: seal current-schema rows into tablets first so
            # every WAL record whose rows are not yet tablet-covered
            # carries the (single) current schema version - replay
            # skips version-mismatched records, so any row allowed to
            # log at the old version between the flush and the swap
            # would be lost by a crash.  The gate closes that window:
            # inserts admitted before it block until the swap lands,
            # and rows logged before the gate closed are drained by
            # flush_all (their old-version records are then fully
            # tablet-covered, so replay's skip is harmless).
            gated = self.wal is not None
            if gated:
                with self.lock:
                    self._ddl_gate = True
            try:
                if gated:
                    self.flush_all()
                self._apply_schema_swap(schema)
            finally:
                if gated:
                    with self.lock:
                        self._ddl_gate = False
                        self._flush_cond.notify_all()

    def _apply_schema_swap(self, schema: Schema) -> None:
        with self.lock:
            # Retire filling memtables so new inserts use the new
            # schema; flushed tablets keep their old schema and
            # translate on read.
            for memtable in list(self._filling.values()):
                if memtable.empty:
                    self._freeze_locked(memtable)
                    del self._unflushed[memtable.memtable_id]
                else:
                    self._retire_memtable(memtable)
            self.descriptor.schema = schema
            self._codec = SchemaCodec(schema, self.metrics)
            self.descriptor.save(self.disk)
            # Cached blocks hold rows decoded at each tablet's own
            # schema (translated downstream), but a schema change
            # is rare enough to drop the table's read-cache entries
            # wholesale and orphan every cached latest() answer.
            with self._reader_lock:
                uids = [r.cache_uid for r in self._readers.values()]
            self._bump_cache_generation()
        self._read_cache.invalidate_tablets(uids)
