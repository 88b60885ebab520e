"""The table: LittleTable's unit of storage.

A table is "a union of sub-tables, called tablets, of two types"
(§3.2): filling/flush-pending in-memory tablets and immutable on-disk
tablets.  This module wires together the memtables, the on-disk tablet
readers, the flush-dependency graph, the merge policy, primary-key
uniqueness enforcement, TTL aging, and the query paths.

Threading (the non-blocking maintenance engine)
-----------------------------------------------

The paper's background merger runs continuously without stalling the
writer or the dashboard read path (§3.3, §3.4.4).  The engine mirrors
that with a two-lock design per table:

* :attr:`Table._maintenance_lock` (acquired FIRST) serializes the
  tablet-set mutators among themselves: flush, merge, TTL expiry,
  bulk delete, cold migration, and schema changes.  It is held for
  the *duration* of the work, which is why that work must never be
  done under the state lock.
* :attr:`Table.lock` (the state lock, acquired SECOND) protects the
  mutable in-memory state: the memtable maps, the flush-dependency
  graph, and the descriptor binding.  It is only ever held briefly -
  an insert batch, a snapshot capture, or an O(1) swap.

The on-disk tablet list is **copy-on-write**: ``descriptor.tablets``
is never mutated in place; every mutator builds a new list off-lock
and publishes it with a single assignment under the state lock.  A
reader therefore snapshots ``(generation, tablets, memtables)`` in one
brief lock hold and scans entirely off-lock against immutable state.

Because scans run off-lock, a merge or TTL reclaim cannot delete its
source files immediately - an in-flight scan may still be reading
them.  Removed tablets enter a **deferred-delete queue** tagged with a
read epoch; the files are reclaimed only once every reader that could
have seen the old tablet list has finished (epoch-based reclamation,
see :meth:`Table._defer_delete_locked`).

Insert backpressure: when a :class:`~repro.core.scheduler.`
``MaintenanceScheduler`` is running it arms a flush-pending threshold;
an insert batch finding that many memtables awaiting flush waits on
the state lock's condition (bounded by the policy's wait budget) for
the flushers to drain, observable via ``insert.backpressure_stalls``.
"""

from __future__ import annotations

import bisect
import struct
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..disk.storage import StorageError
from ..disk.vfs import SimulatedDisk
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..util.clock import Clock
from .block import decompress
from .codec import BLOCK_FORMAT_V1, BLOCK_FORMAT_V2, SchemaCodec
from .config import EngineConfig
from .cursor import execute_query
from .descriptor import TableDescriptor
from .durability import DEFAULT_DURABILITY, DurabilityPolicy
from .encoding import RowCodec
from .errors import (CorruptTabletError, DuplicateKeyError, LittleTableError,
                     QueryError, SchemaError, ValidationError)
from .flushdeps import FlushDependencies
from .maintenance import TableMaintenanceReport
from .memtable import MemTable
from .merge import MergePlan, choose_merge, is_quiescent
from .periods import Period, period_for
from .readcache import (LatestRowCache, ReadCache, TabletPruneIndex,
                        _zone_map_excludes)
from .row import ASCENDING, DESCENDING, KeyRange, Query, QueryStats, TimeRange
from .schema import Column, Schema
from .tablet import TabletMeta, TabletReader, TabletWriter
from .vector import (AggregatePartials, AggregateSpec, accumulate,
                     accumulate_rows, key_bounds, residual_filter,
                     resolve_time_bounds, time_filter)
from .wal import WalReplayReport, WriteAheadLog


@dataclass
class QueryResult:
    """What one query command returns (§3.5).

    ``more_available`` is set when the server's own row limit stopped
    the scan; the client adaptor re-submits with the start bound moved
    past ``rows[-1]``'s key to retrieve the rest.
    """

    rows: List[Tuple[Any, ...]]
    more_available: bool
    stats: QueryStats


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
    tablets_expired: int = 0


class _MergeSource:
    """Streaming cursor over one merge input tablet.

    At any moment the source is either *decoded* - ``rows``/``keys``
    hold the remainder of the current block, ``pos`` the read point -
    or sitting at a *block boundary* (``rows is None``).  ``lo_bound``
    is the last key already consumed, so every remaining key is known
    to be strictly greater; that is what lets whole untouched blocks
    from other sources pass through without being decoded.
    """

    __slots__ = ("reader", "entries", "index", "rows", "keys", "pos",
                 "lo_bound", "_entry_last")

    def __init__(self, reader: TabletReader):
        self.reader = reader
        self.entries = reader.block_entries()
        self.index = 0
        self.rows: Optional[List[Tuple[Any, ...]]] = None
        self.keys: Optional[List[Tuple[Any, ...]]] = None
        self.pos = 0
        self.lo_bound: Optional[Tuple[Any, ...]] = None
        self._entry_last: Optional[Tuple[Any, ...]] = None

    @property
    def exhausted(self) -> bool:
        return self.rows is None and self.index >= len(self.entries)

    def decode_next(self) -> None:
        """Decode the block at the boundary and step past it."""
        entry = self.entries[self.index]
        payload = self.reader.read_block_payload(self.index)
        self.rows, self.keys = self.reader.decode_payload(
            self.index, payload)
        self.pos = 0
        self._entry_last = entry.last_key
        self.index += 1

    def skip_block(self) -> None:
        """Step past the boundary block (it was passed through)."""
        self.lo_bound = self.entries[self.index].last_key
        self.index += 1

    def finish_pending(self) -> None:
        """Drop the fully-consumed decoded block."""
        self.rows = None
        self.keys = None
        self.lo_bound = self._entry_last


class Table:
    """One LittleTable table."""

    def __init__(self, disk: SimulatedDisk, descriptor: TableDescriptor,
                 config: EngineConfig, clock: Clock,
                 cold_disk: Optional[SimulatedDisk] = None,
                 metrics: Optional[MetricsRegistry] = None, tracer=None,
                 read_cache: Optional[ReadCache] = None,
                 durability: Optional[DurabilityPolicy] = None):
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
        # Lock hierarchy (acquire downwards, never upwards):
        #   _maintenance_lock  ->  lock (state)  ->  _reader_lock
        self._maintenance_lock = threading.RLock()
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
        self._m_uniq_fast_ts = m.counter("insert.uniqueness.fast_path_ts")
        self._m_uniq_fast_max = m.counter(
            "insert.uniqueness.fast_path_period_max")
        self._m_uniq_slow = m.counter("insert.uniqueness.slow_path")
        self._m_queries = m.counter("query.count")
        self._m_rows_scanned = m.counter("query.rows_scanned")
        self._m_rows_returned = m.counter("query.rows_returned")
        self._m_tablets_pruned = m.counter("query.tablets_pruned")
        self._m_push_queries = m.counter("query.pushdown.queries")
        self._m_push_blocks = m.counter("query.pushdown.blocks_columnar")
        self._m_push_blocks_fallback = m.counter(
            "query.pushdown.blocks_fallback")
        self._m_push_rows_columnar = m.counter(
            "query.pushdown.rows_columnar")
        self._m_push_rows_fallback = m.counter(
            "query.pushdown.rows_fallback")
        self._m_push_rows_filtered = m.counter(
            "query.pushdown.rows_kernel_filtered")
        self._m_generation_bumps = m.counter("readcache.generation")
        self._m_backpressure = m.counter("insert.backpressure_stalls")
        self._h_backpressure_wait = m.histogram("insert.backpressure_wait_us")
        # End-to-end latency per insert batch / query call: what the
        # SLO controller watches in embedded mode (the served mode
        # adds server.cmd.*.latency_us on top).
        self._h_insert_latency = m.histogram("insert.latency_us")
        self._h_query_latency = m.histogram("query.latency_us")
        # Shared token bucket pacing this table's flush/merge writes
        # (set by the database when io_rate_limit_bytes_s is
        # configured, or injected directly; None = unmetered).
        self.io_limiter = None
        self._h_swap_hold = m.histogram("maintenance.swap_lock_hold_us")
        self._m_deferred = m.counter("maintenance.deferred_deletes")
        self._m_quarantined = m.counter("storage.quarantined_tablets")
        # Set by the database: receives storage-level exceptions from
        # flush/merge/TTL so persistent ENOSPC/EIO can flip the engine
        # to read-only mode.
        self._fault_listener: Optional[Callable[[BaseException], None]] = None
        self._row_codec = RowCodec(descriptor.schema)
        # The schema-compiled batch codec: validates, sizes, keys, and
        # block-encodes rows without per-value dispatch (core/codec.py).
        self._codec = SchemaCodec(descriptor.schema, self.metrics)
        # Read-path caches: a database passes its shared block/footer
        # cache (one budget across all tables); a standalone table
        # builds a private one from its config.
        self._read_cache = (read_cache if read_cache is not None
                            else ReadCache(config.read_cache_bytes,
                                           metrics=self.metrics))
        # tablet_id -> process-unique cache uid for the live file; a
        # replacement tablet (merge, rewrite, migration) gets a fresh
        # uid so old cache entries can never alias it.
        self._tablet_uids: Dict[int, int] = {}
        self._prune_index = TabletPruneIndex()
        self._latest_cache = LatestRowCache(config.latest_cache_entries,
                                            metrics=self.metrics)
        # Bumped by every mutation that can change a latest() answer;
        # cached entries from older generations are never served.
        self._cache_generation = 0
        # Bumped per insert batch; latest() skips storing an answer
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
        # every tablet-set swap that removes tablets; each removal is
        # queued with the pre-swap epoch and its file is deleted only
        # once no active reader entered at or before that epoch.
        self._read_epoch = 0
        self._active_reads: Dict[int, int] = {}
        self._pending_deletes: List[Tuple[int, SimulatedDisk, TabletMeta]] = []
        # (period.start, level) -> (descriptor generation, max key).
        self._period_max_cache: Dict[Tuple[int, int], Tuple[int, Any]] = {}
        self._max_ts_ever: Optional[int] = max(
            (t.max_ts for t in descriptor.tablets), default=None
        )

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

    def size_bytes_on_disk(self) -> int:
        return sum(t.size_bytes for t in self.descriptor.tablets)

    def stats_summary(self) -> Dict[str, Any]:
        """Operator-facing snapshot of the table's shape and activity.

        Everything an operator needs to recognize the paper's failure
        modes at a glance: tablet counts per period (seek storms,
        §3.4.1), write amplification (merge pathologies), and the
        Figure 9 scan ratio.
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
        table's block/footer cache entries and the latest-row cache go
        with it, since none would survive a real restart."""
        with self.lock:
            self._period_max_cache.clear()
            self._latest_cache.clear()
            with self._reader_lock:
                self._readers.clear()
                uids = list(self._tablet_uids.values())
                self._tablet_uids.clear()
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
            self._readers.pop(tablet_id, None)
            uid = self._tablet_uids.pop(tablet_id, None)
        if uid is not None:
            self._read_cache.invalidate_tablet(uid)

    def _delete_tablet_file(self, meta: TabletMeta) -> None:
        """Immediately delete a tablet's file (drop-table path; the
        maintenance paths use :meth:`_defer_delete_locked` instead so
        in-flight readers keep their snapshot)."""
        disk = self._disk_for(meta)
        if disk.exists(meta.filename):
            disk.delete(meta.filename)
        self._drop_reader_state(meta.tablet_id)

    def quarantine_tablet(self, meta: TabletMeta, reason: str) -> bool:
        """Pull a corrupt tablet out of the live set.

        The descriptor drops it (atomic replace, same swap discipline
        as every other tablet-set mutation) and its file moves into
        ``quarantine/`` on the same device - never deleted, so an
        operator can inspect or recover it.  Returns False if the
        tablet was already gone (a concurrent merge or quarantine got
        there first).
        """
        with self.lock:
            current = self.descriptor.tablets
            if not any(t.tablet_id == meta.tablet_id for t in current):
                return False
            self.descriptor.tablets = [
                t for t in current if t.tablet_id != meta.tablet_id
            ]
            self.descriptor.save(self.disk)
            self._bump_cache_generation()
        disk = self._disk_for(meta)
        destination = f"quarantine/{meta.filename}"
        try:
            if disk.exists(meta.filename):
                if disk.exists(destination):
                    disk.delete(destination)
                disk.rename(meta.filename, destination)
        except StorageError:
            pass  # quarantining must not fail the caller further
        self._drop_reader_state(meta.tablet_id)
        self._m_quarantined.inc()
        with self.tracer.span("quarantine", table=self.name,
                              tablet=meta.tablet_id, reason=reason):
            pass
        return True

    def _tablet_uid(self, meta: TabletMeta) -> int:
        with self._reader_lock:
            return self._tablet_uid_locked(meta)

    def _tablet_uid_locked(self, meta: TabletMeta) -> int:
        uid = self._tablet_uids.get(meta.tablet_id)
        if uid is None:
            uid = self._read_cache.allocate_uid()
            self._tablet_uids[meta.tablet_id] = uid
        return uid

    def _reader(self, meta: TabletMeta) -> TabletReader:
        with self._reader_lock:
            reader = self._readers.get(meta.tablet_id)
            if reader is None:
                reader = TabletReader(self._disk_for(meta), meta.filename,
                                      metrics=self.metrics,
                                      cache=self._read_cache,
                                      cache_uid=self._tablet_uid_locked(meta))
                self._readers[meta.tablet_id] = reader
        return reader

    def _bump_cache_generation(self) -> None:
        """Orphan all latest-row cache entries after a mutation."""
        self._cache_generation += 1
        self._m_generation_bumps.inc()

    # --------------------------------------- epoch-based read reclamation

    def _begin_read(self) -> int:
        """Enter a read: pins the current tablet snapshot's files."""
        with self.lock:
            epoch = self._read_epoch
            self._active_reads[epoch] = self._active_reads.get(epoch, 0) + 1
            return epoch

    def _end_read(self, epoch: int) -> None:
        """Leave a read; reclaims deferred deletes it was pinning."""
        with self.lock:
            count = self._active_reads.get(epoch, 0) - 1
            if count <= 0:
                self._active_reads.pop(epoch, None)
            else:
                self._active_reads[epoch] = count
            reapable = self._claim_reapable_locked()
        self._dispose(reapable)

    def _defer_delete_locked(self, metas: Sequence[TabletMeta],
                             disk: Optional[SimulatedDisk] = None) -> None:
        """Queue removed tablets' files for deletion once safe.

        Caller holds the state lock and has already published the new
        tablet list.  The epoch advances so readers entering from now
        on are known not to reference the removed tablets.  The target
        disk is captured *now* because cold migration flips
        ``meta.tier`` before the hot copy is reclaimed.
        """
        epoch = self._read_epoch
        self._read_epoch = epoch + 1
        for meta in metas:
            target = disk if disk is not None else self._disk_for(meta)
            self._pending_deletes.append((epoch, target, meta))
        if metas:
            self._m_deferred.inc(len(metas))

    def _claim_reapable_locked(self) -> List[
            Tuple[int, SimulatedDisk, TabletMeta]]:
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

    def _dispose(self, items: Sequence[Tuple[int, SimulatedDisk,
                                             TabletMeta]]) -> None:
        """Delete reclaimed files and drop their reader/cache state.
        Runs without the state lock (file deletion is I/O)."""
        for _epoch, disk, meta in items:
            if disk.exists(meta.filename):
                disk.delete(meta.filename)
            self._drop_reader_state(meta.tablet_id)

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
        """Insert validated positional row tuples (fast path).

        Takes the table's state lock itself - callers need not (and
        should not) wrap inserts in ``table.lock`` anymore.
        """
        batch_started = time.perf_counter()
        wal = self.wal
        commit_lsn: Optional[int] = None
        error: Optional[LittleTableError] = None
        with self.lock:
            while self._ddl_gate:
                # A WAL-tier schema change is flushing + swapping; wait
                # so this batch logs at the post-swap schema version.
                self._flush_cond.wait(0.1)
            self._wait_for_flush_capacity_locked()
            now = self.clock.now()
            codec = self._codec
            validate = codec.validate_and_size
            key_of = codec.key_of
            ts_index = self.schema.ts_index
            flush_limit = self.config.flush_size_bytes
            record_insert = self._deps.record_insert
            invalidate_key = self._latest_cache.invalidate_key
            max_ts_ever = self._max_ts_ever
            inserted = 0
            # WAL tier: collect accepted rows so the whole batch
            # encodes in one compiled pass and logs as one record
            # before acknowledgment.
            log_wal = wal is not None
            wal_rows: List[Tuple[Any, ...]] = []
            wal_memtables: List[MemTable] = []
            # The filling memtable and its period window are carried
            # across rows: period windows partition the timestamp axis
            # for a fixed ``now`` (periods.py aligns every boundary), so
            # ``cur_lo <= ts < cur_hi`` proves the row bins into the
            # same memtable without re-deriving the period.
            cur_mt: Optional[MemTable] = None
            cur_lo = cur_hi = 0
            # Bumped up front, under the lock: a batch refused part way
            # has still inserted rows a racing latest() must not cache
            # over.
            self._insert_seq += 1
            try:
                for row in rows:
                    # One pass: the compiled codec validates, coerces,
                    # and returns the row's on-disk encoded size.
                    row, size = validate(row)
                    ts = row[ts_index]
                    key = key_of(row)
                    if not self._key_is_unique(key, ts, now):
                        raise DuplicateKeyError(
                            f"duplicate primary key {key!r} in table "
                            f"{self.name!r}"
                        )
                    if cur_mt is None or ts < cur_lo or ts >= cur_hi:
                        cur_mt = self._memtable_for(ts, now)
                        cur_lo = cur_mt.period.start
                        cur_hi = cur_mt.period.end
                        record_insert(cur_mt.memtable_id)
                        if wal is not None:
                            wal_memtables.append(cur_mt)
                    if not cur_mt.insert_sized(key, row, size, now):
                        raise DuplicateKeyError(
                            f"duplicate primary key {key!r} in table "
                            f"{self.name!r}"
                        )
                    if log_wal:
                        wal_rows.append(row)
                    invalidate_key(key)
                    if max_ts_ever is None or ts > max_ts_ever:
                        # Written through immediately: _key_is_unique's
                        # fast path 1 reads it for the *next* row.
                        max_ts_ever = ts
                        self._max_ts_ever = ts
                    inserted += 1
                    if cur_mt.size_bytes >= flush_limit:
                        self._retire_memtable(cur_mt)
                        cur_mt = None
            except (DuplicateKeyError, ValidationError) as exc:
                # Inserts are not transactional (§2.3.4): rows earlier
                # in the batch stay inserted, so on the WAL tier they
                # must also stay *logged* before the error surfaces.
                if wal is None:
                    raise
                error = exc
            if wal is not None and wal_rows:
                commit_lsn = wal.log_batch_block(
                    codec.ops.encode_rows(wal_rows),
                    len(wal_rows), self.schema.version)
                for memtable in wal_memtables:
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
        # traversed the full path (backpressure stall included), which
        # is the latency signal the SLO controller watches.
        self._h_insert_latency.observe(
            (time.perf_counter() - batch_started) * 1e6)
        if error is not None:
            raise error
        return inserted

    def set_flush_backpressure(self, limit: Optional[int],
                               wait_s: float = 5.0) -> None:
        """Arm (or with ``limit=None`` disarm) insert backpressure.

        The :class:`~repro.core.scheduler.MaintenanceScheduler` wires
        this from its policy on start and disarms it on stop.
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
            memtable = MemTable(self._next_memtable_id, self.schema, period,
                                self._row_codec)
            self._next_memtable_id += 1
            self._filling[bin_key] = memtable
            self._unflushed[memtable.memtable_id] = memtable
        return memtable

    def _retire_memtable(self, memtable: MemTable) -> None:
        """Mark a filling memtable read-only and queue it for flush."""
        if memtable.read_only:
            return
        memtable.mark_read_only()
        bin_key = (memtable.period.start, int(memtable.period.level))
        if self._filling.get(bin_key) is memtable:
            del self._filling[bin_key]
        self._flush_pending.append(memtable.memtable_id)

    # -------------------------------------------------------- uniqueness

    def _key_is_unique(self, key: Tuple[Any, ...], ts: int, now: int) -> bool:
        """Primary-key uniqueness check with the §3.4.4 fast paths.

        Runs under the state lock, which also serializes it against
        tablet-set swaps - the tablet view cannot change mid-check.
        """
        # Fast path 1: the timestamp is newer than any row ever stored;
        # needs only cached metadata.
        if self._max_ts_ever is None or ts > self._max_ts_ever:
            self._m_uniq_fast_ts.inc()
            return True
        # Fast path 2: the key is larger than any other key in its time
        # period, checkable from tablet indexes and memtable maxima.
        period = period_for(ts, now, self.config.time_partitioning)
        if self._key_above_period_max(key, period):
            self._m_uniq_fast_max.inc()
            return True
        # Slow path: a point query, possibly touching disk.  Bloom
        # filters skip most tablets (§3.4.5).
        self._m_uniq_slow.inc()
        return not self._key_exists(key, ts)

    def _key_above_period_max(self, key: Tuple[Any, ...],
                              period: Period) -> bool:
        for memtable in self._unflushed.values():
            if memtable.empty:
                continue
            if (memtable.max_ts < period.start
                    or memtable.min_ts >= period.end):
                continue
            last = memtable.last_key()
            if last is not None and key <= last:
                return False
        tablet_max = self._tablet_period_max(period)
        if tablet_max is not None and key <= tablet_max:
            return False
        return True

    def _tablet_period_max(self, period: Period) -> Optional[Tuple[Any, ...]]:
        """Largest on-disk key among tablets overlapping ``period``.

        Cached per period and invalidated whenever the tablet set
        changes (descriptor generation bump) - the check runs for
        every inserted row, so it must not rescan tablet indexes.
        """
        cache_key = (period.start, int(period.level))
        cached = self._period_max_cache.get(cache_key)
        if cached is not None and cached[0] == self.descriptor.generation:
            return cached[1]
        maximum: Optional[Tuple[Any, ...]] = None
        for meta in self.descriptor.tablets:
            if meta.max_ts < period.start or meta.min_ts >= period.end:
                continue
            if meta.max_key is not None:
                # Zone map recorded by the writer: the tablet's last
                # key, no reader needed.
                if maximum is None or meta.max_key > maximum:
                    maximum = meta.max_key
                continue
            reader = self._reader(meta)
            reader.ensure_loaded()
            last_keys = reader._last_keys
            if last_keys and (maximum is None or last_keys[-1] > maximum):
                maximum = last_keys[-1]
        self._period_max_cache[cache_key] = (self.descriptor.generation,
                                             maximum)
        return maximum

    def _key_exists(self, key: Tuple[Any, ...], ts: int) -> bool:
        for memtable in self._unflushed.values():
            if memtable.contains_key(key):
                return True
        candidates = [meta for meta in self.descriptor.tablets
                      if meta.min_ts <= ts <= meta.max_ts]
        if not candidates:
            return False
        # Encode the bloom probe only once a tablet actually overlaps
        # the row's timestamp (most point checks stop at the ts test).
        encoded_prefix = None
        if self.config.bloom_filters:
            encoded_prefix = self._codec.encode_key_prefix(key[:-1])
        for meta in candidates:
            reader = self._reader(meta)
            if encoded_prefix is not None:
                probe = reader.may_contain_prefix(encoded_prefix)
                if probe is False:
                    continue
            if reader.probe_key(key):
                return True
        return False

    # ------------------------------------------------------------ flush

    def flush_memtable(self, memtable_id: int) -> List[TabletMeta]:
        """Flush one memtable plus its dependency closure (§3.4.3).

        All resulting on-disk tablets are added to the descriptor in a
        single atomic update, preserving the prefix-durability
        guarantee.  Returns the tablets written.

        The write runs *off* the state lock: the group is frozen
        (marked read-only, removed from the filling map) under a brief
        lock hold, the tablets are built lock-free, and the lock is
        re-acquired only for the O(1) descriptor swap and dependency
        bookkeeping.  New dependency edges created by concurrent
        inserts can only point *at* group members (a read-only
        memtable never receives inserts), so the closure computed at
        freeze time stays complete.
        """
        with self._maintenance_lock:
            return self._flush_off_lock(memtable_id)

    def _flush_off_lock(self, memtable_id: int) -> List[TabletMeta]:
        started = time.perf_counter()
        with self.lock:
            group = [
                mid for mid in self._deps.flush_group(memtable_id)
                if mid in self._unflushed
            ]
            members: List[MemTable] = []
            for mid in group:
                memtable = self._unflushed[mid]
                memtable.mark_read_only()
                bin_key = (memtable.period.start,
                           int(memtable.period.level))
                if self._filling.get(bin_key) is memtable:
                    del self._filling[bin_key]
                members.append(memtable)
        if not group:
            return []
        written: List[TabletMeta] = []
        now = self.clock.now()
        with self.tracer.span("flush", table=self.name) as span:
            try:
                self.disk.fire("flush.before_write")
                for memtable in members:
                    meta = self._write_memtable(memtable, now)
                    if meta is not None:
                        written.append(meta)
            except Exception as exc:
                # Leave the group flushable: re-queue it so the next
                # maintenance pass retries (files already written are
                # not in the descriptor - crash-equivalent garbage).
                # A simulated kill (CrashPoint derives from
                # BaseException) bypasses this on purpose.
                with self.lock:
                    for mid in group:
                        if (mid in self._unflushed
                                and mid not in self._flush_pending):
                            self._flush_pending.append(mid)
                self._notify_fault(exc)
                raise
            swap_started = time.perf_counter()
            with self.lock:
                if written:
                    self.disk.fire("flush.before_descriptor")
                    self.descriptor.tablets = (
                        self.descriptor.tablets + written)
                    self.descriptor.save(self.disk)
                    self.disk.fire("flush.after_descriptor")
                for mid in group:
                    self._unflushed.pop(mid, None)
                    if mid in self._flush_pending:
                        self._flush_pending.remove(mid)
                self._deps.mark_flushed(group)
                self._flush_cond.notify_all()
                reapable = self._claim_reapable_locked()
                wal_low = self._wal_low_water_locked()
            self._dispose(reapable)
            if wal_low is not None:
                # Rows just sealed into tablets no longer need their
                # log records; recycle wholly-covered segments.
                self.wal.advance_low_water(wal_low)
            self._h_swap_hold.observe(
                (time.perf_counter() - swap_started) * 1e6)
            rows = sum(meta.row_count for meta in written)
            size = sum(meta.size_bytes for meta in written)
            span.tag(tablets=len(written), rows=rows, bytes=size)
        m = self.metrics
        m.counter("flush.count").inc()
        m.counter("flush.tablets").inc(len(written))
        m.counter("flush.rows").inc(rows)
        m.counter("flush.bytes").inc(size)
        m.histogram("flush.duration_us").observe(
            (time.perf_counter() - started) * 1e6)
        return written

    def _write_memtable(self, memtable: MemTable, now: int
                        ) -> Optional[TabletMeta]:
        if memtable.empty:
            return None
        tablet_id = self.descriptor.allocate_tablet_id()
        writer = self._tablet_writer(self.disk, memtable.schema,
                                     self.io_limiter)
        meta = writer.write(
            self.descriptor.tablet_filename(tablet_id), (),
            tablet_id, created_at=now, expected_rows=len(memtable),
            sized_pairs=memtable.sorted_sized(),
        )
        if meta is not None:
            self.counters.bytes_flushed += meta.size_bytes
            self.counters.flushes += 1
        return meta

    def _tablet_writer(self, disk: SimulatedDisk, schema: Schema,
                       io_limiter=None) -> TabletWriter:
        """The one place that turns :class:`EngineConfig` into tablet
        writer settings; callers choose only where the file goes, the
        schema its rows have, and whether block writes are paced."""
        config = self.config
        return TabletWriter(
            disk, schema, config.block_size_bytes, config.compression,
            config.bloom_bits_per_row if config.bloom_filters else 0,
            metrics=self.metrics, checksums=config.checksums,
            io_limiter=io_limiter)

    def _wal_low_water_locked(self) -> Optional[int]:
        """The WAL low-water mark implied by current memtable state.

        Caller holds the state lock (which also serializes LSN
        assignment, since ``log_batch`` only runs under it).  Every
        record below the returned LSN has all its rows sealed into
        tablets; with no log-covered memtable left, everything logged
        so far is covered.  None when the table has no WAL.
        """
        if self.wal is None:
            return None
        mins = [m.min_wal_lsn for m in self._unflushed.values()
                if m.min_wal_lsn is not None]
        return min(mins) if mins else self.wal.next_lsn

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
        decode = self._row_codec.decode_row
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
                if record.block is not None:
                    # KIND_BLOCK: the whole batch decodes in one
                    # compiled pass.
                    try:
                        rows = self._codec.ops.decode_block(
                            record.block)[0]
                    except (CorruptTabletError, ValueError,
                            IndexError, struct.error) as exc:
                        report.issues.append(
                            f"record lsn={record.lsn}: undecodable "
                            f"block ({exc}); {record.row_count} rows "
                            f"skipped")
                        report.rows_skipped += record.row_count
                        continue
                else:
                    rows = []
                    for encoded in record.rows:
                        try:
                            rows.append(decode(encoded)[0])
                        except (ValueError, IndexError,
                                struct.error) as exc:
                            report.issues.append(
                                f"record lsn={record.lsn}: undecodable "
                                f"row ({exc}); skipped")
                            report.rows_skipped += 1
                for row in rows:
                    ts = row[self.schema.ts_index]
                    key = self._codec.key_of(row)
                    if not self._key_is_unique(key, ts, now):
                        report.rows_skipped += 1
                        continue
                    memtable = self._memtable_for(ts, now)
                    self._deps.record_insert(memtable.memtable_id)
                    if not memtable.insert_sized(
                            key, row, self._codec.size_of(row), now):
                        report.rows_skipped += 1
                        continue
                    if self.wal is not None:
                        memtable.note_wal_lsn(record.lsn)
                    report.rows_applied += 1
                    if (self._max_ts_ever is None
                            or ts > self._max_ts_ever):
                        self._max_ts_ever = ts
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
        written: List[TabletMeta] = []
        while True:
            with self.lock:
                some_id = next(iter(self._unflushed), None)
            if some_id is None:
                return written
            written.extend(self.flush_memtable(some_id))

    def flush_before(self, ts: int) -> List[TabletMeta]:
        """Flush every memtable holding rows with timestamps < ``ts``.

        This is the command §4.1.2 proposes so that aggregators need
        not "simply assume that data written more than 20 minutes in
        the past has reached disk": after ``flush_before(t)`` returns,
        every row with a timestamp before ``t`` that the table holds
        is durable (its dependency closure flushes with it, so the
        prefix-durability guarantee is unaffected).
        """
        written: List[TabletMeta] = []
        while True:
            with self.lock:
                target = next(
                    (m for m in self._unflushed.values()
                     if not m.empty and m.min_ts < ts),
                    None,
                )
            if target is None:
                return written
            written.extend(self.flush_memtable(target.memtable_id))

    def pending_flush_work(self, now: int) -> List[int]:
        """Memtable ids due for flushing: queued, oversized, or aged."""
        with self.lock:
            due = list(self._flush_pending)
            filling = list(self._filling.values())
        for memtable in filling:
            if memtable.empty:
                continue
            if (memtable.size_bytes >= self.config.flush_size_bytes
                    or memtable.age_micros(now) >= self.config.flush_age_micros):
                if memtable.memtable_id not in due:
                    due.append(memtable.memtable_id)
        return due

    # --------------------------------------------------------- cold tier

    def migrate_to_cold(self, before_ts: int) -> int:
        """Move tablets whose data is entirely older than ``before_ts``
        to the cold tier (the §6 LHAM-style extension).

        "LHAM introduced the idea of moving older data in a
        log-structured system to write-once media.  This approach is
        especially attractive for time-series data, where very old
        values are accessed infrequently but remain valuable."

        Each tablet's file is copied to the cold store, the descriptor
        is updated atomically, and the hot copy is reclaimed once no
        in-flight reader can still touch it.  Queries keep working
        transparently (at the cold tier's latencies); cold tablets are
        never merged.  Returns tablets migrated.
        """
        with self._maintenance_lock:
            if self.cold_disk is None:
                raise QueryError("no cold store attached to this table")
            migrated = 0
            for meta in self.on_disk_tablets:
                if meta.tier != "hot" or meta.max_ts >= before_ts:
                    continue
                data = self.disk.storage.read_all(meta.filename)
                self.cold_disk.write_file(meta.filename, data)
                with self.lock:
                    self.disk.fire("migrate.before_descriptor")
                    meta.tier = "cold"
                    self.descriptor.save(self.disk)
                    # The hot copy: capture the hot disk explicitly -
                    # after the tier flip _disk_for would route to the
                    # cold store and delete the wrong file.
                    self._defer_delete_locked([meta], disk=self.disk)
                    reapable = self._claim_reapable_locked()
                self._dispose(reapable)
                migrated += 1
            if migrated:
                with self.lock:
                    self._bump_cache_generation()
            return migrated

    def tier_of(self, tablet_id: int) -> Optional[str]:
        """The storage tier of a tablet, or None if unknown."""
        for meta in self.descriptor.tablets:
            if meta.tablet_id == tablet_id:
                return meta.tier
        return None

    # ------------------------------------------------------- bulk delete

    def bulk_delete(self, prefix: Sequence[Any]) -> int:
        """Delete every row whose key starts with ``prefix``.

        The bulk-delete feature §7 says Meraki was investigating "to
        simplify compliance with regional privacy laws" - e.g. remove
        one customer's networks entirely.  Memtables holding matching
        rows are flushed first, then each affected tablet is rewritten
        without the matching rows (tablets whose Bloom filter or key
        index rules the prefix out are untouched).  Returns the number
        of rows deleted.
        """
        prefix = tuple(prefix)
        if not prefix or len(prefix) >= self.schema.key_width:
            raise QueryError(
                "bulk delete takes a non-empty prefix of the key "
                "columns (excluding ts)")
        key_range = KeyRange.prefix(prefix)
        with self._maintenance_lock:
            for memtable in list(self._unflushed.values()):
                if any(True for _row in memtable.scan(key_range)):
                    self.flush_memtable(memtable.memtable_id)
            encoded_prefix = None
            if self.config.bloom_filters:
                encoded_prefix = self._row_codec.encode_prefix_columns(prefix)
            removed = 0
            now = self.clock.now()
            for meta in self.on_disk_tablets:
                reader = self._reader(meta)
                if encoded_prefix is not None:
                    probe = reader.may_contain_prefix(encoded_prefix)
                    if probe is False:
                        continue
                if not any(True for _row in reader.scan(key_range)):
                    continue
                removed += self._rewrite_tablet_without(meta, key_range, now)
            return removed

    def _rewrite_tablet_without(self, meta: TabletMeta,
                                key_range: KeyRange, now: int) -> int:
        """Rewrite one tablet dropping rows inside ``key_range``.

        The replacement is installed with an atomic descriptor update;
        the old file is reclaimed once in-flight readers drain.  A
        crash in between leaves either version, never both.  Returns
        rows dropped.
        """
        reader = self._reader(meta)
        reader.ensure_loaded()
        tablet_id = self.descriptor.allocate_tablet_id()
        writer = self._tablet_writer(self._disk_for(meta), self.schema)
        key_of = self.schema.key_of
        rows = (
            row for row in self._tablet_rows_translated(meta)
            if not key_range.contains(key_of(row))
        )
        new_meta = writer.write(
            self.descriptor.tablet_filename(tablet_id), rows,
            tablet_id, created_at=now, expected_rows=meta.row_count,
        )
        swap_started = time.perf_counter()
        with self.lock:
            remaining = [
                t for t in self.descriptor.tablets
                if t.tablet_id != meta.tablet_id
            ]
            kept = 0
            if new_meta is not None:
                new_meta.tier = meta.tier
                remaining.append(new_meta)
                kept = new_meta.row_count
            self.disk.fire("rewrite.before_descriptor")
            self.descriptor.tablets = remaining
            self.descriptor.save(self.disk)
            self._defer_delete_locked([meta])
            self._bump_cache_generation()
            reapable = self._claim_reapable_locked()
        self._dispose(reapable)
        self._h_swap_hold.observe(
            (time.perf_counter() - swap_started) * 1e6)
        return meta.row_count - kept

    # ------------------------------------------------------------ merge

    def maybe_merge(self) -> Optional[MergePlan]:
        """Run one merge if the policy finds one (§3.4.1).

        Returns the executed plan, or None.  The merge streams the
        source tablets through a k-way merge into a new tablet entirely
        off the state lock (sources are immutable files), then
        re-acquires the lock only for the O(1) copy-on-write descriptor
        swap; the source files are reclaimed once in-flight readers
        drain.
        """
        with self._maintenance_lock:
            now = self.clock.now()
            hot_tablets = [t for t in self.descriptor.tablets
                           if t.tier != "cold"]
            plan = choose_merge(hot_tablets, now, self.name, self.config)
            if plan is None:
                return None
            with self.tracer.span("merge", table=self.name,
                                  period=plan.period.level.name.lower(),
                                  tablets=len(plan.tablets),
                                  rows=plan.total_rows):
                self._execute_merge(plan, now)
            return plan

    def _execute_merge(self, plan: MergePlan, now: int) -> None:
        started = time.perf_counter()
        self.disk.fire("merge.before_write")
        tablet_id = self.descriptor.allocate_tablet_id()
        filename = self.descriptor.tablet_filename(tablet_id)
        readers = [self._reader(source) for source in plan.tablets]
        for reader in readers:
            reader.ensure_loaded()
        same_schema = all(
            r.schema.version == self.schema.version for r in readers)
        have_zone_maps = all(
            t.min_key is not None and t.max_key is not None
            for t in plan.tablets)
        writer = self._tablet_writer(self.disk, self.schema, self.io_limiter)
        if same_schema and have_zone_maps:
            # Common case: block-at-a-time merge.  Non-overlapping v2
            # source blocks are copied compressed-payload-verbatim;
            # overlapping runs are batch-decoded and re-encoded whole
            # blocks at a time; v1 sources come out upgraded to v2.
            meta = self._merge_blockwise(plan, readers, writer, filename,
                                         tablet_id, now)
        else:
            # Mixed schema versions (or sources without zone maps):
            # translating while merging also upgrades old rows to the
            # current schema (§3.5).
            merged = self._merge_streams([
                self._tablet_rows_translated(source)
                for source in plan.tablets
            ])
            meta = writer.write(
                filename, merged,
                tablet_id, created_at=now, expected_rows=plan.total_rows,
            )
        merged_ids = {t.tablet_id for t in plan.tablets}
        swap_started = time.perf_counter()
        with self.lock:
            new_tablets = [
                t for t in self.descriptor.tablets
                if t.tablet_id not in merged_ids
            ]
            rows_rewritten = 0
            if meta is not None:
                new_tablets.append(meta)
                self.counters.bytes_merge_written += meta.size_bytes
                self.counters.rows_merge_written += meta.row_count
                rows_rewritten = meta.row_count
            self.counters.merges += 1
            self.disk.fire("merge.before_descriptor")
            self.descriptor.tablets = new_tablets
            self.descriptor.save(self.disk)
            self.disk.fire("merge.after_descriptor")
            self._defer_delete_locked(plan.tablets)
            self._bump_cache_generation()
            reapable = self._claim_reapable_locked()
        self._dispose(reapable)
        self._h_swap_hold.observe(
            (time.perf_counter() - swap_started) * 1e6)
        # Per-period rewrite counters make the appendix's O(log T)
        # per-row rewrite bound empirically checkable: rows_rewritten
        # divided by insert.rows bounds the mean rewrite count.
        level = plan.period.level.name.lower()
        duration_us = (time.perf_counter() - started) * 1e6
        m = self.metrics
        m.counter("merge.count").inc()
        m.counter("merge.tablets_merged").inc(len(plan.tablets))
        m.counter("merge.rows_rewritten").inc(rows_rewritten)
        if meta is not None:
            m.counter("merge.bytes_written").inc(meta.size_bytes)
        m.counter(f"merge.count.{level}").inc()
        m.counter(f"merge.rows_rewritten.{level}").inc(rows_rewritten)
        m.histogram("merge.duration_us").observe(duration_us)

    def _merge_blockwise(self, plan: MergePlan,
                         readers: List[TabletReader], writer: TabletWriter,
                         filename: str, tablet_id: int, now: int
                         ) -> Optional[TabletMeta]:
        """Merge same-schema sources block-at-a-time into a v2 tablet.

        Time-partitioned tablets rarely interleave, so most blocks'
        key ranges are disjoint from every other source's remaining
        keys; those are appended as raw compressed payloads without
        decoding.  Only genuinely overlapping stretches are decoded -
        whole blocks at a time through the compiled codec - and even
        then rows are emitted in provably-least *runs* (bisect against
        the other sources' frontier) rather than one heap pop per row.
        v1 source blocks are always decoded, so the output upgrades
        them to v2.
        """
        sink = writer.sink(expected_rows=plan.total_rows)
        # Every source row survives a merge, so the output's timespan
        # and zone map are exactly the union of the sources' metadata;
        # passthrough blocks never reveal their rows, so these cannot
        # be tracked per-row.
        sink.note_ts_bounds(min(t.min_ts for t in plan.tablets),
                            max(t.max_ts for t in plan.tablets))
        min_key = min(t.min_key for t in plan.tablets)
        max_key = max(t.max_key for t in plan.tablets)
        # Don't interleave passthrough blocks with tiny row-built
        # fragments: require the pending block to be empty or at least
        # a quarter full before sealing it early.
        frag_floor = self.config.block_size_bytes // 4
        upgraded = 0
        sources = [_MergeSource(r) for r in readers]
        while True:
            sources = [s for s in sources if not s.exhausted]
            if not sources:
                break
            # A block at some source's boundary whose keys all precede
            # every other source's remaining keys can move as a unit.
            best = best_entry = None
            for s in sources:
                if s.rows is not None:
                    continue
                entry = s.entries[s.index]
                last = entry.last_key
                ok = True
                for t in sources:
                    if t is s:
                        continue
                    if t.rows is not None:
                        if t.keys[t.pos] <= last:
                            ok = False
                            break
                    elif t.lo_bound is None or t.lo_bound < last:
                        # t's remaining keys are only known to exceed
                        # its lo_bound; that bound must cover ``last``.
                        ok = False
                        break
                if ok and (best is None or last < best_entry.last_key):
                    best, best_entry = s, entry
            if best is not None:
                reader = best.reader
                if (reader.block_format == BLOCK_FORMAT_V2
                        and reader.codec_byte == sink.codec
                        and (sink.pending_bytes == 0
                             or sink.pending_bytes >= frag_floor)):
                    payload = reader.read_block_payload(best.index)
                    sink.add_block_passthrough(
                        payload, best_entry.row_count, best_entry.last_key)
                    if sink.wants_bloom:
                        raw = decompress(reader.codec_byte, payload)
                        cols = reader.schema_codec.decode_key_columns(
                            raw, include_ts=False)
                        if cols:
                            sink.add_bloom_prefixes(zip(*cols))
                    best.skip_block()
                else:
                    # Right block, wrong format/codec/fill: take the
                    # row path (decoding a v1 block here is what
                    # upgrades it to v2 in the output).
                    if reader.block_format == BLOCK_FORMAT_V1:
                        upgraded += 1
                    best.decode_next()
                continue
            # Overlap: decode every boundary source's next block, then
            # emit the longest provably-least run in bulk.
            for s in sources:
                if s.rows is None:
                    if s.reader.block_format == BLOCK_FORMAT_V1:
                        upgraded += 1
                    s.decode_next()
            add_row = sink.add_row
            while True:
                winner = min(sources, key=lambda s: s.keys[s.pos])
                others = [s.keys[s.pos] for s in sources
                          if s is not winner]
                if others:
                    cut = bisect.bisect_left(winner.keys, min(others),
                                             winner.pos)
                    if cut <= winner.pos:
                        cut = winner.pos + 1
                else:
                    cut = len(winner.rows)
                rows, keys = winner.rows, winner.keys
                for i in range(winner.pos, cut):
                    add_row(rows[i], key=keys[i])
                winner.pos = cut
                if cut == len(rows):
                    winner.finish_pending()
                    break  # boundary reached: passthrough gets a shot
        if upgraded:
            self._codec.note_upgraded_blocks(upgraded)
        return sink.finish(filename, tablet_id, created_at=now,
                           min_key=min_key, max_key=max_key)

    def _merge_streams(self, sources: List[Iterator[Tuple[Any, ...]]]
                       ) -> Iterator[Tuple[Any, ...]]:
        import heapq

        key_of = self.schema.key_of
        return heapq.merge(*sources, key=key_of)

    def _guarded_tablet_rows(self, meta: TabletMeta,
                             key_range: Optional[KeyRange] = None,
                             descending: bool = False
                             ) -> Iterator[Tuple[Any, ...]]:
        """A tablet scan with corruption isolation.

        A checksum or structural failure (or a vanished file)
        quarantines the tablet - descriptor drops it, file moves to
        ``quarantine/`` - and then re-raises for the in-flight query.
        Detection is never silent: this query gets a typed error, the
        ``storage.checksum_failures`` / ``storage.quarantined_tablets``
        metrics advance, and *subsequent* queries serve from the
        remaining tablets.  Rows already yielded from the bad tablet's
        earlier blocks were CRC-verified, so nothing corrupt was ever
        returned.
        """
        try:
            yield from self._tablet_rows_translated(meta, key_range,
                                                    descending)
        except (CorruptTabletError, StorageError) as exc:
            if self.config.quarantine_on_corruption:
                self.quarantine_tablet(
                    meta, f"{type(exc).__name__}: {exc}")
            raise

    def _tablet_rows_translated(self, meta: TabletMeta,
                                key_range: Optional[KeyRange] = None,
                                descending: bool = False
                                ) -> Iterator[Tuple[Any, ...]]:
        """Scan a tablet, translating old-schema rows (§3.5)."""
        reader = self._reader(meta)
        reader.ensure_loaded()
        rows = reader.scan(key_range or KeyRange.all(), descending)
        if reader.schema.version == self.schema.version:
            return rows
        return (
            self.schema.translate_row(row, reader.schema) for row in rows
        )

    def _memtable_rows_translated(self, memtable: MemTable,
                                  key_range: KeyRange,
                                  descending: bool = False
                                  ) -> Iterator[Tuple[Any, ...]]:
        """Scan a memtable, translating rows written under an older
        schema (a schema change retires filling memtables, but they
        stay readable until flushed)."""
        rows = memtable.scan(key_range, descending)
        if memtable.schema.version == self.schema.version:
            return rows
        return (
            self.schema.translate_row(row, memtable.schema) for row in rows
        )

    # -------------------------------------------------------------- TTL

    def expire_tablets(self) -> int:
        """Drop tablets whose rows have all passed the TTL (§3.3).

        Returns the number of tablets reclaimed.
        """
        with self._maintenance_lock:
            ttl = self.descriptor.ttl_micros
            if ttl is None:
                return 0
            cutoff = self.clock.now() - ttl
            expired = [t for t in self.descriptor.tablets
                       if t.max_ts < cutoff]
            if not expired:
                return 0
            expired_ids = {t.tablet_id for t in expired}
            expired_rows = sum(t.row_count for t in expired)
            with self.tracer.span("ttl_expire", table=self.name,
                                  tablets=len(expired), rows=expired_rows):
                with self.lock:
                    self.disk.fire("ttl.before_descriptor")
                    self.descriptor.tablets = [
                        t for t in self.descriptor.tablets
                        if t.tablet_id not in expired_ids
                    ]
                    self.descriptor.save(self.disk)
                    self.disk.fire("ttl.after_descriptor")
                    self._defer_delete_locked(expired)
                    self._bump_cache_generation()
                    reapable = self._claim_reapable_locked()
                self._dispose(reapable)
            self.counters.tablets_expired += len(expired)
            self.metrics.counter("ttl.tablets_expired").inc(len(expired))
            self.metrics.counter("ttl.rows_expired").inc(expired_rows)
            return len(expired)

    # ------------------------------------------------------ maintenance

    def maintenance(self, merge_budget: int = 1,
                    expire_ttl: bool = True) -> TableMaintenanceReport:
        """One background tick: due flushes, budgeted merges, TTL.

        Returns a typed :class:`TableMaintenanceReport` (dict-style
        access kept for compatibility).  Each work kind is isolated:
        a failing flush still lets merges and TTL reclaim run, with
        the error recorded on the report and counted by the
        ``maintenance.errors`` metric.
        """
        report = TableMaintenanceReport(table=self.name)
        now = self.clock.now()
        try:
            for memtable_id in self.pending_flush_work(now):
                if memtable_id in self._unflushed:
                    report.flushed += len(self.flush_memtable(memtable_id))
        except Exception as exc:  # crash isolation per work kind
            self._record_maintenance_error(report, "flush", exc)
        try:
            for _ in range(max(int(merge_budget), 0)):
                if self.maybe_merge() is None:
                    break
                report.merged += 1
        except Exception as exc:
            self._record_maintenance_error(report, "merge", exc)
        if expire_ttl:
            try:
                report.expired = self.expire_tablets()
            except Exception as exc:
                self._record_maintenance_error(report, "ttl", exc)
        return report

    def _record_maintenance_error(self, report: TableMaintenanceReport,
                                  kind: str, exc: BaseException) -> None:
        report.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        self.metrics.counter("maintenance.errors").inc()
        self._notify_fault(exc)

    def _notify_fault(self, exc: BaseException) -> None:
        """Tell the database about a storage-level failure (it decides
        whether to degrade to read-only).  Duplicate notifications for
        one failure are fine - the listener is idempotent."""
        listener = self._fault_listener
        if listener is not None:
            listener(exc)

    def maintenance_due(self, now: Optional[int] = None,
                        include_merge: bool = True) -> bool:
        """Cheap work-selection probe for the scheduler: True when a
        maintenance pass would (probably) do something - a queued or
        due flush, an expirable tablet, or a mergeable run."""
        if now is None:
            now = self.clock.now()
        with self.lock:
            if self._flush_pending or self._pending_deletes:
                return True
            filling = list(self._filling.values())
            tablets = self.descriptor.tablets
        for memtable in filling:
            if memtable.empty:
                continue
            if (memtable.size_bytes >= self.config.flush_size_bytes
                    or memtable.age_micros(now)
                    >= self.config.flush_age_micros):
                return True
        ttl = self.descriptor.ttl_micros
        if ttl is not None:
            cutoff = now - ttl
            if any(t.max_ts < cutoff for t in tablets):
                return True
        if include_merge:
            hot = [t for t in tablets if t.tier != "cold"]
            if not is_quiescent(hot, now, self.name, self.config):
                return True
        return False

    # ------------------------------------------------------------ query

    def _read_state(self) -> Tuple[int, List[TabletMeta], List[MemTable]]:
        """One consistent (generation, tablets, memtables) snapshot.

        A single brief state-lock hold; the tablet list is
        copy-on-write so the returned binding never mutates, and
        memtables are safe for concurrent reads (a scan racing an
        insert sees some, all, or none of it, §3.1).
        """
        with self.lock:
            return (self.descriptor.generation,
                    self.descriptor.tablets,
                    [m for m in self._unflushed.values() if not m.empty])

    def scan(self, query: Query) -> Iterator[Tuple[Any, ...]]:
        """Stream rows for a query without the server row limit.

        Accounting still accumulates into :attr:`counters`.
        """
        stats = QueryStats()
        epoch = self._begin_read()
        try:
            yield from self._execute(query, stats)
        finally:
            self._end_read(epoch)
            self._absorb_stats(stats)

    def query(self, query: Query) -> QueryResult:
        """Execute one query command with the server row limit (§3.5).

        Runs entirely off the table lock against a snapshot: an
        in-flight merge, flush, or TTL reclaim never blocks it.
        """
        query_started = time.perf_counter()
        stats = QueryStats()
        limit = self.config.server_row_limit
        if query.limit is not None:
            limit = min(limit, query.limit)
        rows: List[Tuple[Any, ...]] = []
        more_available = False
        epoch = self._begin_read()
        try:
            for row in self._execute(query, stats):
                if len(rows) == limit:
                    more_available = True
                    break
                rows.append(row)
        finally:
            self._end_read(epoch)
        self._absorb_stats(stats)
        self.counters.queries += 1
        self._m_queries.inc()
        self._h_query_latency.observe(
            (time.perf_counter() - query_started) * 1e6)
        return QueryResult(rows, more_available, stats)

    def _absorb_stats(self, stats: QueryStats) -> None:
        self.counters.rows_scanned += stats.rows_scanned
        self.counters.rows_returned += stats.rows_returned
        self._m_rows_scanned.inc(stats.rows_scanned)
        self._m_rows_returned.inc(stats.rows_returned)

    def _execute(self, query: Query, stats: QueryStats
                 ) -> Iterator[Tuple[Any, ...]]:
        now = self.clock.now()
        descending = query.direction == DESCENDING
        generation, tablets, memtables = self._read_state()
        sources: List[Iterator[Tuple[Any, ...]]] = []
        selected, pruned = self._prune_index.select_snapshot(
            generation, tablets, query.time_range, query.key_range)
        if pruned:
            stats.tablets_pruned += pruned
            self._m_tablets_pruned.inc(pruned)
        for meta in selected:
            stats.tablets_opened += 1
            sources.append(
                self._guarded_tablet_rows(meta, query.key_range, descending)
            )
        for memtable in memtables:
            if not query.time_range.overlaps(memtable.min_ts,
                                             memtable.max_ts):
                continue
            sources.append(self._memtable_rows_translated(
                memtable, query.key_range, descending))
        if not sources:
            return iter(())
        return execute_query(sources, self.schema, query, now,
                             self.descriptor.ttl_micros, stats)

    # ------------------------------------------ vectorized aggregation

    def prune_preview(self, time_range: TimeRange, key_range: KeyRange
                      ) -> Tuple[int, int]:
        """``(tablets that would open, total on disk)`` for a bounding
        box - the same zone-map + time-interval pruning every scan and
        aggregate pushdown applies, exposed for ``EXPLAIN``.  Metadata
        only: no tablet is opened and no counters advance.
        """
        with self.lock:
            generation = self.descriptor.generation
            tablets = self.descriptor.tablets
        selected, _pruned = self._prune_index.select_snapshot(
            generation, tablets, time_range, key_range)
        return len(selected), len(tablets)

    def aggregate_partials(self, spec: AggregateSpec) -> AggregatePartials:
        """Vectorized partial aggregation over this table's sources.

        The pushed-down counterpart of :meth:`_execute` for aggregate
        queries: the same snapshot/epoch discipline and the same
        zone-map + time-interval tablet pruning, but v2 tablets are
        consumed column-major - whole decoded columns flow through the
        predicate and accumulation kernels with no per-row tuple
        materialization.  v1 tablets, old-schema tablets, and memtables
        fall back to row-at-a-time accumulation.  Primary keys are
        unique across sources (§3.4.4), so per-source partials combine
        by simple merge; the executor (or the shard router) finalizes.

        Query accounting matches the row path: ``rows_scanned`` counts
        rows inside the key bounds, ``rows_returned`` those alive after
        the time/TTL filter, and pruned tablets advance the same
        ``query.tablets_pruned`` counter plain selects use.
        """
        now = self.clock.now()
        ttl = self.descriptor.ttl_micros
        cutoff = None if ttl is None else now - ttl
        tlo, thi = resolve_time_bounds(spec.time_range, cutoff)
        stats = QueryStats()
        partials = AggregatePartials()
        groups = partials.groups
        ts_index = self.schema.ts_index
        generation, tablets, memtables = self._read_state()
        selected, pruned = self._prune_index.select_snapshot(
            generation, tablets, spec.time_range, spec.key_range)
        if pruned:
            stats.tablets_pruned += pruned
            self._m_tablets_pruned.inc(pruned)
        epoch = self._begin_read()
        try:
            for meta in selected:
                stats.tablets_opened += 1
                try:
                    self._aggregate_tablet(meta, spec, groups, stats,
                                           tlo, thi, ts_index)
                except (CorruptTabletError, StorageError) as exc:
                    if self.config.quarantine_on_corruption:
                        self.quarantine_tablet(
                            meta, f"{type(exc).__name__}: {exc}")
                    raise
            for memtable in memtables:
                if not spec.time_range.overlaps(memtable.min_ts,
                                                memtable.max_ts):
                    continue
                rows = self._memtable_rows_translated(memtable,
                                                      spec.key_range)
                scanned, returned, aggregated = accumulate_rows(
                    groups, spec, ts_index, rows, tlo, thi)
                stats.rows_scanned += scanned
                stats.rows_returned += returned
                self._m_push_rows_fallback.inc(scanned)
                self._m_push_rows_filtered.inc(scanned - aggregated)
        finally:
            self._end_read(epoch)
        self._absorb_stats(stats)
        self.counters.queries += 1
        self._m_queries.inc()
        self._m_push_queries.inc()
        return partials

    def _aggregate_tablet(self, meta: TabletMeta, spec: AggregateSpec,
                          groups: Dict[Any, List[List[Any]]],
                          stats: QueryStats, tlo: Optional[int],
                          thi: Optional[int], ts_index: int) -> None:
        """Fold one tablet into the partial group states.

        v2 same-schema tablets take the columnar path: interior blocks
        proven fully inside the key bounds by the block index's last
        keys never materialize row keys at all; only the edge blocks
        binary-search their key lists for the exact trim.
        """
        reader = self._reader(meta)
        reader.ensure_loaded()
        if (reader.block_format != BLOCK_FORMAT_V2
                or reader.schema.version != self.schema.version):
            # v1 blocks decode row-major, and old-schema tablets need
            # per-row translation: row-at-a-time fallback for both.
            rows = self._tablet_rows_translated(meta, spec.key_range)
            scanned, returned, aggregated = accumulate_rows(
                groups, spec, ts_index, rows, tlo, thi)
            stats.rows_scanned += scanned
            stats.rows_returned += returned
            self._m_push_blocks_fallback.inc(reader.block_count)
            self._m_push_rows_fallback.inc(scanned)
            self._m_push_rows_filtered.inc(scanned - aggregated)
            return
        if reader.block_count == 0:
            return
        key_range = spec.key_range
        first = reader.first_block_for(key_range)
        last = reader.last_block_for(key_range)
        last_keys = reader.last_keys
        no_min = key_range.min_prefix is None
        no_max = key_range.max_prefix is None
        for index in range(first, last + 1):
            full_min = no_min or (
                index > 0
                and not key_range.before_range(last_keys[index - 1]))
            full_max = no_max or not key_range.after_range(last_keys[index])
            need_keys = not (full_min and full_max)
            columns, keys, count = reader.scan_block_columns(
                index, need_keys=need_keys)
            if need_keys:
                lo, hi = key_bounds(keys, key_range)
            else:
                lo, hi = 0, count
            if lo >= hi:
                continue
            in_bounds = hi - lo
            stats.rows_scanned += in_bounds
            sel = time_filter(columns[ts_index], lo, hi, tlo, thi)
            returned = in_bounds if sel is None else len(sel)
            stats.rows_returned += returned
            if spec.residuals:
                sel = residual_filter(columns, spec.residuals, sel, lo, hi)
            aggregated = in_bounds if sel is None else len(sel)
            self._m_push_blocks.inc()
            self._m_push_rows_columnar.inc(in_bounds)
            self._m_push_rows_filtered.inc(in_bounds - aggregated)
            if aggregated:
                accumulate(groups, spec, columns, ts_index, sel, lo, hi)

    # ------------------------------------------- latest row for a prefix

    def latest(self, prefix: Sequence[Any],
               max_lookback_micros: Optional[int] = None
               ) -> Optional[Tuple[Any, ...]]:
        """Find the latest row whose key starts with ``prefix`` (§3.4.5).

        Works backwards through groups of tablets with overlapping
        timespans, so it usually stops after the newest group.  When
        the prefix covers all key columns except the timestamp, the
        first row of a descending cursor is the answer; otherwise the
        whole prefix within each group is scanned for the maximum
        timestamp.  Bloom filters skip groups that cannot contain the
        prefix.  ``max_lookback_micros`` optionally bounds the search
        (used by EventsGrabber, §4.2).
        """
        prefix = tuple(prefix)
        if len(prefix) >= self.schema.key_width:
            raise QueryError("prefix must be shorter than the full key")
        now = self.clock.now()
        cutoff = None
        ttl = self.descriptor.ttl_micros
        if ttl is not None:
            cutoff = now - ttl
        if max_lookback_micros is not None:
            lookback_cutoff = now - max_lookback_micros
            cutoff = lookback_cutoff if cutoff is None else max(
                cutoff, lookback_cutoff)
        # One atomic capture: generation + insert seq + sources.  The
        # generation gates cached answers; the insert seq lets the
        # store below detect that an insert overtook this scan.
        with self.lock:
            generation = self._cache_generation
            insert_seq = self._insert_seq
            tablets = self.descriptor.tablets
            memtables = [m for m in self._unflushed.values() if not m.empty]
        # Hot-row cache: the dashboard asks for the same devices'
        # newest rows over and over (§3.4.5).  A cached answer is the
        # table's *global* latest for the prefix, so the TTL/lookback
        # window is re-applied at lookup time; inserts covering the
        # prefix and all tablet-set mutations invalidate.
        cached = self._latest_cache.lookup(
            prefix, generation, cutoff, self.schema.ts_of)
        if cached is not self._latest_cache.miss_sentinel:
            self.counters.queries += 1
            self.counters.rows_returned += 1 if cached is not None else 0
            self._m_queries.inc()
            self._m_rows_returned.inc(1 if cached is not None else 0)
            return cached
        full_prefix = len(prefix) == self.schema.key_width - 1
        encoded_prefix = None
        if self.config.bloom_filters and prefix:
            encoded_prefix = self._row_codec.encode_prefix_columns(prefix)
        key_range = KeyRange.prefix(prefix)
        stats = QueryStats()
        best: Optional[Tuple[Any, ...]] = None
        epoch = self._begin_read()
        try:
            for group in self._timespan_groups(tablets, memtables, key_range):
                group_max = max(
                    span_max for _src, _span_min, span_max in group)
                if cutoff is not None and group_max < cutoff:
                    break
                sources = []
                for source, _span_min, _span_max in group:
                    if (encoded_prefix is not None
                            and isinstance(source, TabletMeta)):
                        reader = self._reader(source)
                        probe = reader.may_contain_prefix(encoded_prefix)
                        if probe is False:
                            continue
                    if isinstance(source, TabletMeta):
                        sources.append(self._tablet_rows_translated(
                            source, key_range, descending=True))
                    else:
                        sources.append(self._memtable_rows_translated(
                            source, key_range, descending=True))
                if not sources:
                    continue
                merged = execute_query(
                    sources, self.schema,
                    Query(key_range, TimeRange.all(), DESCENDING),
                    now, self.descriptor.ttl_micros, stats,
                )
                for row in merged:
                    ts = self.schema.ts_of(row)
                    if cutoff is not None and ts < cutoff:
                        continue
                    if full_prefix:
                        best = row
                        break
                    if best is None or ts > self.schema.ts_of(best):
                        best = row
                if best is not None:
                    break
        finally:
            self._end_read(epoch)
        # A latest-row query returns at most one row to the client no
        # matter how many rows it scanned - this asymmetry is exactly
        # what produces Figure 9's long tail (§5.2.4).
        self.counters.rows_scanned += stats.rows_scanned
        self.counters.rows_returned += 1 if best is not None else 0
        self.counters.queries += 1
        self._m_queries.inc()
        self._m_rows_scanned.inc(stats.rows_scanned)
        self._m_rows_returned.inc(1 if best is not None else 0)
        with self.lock:
            # Store only if no insert or mutation overtook the scan:
            # an insert racing this lookup may have added a newer row
            # for the prefix that the snapshot cannot see, and the
            # insert's invalidate_key fired before this store.
            if (self._insert_seq == insert_seq
                    and self._cache_generation == generation):
                self._latest_cache.store(prefix, generation, best, cutoff)
        return best

    def _timespan_groups(self, tablets: Sequence[TabletMeta],
                         memtables: Sequence[MemTable],
                         key_range: Optional[KeyRange] = None):
        """Sources grouped by overlapping timespans, newest first.

        Operates on a caller-provided snapshot of tablets/memtables so
        it never touches mutable table state.  Each group is a list of
        (source, span_min, span_max) where the source is a TabletMeta
        or a MemTable.  Groups are maximal runs of sources whose
        timespans form a connected interval chain.

        ``key_range`` optionally drops tablets whose key-range zone map
        proves they cannot hold a qualifying row; removing sources only
        splits groups into still-time-disjoint subgroups, so the
        newest-first dominance argument in :meth:`latest` is preserved.
        """
        spans = []
        pruned = 0
        for meta in tablets:
            if key_range is not None and _zone_map_excludes(meta, key_range):
                pruned += 1
                continue
            spans.append((meta, meta.min_ts, meta.max_ts))
        if pruned:
            self._m_tablets_pruned.inc(pruned)
        for memtable in memtables:
            if not memtable.empty:
                spans.append((memtable, memtable.min_ts, memtable.max_ts))
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
                    bin_key = (memtable.period.start,
                               int(memtable.period.level))
                    del self._filling[bin_key]
                    del self._unflushed[memtable.memtable_id]
                else:
                    self._retire_memtable(memtable)
            self.descriptor.schema = schema
            self._row_codec = RowCodec(schema)
            self._codec = SchemaCodec(schema, self.metrics)
            self.descriptor.save(self.disk)
            # Cached blocks hold rows decoded at each tablet's own
            # schema (translated downstream), but a schema change
            # is rare enough to drop the table's read-cache entries
            # wholesale and orphan every cached latest() answer.
            with self._reader_lock:
                uids = list(self._tablet_uids.values())
            self._bump_cache_generation()
        self._read_cache.invalidate_tablets(uids)
