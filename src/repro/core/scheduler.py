"""The maintenance scheduler: the one way background work runs.

The paper's deployment runs "a background thread [that] periodically
merges tablets" and flushes by age (§3.3) - continuously, without
stalling the writer.  This module is that thread (well, threads) for
the reproduction, shared by the embedded and served configurations:

* a **ticker** wakes every ``policy.tick_interval_s``, scans the
  catalog for tables with due work (:meth:`Table.maintenance_due` is a
  cheap probe), and enqueues them;
* a pool of ``policy.workers`` **workers** drains a *priority* queue,
  running :meth:`Table.maintenance` per table.  Tables with flush debt
  (queued or due memtables) always outrank tables that only owe
  merges or TTL expiry: an unflushed memtable holds up the writer
  (backpressure) and, on the WAL tier, log recycling, while merge
  debt merely costs read amplification until it drains.  A table is
  never enqueued twice concurrently, so two workers cannot contend on
  one table's maintenance lock; distinct tables proceed in parallel.
* the ticker also arms each table's **insert backpressure** (re-armed
  every tick, so tables created after ``start()`` pick it up too),
  and ``stop()`` disarms it.

Crash isolation is per table per tick: a failing flush on one table is
recorded on that table's report (and the ``maintenance.errors``
counter) while every other table's work proceeds.  The ticker itself
never dies to an exception.

Observability: ``maintenance.queue_depth`` (gauge),
``maintenance.ticks``, ``maintenance.table_runs``,
``maintenance.tick_duration_us``, ``sched.flush_priority_runs`` /
``sched.merge_priority_runs``, ``sched.merge_debt_bytes``, plus
everything the tables record.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Optional, Set

from .errors import NoSuchTableError
from .maintenance import MaintenancePolicy, MaintenanceReport
from .merge import merge_debt_bytes

#: Queue priorities: flush debt always outranks merge/TTL backlog, and
#: the stop sentinel sorts after all real work.
_PRIORITY_FLUSH = 0
_PRIORITY_MERGE = 1
_PRIORITY_STOP = 1 << 30

#: Worker-queue entry payload telling a worker to exit.
_STOP = None


class MaintenanceScheduler:
    """Background worker pool running maintenance for one database.

    >>> db = LittleTable(maintenance_policy=MaintenancePolicy(
    ...     tick_interval_s=0.5, workers=2))
    >>> db.start_maintenance()      # doctest: +SKIP
    ... # inserts and queries proceed; flushes/merges/TTL run behind
    >>> db.stop_maintenance()       # doctest: +SKIP

    Usually owned by :class:`~repro.core.database.LittleTable` (via
    ``start_maintenance()``) or the server front (``policy=``);
    standalone construction works too.
    """

    def __init__(self, db, policy: Optional[MaintenancePolicy] = None,
                 metrics=None):
        if policy is None:
            policy = getattr(db, "maintenance_policy", None)
        if policy is None:
            policy = MaintenancePolicy()
        policy.validate()
        self.db = db
        self.policy = policy
        self.metrics = metrics if metrics is not None else db.metrics
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._seq = itertools.count()
        # Tables currently queued or being worked, so one table never
        # occupies two workers (its maintenance lock would serialize
        # them anyway; this keeps the second worker useful).
        self._queued: Set[str] = set()
        self._set_lock = threading.Lock()
        self._stop = threading.Event()
        self._ticker: Optional[threading.Thread] = None
        self._workers: list = []
        self._report_lock = threading.Lock()
        self._lifetime = MaintenanceReport()
        self._g_depth = self.metrics.gauge("maintenance.queue_depth")
        self._m_ticks = self.metrics.counter("maintenance.ticks")
        self._m_runs = self.metrics.counter("maintenance.table_runs")
        self._m_errors = self.metrics.counter("maintenance.errors")
        self._h_tick = self.metrics.histogram("maintenance.tick_duration_us")
        self._m_flush_runs = self.metrics.counter("sched.flush_priority_runs")
        self._m_merge_runs = self.metrics.counter("sched.merge_priority_runs")
        self._g_merge_debt = self.metrics.gauge("sched.merge_debt_bytes")

    @property
    def running(self) -> bool:
        return self._ticker is not None and self._ticker.is_alive()

    def start(self) -> None:
        """Start the ticker and the worker pool (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._workers = []
        for index in range(self.policy.workers):
            worker = threading.Thread(
                target=self._worker_loop, daemon=True,
                name=f"lt-maintenance-{index}")
            worker.start()
            self._workers.append(worker)
        self._ticker = threading.Thread(
            target=self._ticker_loop, daemon=True, name="lt-maintenance-tick")
        self._ticker.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop cleanly: finish in-flight table runs, disarm
        backpressure, drain the queue (idempotent).

        Pending (not yet picked up) table names are drained *before*
        the worker sentinels go in: a worker must never start a fresh
        table run after ``stop()`` begins, only finish the one it is
        already in.  (The old ordering drained after joining, so names
        queued ahead of the sentinels still ran.)
        """
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=timeout)
            self._ticker = None
        # Drain un-started work first, so the sentinels are the next
        # thing every worker sees.  Only drained names leave _queued;
        # a name a worker is mid-run on stays held until its finally.
        for _priority, _seq, name in self._drain_queue():
            if name is not _STOP:
                with self._set_lock:
                    self._queued.discard(name)
        for _worker in self._workers:
            self._queue.put((_PRIORITY_STOP, next(self._seq), _STOP))
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._workers = []
        # A racing tick() (tests drive it directly) may have enqueued
        # between the drain and the joins; clear the leftovers.
        self._drain_queue()
        with self._set_lock:
            self._queued.clear()
        self._g_depth.set(0)
        # Stalled inserts must not wait out their full budget against a
        # scheduler that will never flush: disarm wakes them all.
        for name in self.db.table_names():
            try:
                self.db.table(name).set_flush_backpressure(None)
            except NoSuchTableError:
                pass

    def _drain_queue(self) -> list:
        drained = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                return drained

    # ------------------------------------------------------------- loops

    def _ticker_loop(self) -> None:
        while not self._stop.wait(self.policy.tick_interval_s):
            try:
                self.tick()
            except Exception:  # keep the loop alive, count the wound
                self._m_errors.inc()

    def tick(self) -> int:
        """One scheduling pass: arm backpressure, enqueue due tables
        (flush debt ahead of merge debt).

        Returns the number of tables enqueued.  Runs in the ticker
        normally; tests call it directly for determinism.
        """
        started = time.perf_counter()
        enqueued = 0
        merge_debt = 0
        for name in self.db.table_names():
            try:
                table = self.db.table(name)
            except NoSuchTableError:  # dropped between list and lookup
                continue
            # Re-armed every tick: tables created after start() get
            # backpressure too, and a policy change takes effect live.
            table.set_flush_backpressure(
                self.policy.max_flush_pending,
                wait_s=self.policy.backpressure_wait_s)
            now = table.clock.now()
            flush_due = bool(table.flush_pending_count
                             or table.pending_flush_work(now))
            if not flush_due:
                merge_debt += merge_debt_bytes(
                    table.descriptor.tablets, now, name, table.config)
            with self._set_lock:
                if name in self._queued:
                    continue
                if not table.maintenance_due(now=now):
                    continue
                self._queued.add(name)
            priority = _PRIORITY_FLUSH if flush_due else _PRIORITY_MERGE
            self._queue.put((priority, next(self._seq), name))
            (self._m_flush_runs if flush_due else self._m_merge_runs).inc()
            enqueued += 1
        self._g_merge_debt.set(merge_debt)
        self._m_ticks.inc()
        self._g_depth.set(self._queue.qsize())
        self._h_tick.observe((time.perf_counter() - started) * 1e6)
        return enqueued

    def _worker_loop(self) -> None:
        while True:
            _priority, _seq, name = self._queue.get()
            if name is _STOP:
                return
            try:
                self._run_table(name)
            finally:
                with self._set_lock:
                    self._queued.discard(name)
                self._g_depth.set(self._queue.qsize())

    def _run_table(self, name: str) -> None:
        try:
            table = self.db.table(name)
        except NoSuchTableError:  # dropped while queued
            return
        try:
            report = table.maintenance(
                merge_budget=self.policy.merge_budget_per_tick)
        except Exception as exc:  # Table.maintenance isolates per work
            # kind already; this catches the truly unexpected.
            from .maintenance import TableMaintenanceReport

            report = TableMaintenanceReport(
                table=name,
                errors=[f"maintenance: {type(exc).__name__}: {exc}"])
            self._m_errors.inc()
        self._m_runs.inc()
        with self._report_lock:
            self._lifetime.add(report)

    # ----------------------------------------------------------- queries

    def run_once(self) -> MaintenanceReport:
        """One synchronous pass over every table (no threads): what
        the deprecated ad-hoc loops called; also used by tests."""
        report = self.db.maintenance()
        with self._report_lock:
            self._lifetime.merge_from(report)
        return report

    def lifetime_report(self) -> MaintenanceReport:
        """Accumulated work since construction (copy)."""
        with self._report_lock:
            copied = MaintenanceReport()
            copied.merge_from(self._lifetime)
            return copied
