"""The maintenance scheduler: threads looping over the database's pass.

The paper's deployment runs "a background thread [that] periodically
merges tablets" and flushes by age (§3.3) - continuously, without
stalling the writer.  This module is that thread: ``policy.workers``
of them, each running, once per ``policy.tick_interval_s`` ::

    <arm insert backpressure on every table>
    db.maintenance(stop)

What a pass does - flush debt first, one tick per table, per-table
crash isolation, never two threads on one table - is
:meth:`LittleTable.maintenance`; the scheduler adds only the threads,
the **insert backpressure** (armed before every pass, so tables
created after ``start()`` get it and a policy change takes effect
live; disarmed by ``stop()``) and its accounting:
``maintenance.ticks``, ``maintenance.table_runs``,
``maintenance.tick_duration_us``.

A database owns its scheduler: ``db.start_maintenance()`` /
``db.stop_maintenance()``.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from .maintenance import MaintenancePolicy, MaintenanceReport


class MaintenanceScheduler:
    """Background maintenance threads for one database.

    >>> db = LittleTable(maintenance_policy=MaintenancePolicy(
    ...     tick_interval_s=0.5, workers=2))
    >>> db.start_maintenance()      # doctest: +SKIP
    ... # inserts and queries proceed; flushes/merges/TTL run behind
    >>> db.stop_maintenance()       # doctest: +SKIP

    The policy is the database's (``db.maintenance_policy``, read by
    every pass); one passed here is installed on the database.
    """

    def __init__(self, db, policy: Optional[MaintenancePolicy] = None):
        if policy is not None:
            policy.validate()
            db.maintenance_policy = policy
        self.db = db
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._m_ticks = db.metrics.counter("maintenance.ticks")
        self._m_runs = db.metrics.counter("maintenance.table_runs")
        self._h_tick = db.metrics.histogram("maintenance.tick_duration_us")

    @property
    def policy(self) -> MaintenancePolicy:
        return self.db.maintenance_policy

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def start(self) -> None:
        """Start ``policy.workers`` loop threads (idempotent)."""
        if self.running:
            return
        self.policy.validate()
        self._stop.clear()
        self._threads = [
            threading.Thread(target=self._loop, daemon=True,
                             name=f"lt-maintenance-{index}")
            for index in range(self.policy.workers)]
        for thread in self._threads:
            thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop cleanly (idempotent): a pass in flight finishes the
        table it is on and starts no other; then backpressure is
        disarmed, which wakes every stalled insert - none may wait
        out its budget against a loop that will never flush."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        for table in self.db.tables():
            table.set_flush_backpressure(None)

    def _loop(self) -> None:
        # Fixed rate, not fixed delay: a pass that outlasts the
        # interval (a merge) is followed at once by the next, which
        # flushes the memtables retired meanwhile.
        pause = self.policy.tick_interval_s
        while not self._stop.wait(pause):
            started = time.monotonic()
            self.run_pass(self._stop)
            pause = max(0.0, self.policy.tick_interval_s
                        - (time.monotonic() - started))

    def run_pass(self, stop: Optional[threading.Event] = None
                 ) -> MaintenanceReport:
        """Arm backpressure, run one database pass, account for it.
        What each loop thread repeats; synchronous and deterministic
        when called directly (tests, a simulator)."""
        started = time.perf_counter()
        policy = self.policy
        for table in self.db.tables():
            table.set_flush_backpressure(
                policy.max_flush_pending, wait_s=policy.backpressure_wait_s)
        report = self.db.maintenance(stop)
        self._m_ticks.inc()
        self._m_runs.inc(len(report.tables))
        self._h_tick.observe((time.perf_counter() - started) * 1e6)
        return report
