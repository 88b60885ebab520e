"""The maintenance scheduler's queue discipline.

Flush-debt-over-merge-debt priority scheduling, the ``stop()``
drain-before-join regression, and a stalled insert woken by
``stop()``'s backpressure disarm.
"""

import threading
import time

from repro.core import MaintenancePolicy, MaintenanceScheduler
from repro.core.scheduler import _PRIORITY_FLUSH, _PRIORITY_MERGE

from ..conftest import usage_schema


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


class TestSchedulerPriorities:
    def test_flush_debt_outranks_merge_debt(self, db, clock):
        merger = db.create_table("merge_only", usage_schema())
        for batch in range(2):
            merger.insert([row(d, clock.now() + batch)
                           for d in range(400)])
            merger.flush_all()
        clock.advance_seconds(120)
        assert merger.maintenance_due()           # merge work only
        assert not merger.pending_flush_work(clock.now())
        flusher = db.create_table("flush_due", usage_schema())
        flusher.insert([row(d, clock.now()) for d in range(1200)])
        assert flusher.flush_pending_count > 0    # retired memtable
        scheduler = MaintenanceScheduler(db, MaintenancePolicy())
        # Catalog order is alphabetical (flush_due first here), so to
        # prove *priority* ordering beat insertion order we check the
        # queue entries' priorities, then pop: flush debt drains first.
        assert scheduler.tick() == 2
        first = scheduler._queue.get_nowait()
        second = scheduler._queue.get_nowait()
        assert first[0] == _PRIORITY_FLUSH and first[2] == "flush_due"
        assert second[0] == _PRIORITY_MERGE and second[2] == "merge_only"
        snapshot = db.metrics.snapshot()
        assert snapshot["counters"]["sched.flush_priority_runs"] == 1
        assert snapshot["counters"]["sched.merge_priority_runs"] == 1
        assert snapshot["gauges"]["sched.merge_debt_bytes"] > 0


class TestSchedulerStopOrdering:
    def test_pending_names_never_run_after_stop(self, db, clock):
        """Regression: stop() used to enqueue worker sentinels behind
        already-queued table names, so a worker would start fresh
        table runs after stop() began.  Pending names must drain
        first."""
        for name in ("aaa_blocker", "bbb_pending"):
            table = db.create_table(name, usage_schema())
            table.insert([row(d, clock.now()) for d in range(1200)])
        ran = []
        release = threading.Event()
        blocker = db.table("aaa_blocker")
        original = blocker.maintenance

        def blocking_maintenance(**kwargs):
            ran.append("aaa_blocker")
            release.wait(timeout=10)
            return original(**kwargs)

        blocker.maintenance = blocking_maintenance
        pending = db.table("bbb_pending")
        original_pending = pending.maintenance

        def recording_maintenance(**kwargs):
            ran.append("bbb_pending")
            return original_pending(**kwargs)

        pending.maintenance = recording_maintenance
        policy = MaintenancePolicy(tick_interval_s=60, workers=1)
        scheduler = MaintenanceScheduler(db, policy)
        scheduler.start()
        scheduler.tick()  # enqueues both; the single worker blocks on A
        deadline = time.monotonic() + 5
        while "aaa_blocker" not in ran and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ran == ["aaa_blocker"]
        # Release the in-flight run shortly after stop() begins.
        threading.Timer(0.2, release.set).start()
        scheduler.stop()
        release.set()
        assert "bbb_pending" not in ran
        assert scheduler._queue.qsize() == 0
        assert not scheduler._queued

    def test_stop_disarms_backpressure_and_wakes_stalled_insert(
            self, db, clock):
        table = db.create_table("usage", usage_schema())
        # Retire one memtable into flush-pending, then arm a limit of
        # 1 with a long budget: the next insert stalls on the full
        # queue until stop() disarms.
        table.insert([row(d, clock.now()) for d in range(1200)])
        assert table.flush_pending_count >= 1
        policy = MaintenancePolicy(
            tick_interval_s=60, max_flush_pending=1,
            backpressure_wait_s=30)
        scheduler = MaintenanceScheduler(db, policy)
        scheduler.start()
        scheduler.tick()  # arms backpressure (and enqueues the table,
        # but the 60 s ticker means no flush happens before our stop)
        table.set_flush_backpressure(1, wait_s=30)  # deterministic arm
        stalled = threading.Event()
        done = threading.Event()

        def insert_one():
            stalled.set()
            table.insert([row(9999, clock.now() + 777)])
            done.set()

        thread = threading.Thread(target=insert_one, daemon=True)
        started = time.monotonic()
        thread.start()
        stalled.wait(timeout=5)
        time.sleep(0.1)  # let the insert reach the backpressure wait
        scheduler.stop()
        assert done.wait(timeout=5), "insert still stalled after stop()"
        elapsed = time.monotonic() - started
        assert elapsed < 10, "insert waited out its full budget"
        snapshot = db.metrics.snapshot()
        assert snapshot["counters"]["insert.backpressure_stalls"] >= 1
