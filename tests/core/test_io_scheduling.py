"""The maintenance loop's ordering and stop contract.

Flush debt is ticked before merge debt within one pass, ``stop()``
during a pass never starts another table, and ``stop()``'s
backpressure disarm wakes a stalled insert.  (The queue these cases
once inspected - priorities, sentinels, ``_queued`` - is gone; what
they pinned is asserted on the pass itself.)
"""

import threading
import time

from repro.core import MaintenancePolicy, MaintenanceScheduler

from ..conftest import usage_schema


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


def record_ticks(table, ran, before=None):
    """Wrap one table's ``maintenance`` to log its name into ``ran``
    (and run ``before`` first)."""
    original = table.maintenance

    def recording(**kwargs):
        ran.append(table.name)
        if before is not None:
            before()
        return original(**kwargs)

    table.maintenance = recording


class TestSchedulerPriorities:
    def test_flush_debt_outranks_merge_debt(self, db, clock):
        # Catalog order is alphabetical, so the merge-only table would
        # be ticked first if flush debt did not outrank it.
        merger = db.create_table("a_merge_only", usage_schema())
        for batch in range(2):
            merger.insert([row(d, clock.now() + batch)
                           for d in range(400)])
            merger.flush_all()
        clock.advance_seconds(120)
        assert not merger.pending_flush_work(clock.now())
        idle = db.create_table("b_idle", usage_schema())
        flusher = db.create_table("z_flush_due", usage_schema())
        flusher.insert([row(d, clock.now()) for d in range(1200)])
        assert flusher.flush_pending_count > 0    # retired memtable
        ran = []
        for table in (merger, idle, flusher):
            record_ticks(table, ran)
        report = MaintenanceScheduler(db, MaintenancePolicy()).run_pass()
        assert ran == ["z_flush_due", "a_merge_only", "b_idle"]
        assert report.tables["z_flush_due"].flushed >= 1
        assert report.tables["a_merge_only"].merged == 1
        assert not report.tables["b_idle"].did_work


class TestSchedulerStopOrdering:
    def test_pending_names_never_run_after_stop(self, db, clock):
        """stop() during a pass lets the table in flight finish and
        starts no other: the pass checks the stop flag between
        tables."""
        for name in ("aaa_blocker", "bbb_pending"):
            table = db.create_table(name, usage_schema())
            table.insert([row(d, clock.now()) for d in range(1200)])
        ran = []
        release = threading.Event()
        record_ticks(db.table("aaa_blocker"), ran,
                     before=lambda: release.wait(timeout=10))
        record_ticks(db.table("bbb_pending"), ran)
        scheduler = MaintenanceScheduler(
            db, MaintenancePolicy(tick_interval_s=0.01, workers=1))
        scheduler.start()
        deadline = time.monotonic() + 5
        while not ran and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ran == ["aaa_blocker"]
        # Release the in-flight tick shortly after stop() begins.
        threading.Timer(0.2, release.set).start()
        scheduler.stop()
        assert not scheduler.running
        assert ran == ["aaa_blocker"]
        assert db.table("aaa_blocker").on_disk_tablets    # it finished
        assert not db.table("bbb_pending").on_disk_tablets

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
        scheduler.start()   # the 60 s interval means no pass (so no
        # flush) happens before our stop
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
