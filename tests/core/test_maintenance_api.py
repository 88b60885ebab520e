"""The unified maintenance API: policy, typed reports, scheduler.

Covers MaintenancePolicy validation, the typed MaintenanceReport /
TableMaintenanceReport returns and their wire encoding, quiescence
covering every work kind, scheduler lifecycle, insert backpressure,
and per-table crash isolation.
"""

import threading
import time

import pytest

from repro.core import (EngineConfig, LittleTable, LockOrderChecker,
                        LockOrderError, MaintenancePolicy, MaintenanceReport,
                        MaintenanceScheduler, Query, TableMaintenanceReport,
                        instrument_table_locks, pending_merge_runs)
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY

from ..conftest import usage_schema


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


def make_flush_due(table, clock, devices=50):
    """Insert a small batch and age it past the flush-age threshold."""
    table.insert([row(d, clock.now()) for d in range(devices)])
    clock.advance_seconds(11 * 60)


# Enough rows to exceed small_config's 16 KiB flush size (~20 B/row),
# retiring the memtable into the flush-pending queue synchronously.
RETIRE_ROWS = 1200


class TestMaintenancePolicy:
    def test_defaults_validate(self):
        MaintenancePolicy().validate()

    @pytest.mark.parametrize("kwargs", [
        {"tick_interval_s": 0},
        {"tick_interval_s": -1},
        {"workers": 0},
        {"max_flush_pending": 0},
        {"backpressure_wait_s": -0.1},
        {"merge_budget_per_tick": -1},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MaintenancePolicy(**kwargs).validate()

    def test_none_flush_pending_disables_backpressure(self):
        MaintenancePolicy(max_flush_pending=None).validate()

    def test_database_accepts_policy(self, clock, small_config):
        policy = MaintenancePolicy(tick_interval_s=0.5, workers=2)
        db = LittleTable(disk=SimulatedDisk(), config=small_config,
                        clock=clock, maintenance_policy=policy)
        assert db.maintenance_policy is policy


class TestReports:
    def test_did_work_counts_errors(self):
        assert not TableMaintenanceReport(table="t").did_work
        assert TableMaintenanceReport(table="t", expired=1).did_work
        assert TableMaintenanceReport(table="t", errors=["boom"]).did_work

    def test_database_report_aggregates(self):
        report = MaintenanceReport()
        report.add(TableMaintenanceReport(table="a", flushed=1))
        report.add(TableMaintenanceReport(table="b", merged=2,
                                          errors=["x"]))
        report.add(TableMaintenanceReport(table="a", flushed=3))
        assert report.flushed == 4
        assert report.merged == 2
        assert report.errors == ["b: x"]
        totals = report.totals()
        assert (totals.flushed, totals.merged) == (4, 2)
        assert not report.is_quiet
        assert MaintenanceReport().is_quiet

    def test_report_wire_encoding(self):
        report = MaintenanceReport()
        report.add(TableMaintenanceReport(table="usage", flushed=2,
                                          merged=1))
        assert report.tables["usage"].as_dict() == {
            "flushed": 2, "merged": 1, "expired": 0, "errors": []}
        assert report.as_dict() == {
            "usage": {"flushed": 2, "merged": 1, "expired": 0,
                      "errors": []}}

    def test_table_maintenance_returns_typed_report(self, usage_table,
                                                    clock):
        make_flush_due(usage_table, clock)
        report = usage_table.maintenance()
        assert isinstance(report, TableMaintenanceReport)
        assert report.table == "usage"
        assert report.flushed >= 1

    def test_database_maintenance_returns_typed_report(self, db, clock):
        table = db.create_table("usage", usage_schema())
        make_flush_due(table, clock)
        report = db.maintenance()
        assert isinstance(report, MaintenanceReport)
        assert report.tables["usage"].flushed >= 1


class TestQuiescence:
    def test_until_quiet_covers_ttl_expiry(self, db, clock):
        """TTL-only work must keep the loop going (the old check
        ignored ``expired`` and declared quiet a round early)."""
        table = db.create_table("usage", usage_schema(),
                                ttl_micros=MICROS_PER_DAY)
        table.insert([row(d, clock.now()) for d in range(10)])
        table.flush_all()
        clock.advance_seconds(3 * 24 * 3600)
        # The only remaining work is expiry.
        rounds = db.maintenance_until_quiet()
        assert rounds >= 1
        assert table.on_disk_tablets == []

    def test_until_quiet_returns_zero_when_quiet(self, db):
        db.create_table("usage", usage_schema())
        assert db.maintenance_until_quiet() == 0


class TestCrashIsolation:
    def test_failing_merge_does_not_stop_flush_or_ttl(self, usage_table,
                                                      clock, monkeypatch):
        make_flush_due(usage_table, clock)

        def boom():
            raise RuntimeError("merge exploded")

        monkeypatch.setattr(usage_table, "maybe_merge", boom)
        report = usage_table.maintenance()
        assert report.flushed >= 1
        assert any("merge exploded" in e for e in report.errors)
        counters = usage_table.metrics.snapshot()["counters"]
        assert counters.get("maintenance.errors", 0) >= 1

    def test_failing_table_does_not_stop_database_pass(self, db, clock,
                                                       monkeypatch):
        bad = db.create_table("bad", usage_schema())
        good = db.create_table("good", usage_schema())
        make_flush_due(good, clock)

        def boom(**kwargs):
            raise RuntimeError("table exploded")

        monkeypatch.setattr(bad, "maintenance", boom)
        report = db.maintenance()
        assert report.tables["good"].flushed >= 1
        assert any("table exploded" in e for e in report.errors)


class TestScheduler:
    def test_tick_arms_backpressure_from_policy(self, db, clock):
        table = db.create_table("usage", usage_schema())
        policy = MaintenancePolicy(max_flush_pending=3,
                                   backpressure_wait_s=0.01)
        scheduler = MaintenanceScheduler(db, policy)
        assert db.maintenance_policy is policy  # the database owns it
        scheduler.run_pass()
        assert table._backpressure_limit == 3

    def test_start_stop_runs_work_and_disarms(self, clock, small_config):
        db = LittleTable(
            disk=SimulatedDisk(), config=small_config, clock=clock,
            maintenance_policy=MaintenancePolicy(tick_interval_s=0.01,
                                                 workers=2))
        table = db.create_table("usage", usage_schema())
        table.insert([row(d, clock.now()) for d in range(RETIRE_ROWS)])
        scheduler = db.start_maintenance()
        assert scheduler.running
        deadline = time.monotonic() + 5
        while (not table.on_disk_tablets
               and time.monotonic() < deadline):
            time.sleep(0.005)
        db.stop_maintenance()
        assert not scheduler.running
        assert table.on_disk_tablets  # the loop flushed it
        assert table._backpressure_limit is None  # disarmed on stop
        counters = db.metrics.snapshot()["counters"]
        assert counters["maintenance.ticks"] >= 1
        assert counters["maintenance.table_runs"] >= 1

    def test_scheduler_survives_dropped_table(self, db, clock):
        """A table dropped mid-pass is skipped, not ticked and not an
        error: the pass snapshots the catalog, then re-checks each
        table is still the catalog's before its tick."""
        first = db.create_table("a_first", usage_schema())
        doomed = db.create_table("doomed", usage_schema())
        doomed.insert([row(d, clock.now()) for d in range(50)])
        ticked = []
        original = first.maintenance

        def drop_the_next_table(**kwargs):
            db.drop_table("doomed")
            return original(**kwargs)

        first.maintenance = drop_the_next_table
        doomed.maintenance = lambda **kwargs: ticked.append("doomed")
        report = MaintenanceScheduler(db, MaintenancePolicy()).run_pass()
        assert not ticked
        assert set(report.tables) == {"a_first"}
        assert not report.errors and report.is_quiet

    def test_run_pass_accumulates(self, db, clock):
        table = db.create_table("usage", usage_schema())
        table.insert([row(d, clock.now()) for d in range(RETIRE_ROWS)])
        report = MaintenanceScheduler(db, MaintenancePolicy()).run_pass()
        assert report.flushed >= 1
        counters = db.metrics.snapshot()["counters"]
        assert counters["maintenance.ticks"] == 1
        assert counters["maintenance.table_runs"] == 1

    def test_two_workers_never_tick_one_table_at_once(self, clock,
                                                      small_config):
        """50 rounds of a two-thread loop over three tables: no table
        is ever inside two ``Table.maintenance`` calls at once, and
        distinct tables do overlap (``workers=2`` is honoured)."""
        db = LittleTable(
            disk=SimulatedDisk(), config=small_config, clock=clock,
            maintenance_policy=MaintenancePolicy(tick_interval_s=0.001,
                                                 workers=2))
        guard = threading.Lock()
        inside = {}
        calls = {}
        doubled = []
        overlapped = []

        def instrument(table):
            original = table.maintenance

            def tracked(**kwargs):
                with guard:
                    inside[table.name] = inside.get(table.name, 0) + 1
                    if inside[table.name] > 1:
                        doubled.append(table.name)
                    if sum(inside.values()) > 1:
                        overlapped.append(table.name)
                time.sleep(0.002)   # widen the window for a collision
                try:
                    return original(**kwargs)
                finally:
                    with guard:
                        inside[table.name] -= 1
                        calls[table.name] = calls.get(table.name, 0) + 1

            table.maintenance = tracked

        for name in ("a", "b", "c"):
            instrument(db.create_table(name, usage_schema()))
        db.start_maintenance()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with guard:
                if len(calls) == 3 and min(calls.values()) >= 50:
                    break
            time.sleep(0.01)
        db.stop_maintenance()
        assert len(calls) == 3 and min(calls.values()) >= 50
        assert not doubled
        assert overlapped   # two tables were in flight together

    def test_restart_picks_up_changed_policy(self, clock, small_config):
        db = LittleTable(
            disk=SimulatedDisk(), config=small_config, clock=clock,
            maintenance_policy=MaintenancePolicy(tick_interval_s=0.01))
        table = db.create_table("usage", usage_schema())

        before = set(threading.enumerate())

        def maintenance_threads():
            return set(threading.enumerate()) - before

        scheduler = db.start_maintenance()
        # One worker is one thread: there is no separate ticker.
        assert len(maintenance_threads()) == 1
        db.stop_maintenance()
        assert not maintenance_threads()
        db.maintenance_policy = MaintenancePolicy(
            tick_interval_s=0.01, workers=2, max_flush_pending=5)
        assert db.start_maintenance() is scheduler
        assert len(maintenance_threads()) == 2
        deadline = time.monotonic() + 5
        while (table._backpressure_limit != 5
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert table._backpressure_limit == 5
        table.insert([row(d, clock.now()) for d in range(RETIRE_ROWS)])
        while (not table.on_disk_tablets
               and time.monotonic() < deadline):
            time.sleep(0.005)
        db.stop_maintenance()
        assert table.on_disk_tablets
        assert table._backpressure_limit is None


class TestBackpressure:
    def test_insert_stalls_then_proceeds(self, usage_table, clock):
        usage_table.set_flush_backpressure(1, wait_s=0.01)
        # Pile up flush-pending memtables past the limit.
        usage_table.insert([row(d, clock.now(), value=d)
                            for d in range(RETIRE_ROWS)])
        assert usage_table.flush_pending_count >= 1
        started = time.monotonic()
        usage_table.insert([row(5000, clock.now())])
        elapsed = time.monotonic() - started
        assert elapsed >= 0.005  # it waited (bounded)
        counters = usage_table.metrics.snapshot()["counters"]
        assert counters.get("insert.backpressure_stalls", 0) >= 1

    def test_flush_wakes_stalled_insert(self, usage_table, clock):
        usage_table.set_flush_backpressure(1, wait_s=10.0)
        usage_table.insert([row(d, clock.now()) for d in range(RETIRE_ROWS)])
        assert usage_table.flush_pending_count >= 1
        done = threading.Event()

        def stalled_insert():
            usage_table.insert([row(2000, clock.now())])
            done.set()

        thread = threading.Thread(target=stalled_insert, daemon=True)
        thread.start()
        time.sleep(0.05)  # let it reach the wait
        usage_table.flush_all()  # drains the queue, notifies
        assert done.wait(timeout=5), "insert never woke after flush"
        thread.join(timeout=5)

    def test_disarm_wakes_stalled_insert(self, usage_table, clock):
        usage_table.set_flush_backpressure(1, wait_s=10.0)
        usage_table.insert([row(d, clock.now()) for d in range(RETIRE_ROWS)])
        done = threading.Event()

        def stalled_insert():
            usage_table.insert([row(2000, clock.now())])
            done.set()

        thread = threading.Thread(target=stalled_insert, daemon=True)
        thread.start()
        time.sleep(0.05)
        usage_table.set_flush_backpressure(None)
        assert done.wait(timeout=5), "insert never woke after disarm"
        thread.join(timeout=5)


class TestFlushDebtFirst:
    def test_memtable_queued_during_a_merge_is_flushed_within_the_tick(
            self, usage_table, clock, monkeypatch):
        """A writer at the backpressure limit waits behind one merge,
        not behind the tick's whole merge budget."""
        for batch in range(4):
            usage_table.insert([row(d, clock.now() + batch)
                                for d in range(RETIRE_ROWS)])
            usage_table.flush_all()
        events = []
        real_merge = usage_table.maybe_merge
        real_flush = usage_table.flush_memtable

        def merge():
            plan = real_merge()
            if plan is not None:
                events.append("merge")
                # What a writer did while the worker was merging.
                usage_table.insert([row(d, clock.now() + 10 * len(events))
                                    for d in range(RETIRE_ROWS)])
                assert usage_table.flush_pending_count >= 1
            return plan

        def flush(memtable_id):
            events.append("flush")
            return real_flush(memtable_id)

        monkeypatch.setattr(usage_table, "maybe_merge", merge)
        monkeypatch.setattr(usage_table, "flush_memtable", flush)
        report = usage_table.maintenance(merge_budget=4)
        assert events[:2] == ["merge", "flush"], events
        assert report.merged >= 1 and report.flushed >= 1
        # ... and never two merges back to back with a memtable queued.
        assert "merge merge" not in " ".join(events)


class TestLockOrderChecker:
    def test_wrong_order_raises(self):
        checker = LockOrderChecker()
        low = checker.wrap(threading.RLock(), "maintenance", 10)
        high = checker.wrap(threading.RLock(), "state", 20)
        with low, high:
            pass  # documented order: fine
        with pytest.raises(LockOrderError):
            with high:
                with low:
                    pass
        assert checker.violations

    def test_reentrant_acquire_allowed(self):
        checker = LockOrderChecker()
        lock = checker.wrap(threading.RLock(), "state", 20)
        with lock, lock:
            pass
        assert not checker.violations

    def test_condition_wait_over_wrapped_lock(self):
        checker = LockOrderChecker()
        lock = checker.wrap(threading.RLock(), "state", 20)
        cond = threading.Condition(lock)
        with cond:
            cond.wait(timeout=0.01)
        assert not checker.violations

    def test_instrumented_table_workload_is_clean(self, usage_table,
                                                  clock):
        checker = instrument_table_locks(usage_table, LockOrderChecker())
        make_flush_due(usage_table, clock, devices=120)
        usage_table.maintenance()
        usage_table.query(Query())
        usage_table.latest((1, 3))
        usage_table.maintenance()
        assert not checker.violations


class TestPendingMergeRuns:
    def test_counts_merge_debt(self, usage_table, clock):
        for batch in range(6):
            usage_table.insert([row(d, clock.now(), value=batch)
                                for d in range(10)])
            usage_table.flush_all()
            clock.advance_seconds(60)
        plans = pending_merge_runs(usage_table.on_disk_tablets,
                                   clock.now(), usage_table.name,
                                   usage_table.config)
        assert plans  # six small adjacent tablets: debt exists
        executed = 0
        while usage_table.maybe_merge() is not None:
            executed += 1
        assert executed >= len(plans) or executed > 0

    def test_quiescent_table_has_no_debt(self, usage_table, clock):
        usage_table.insert([row(1, clock.now())])
        usage_table.flush_all()
        assert pending_merge_runs(usage_table.on_disk_tablets,
                                  clock.now(), usage_table.name,
                                  usage_table.config) == []
