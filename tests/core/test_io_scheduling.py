"""SLO-driven IO scheduling: rate limiter, controller, scheduler.

Covers the robustness tentpole's core layer: the token-bucket
IORateLimiter (deterministic via injected clock/sleep), its threading
through flush and merge writes, the SLOController's AIMD reaction to
injected latency load, flush-debt-over-merge-debt priority
scheduling, the ``stop()`` drain-before-join regression, and a
stalled insert woken by ``stop()``'s backpressure disarm.
"""

import threading
import time

import pytest

from repro.core import (EngineConfig, IORateLimiter, LittleTable,
                        MaintenancePolicy, MaintenanceScheduler,
                        SLOController)
from repro.core.scheduler import _PRIORITY_FLUSH, _PRIORITY_MERGE
from repro.disk import SimulatedDisk
from repro.obs.metrics import MetricsRegistry

from ..conftest import usage_schema


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


class FakeTime:
    """A virtual monotonic clock whose sleep() advances it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class RecordingLimiter:
    """Counts acquire() calls and bytes without ever sleeping."""

    def __init__(self):
        self.calls = []

    def acquire(self, nbytes):
        self.calls.append(nbytes)
        return 0.0

    @property
    def total_bytes(self):
        return sum(self.calls)


class TestIORateLimiter:
    def test_within_burst_never_sleeps(self):
        ft = FakeTime()
        limiter = IORateLimiter(1000, clock=ft.clock, sleep=ft.sleep)
        assert limiter.acquire(400) == 0.0
        assert limiter.acquire(600) == 0.0  # exactly the 1s burst
        assert ft.sleeps == []

    def test_deficit_sleeps_at_rate(self):
        ft = FakeTime()
        limiter = IORateLimiter(1000, clock=ft.clock, sleep=ft.sleep)
        limiter.acquire(1000)           # drains the bucket
        waited = limiter.acquire(500)   # 500 B over at 1000 B/s
        assert waited == pytest.approx(0.5)
        assert ft.sleeps == [pytest.approx(0.5)]

    def test_oversized_block_never_deadlocks(self):
        # A block bigger than the burst capacity must pass after a
        # proportional wait (negative-balance admission), not hang.
        ft = FakeTime()
        limiter = IORateLimiter(100, clock=ft.clock, sleep=ft.sleep)
        waited = limiter.acquire(1000)
        assert waited == pytest.approx(9.0)  # (1000-100 credit)/100

    def test_refill_restores_credit(self):
        ft = FakeTime()
        limiter = IORateLimiter(1000, clock=ft.clock, sleep=ft.sleep)
        limiter.acquire(1000)
        ft.now += 10.0                  # refills (capped at burst)
        assert limiter.acquire(1000) == 0.0

    def test_aggregate_rate_converges(self):
        ft = FakeTime()
        limiter = IORateLimiter(1000, clock=ft.clock, sleep=ft.sleep)
        for _ in range(20):
            limiter.acquire(500)
        # 10 kB at 1 kB/s with a 1 kB burst: ~9 s of enforced waiting.
        assert ft.now == pytest.approx(9.0, abs=0.6)

    def test_unlimited_is_noop(self):
        ft = FakeTime()
        limiter = IORateLimiter(None, clock=ft.clock, sleep=ft.sleep)
        assert limiter.acquire(10**9) == 0.0
        assert ft.sleeps == []

    def test_set_rate_live(self):
        ft = FakeTime()
        limiter = IORateLimiter(1000, clock=ft.clock, sleep=ft.sleep)
        limiter.set_rate(None)
        assert limiter.acquire(10**6) == 0.0
        limiter.set_rate(100)
        limiter.acquire(100)            # burst shrank with the rate
        assert limiter.acquire(50) == pytest.approx(0.5)

    def test_metrics_recorded(self):
        ft = FakeTime()
        metrics = MetricsRegistry()
        limiter = IORateLimiter(100, clock=ft.clock, sleep=ft.sleep,
                                metrics=metrics)
        limiter.acquire(500)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["io.throttle_waits"] == 1
        assert snapshot["counters"]["io.throttled_bytes"] == 500
        assert snapshot["gauges"]["io.rate_bytes_s"] == 100


class TestWritePathsMetered:
    def test_flush_writes_debit_the_limiter(self, db, clock):
        table = db.create_table("usage", usage_schema())
        limiter = RecordingLimiter()
        table.io_limiter = limiter
        table.insert([row(d, clock.now()) for d in range(500)])
        table.flush_all()
        assert limiter.total_bytes > 0
        # Every tablet byte (blocks + footer) passed through acquire.
        total_tablet = sum(t.size_bytes for t in table.descriptor.tablets)
        assert limiter.total_bytes == total_tablet

    def test_merge_writes_debit_the_limiter(self, db, clock):
        table = db.create_table("usage", usage_schema())
        for batch in range(3):
            table.insert([row(d, clock.now() + batch)
                          for d in range(400)])
            table.flush_all()
        limiter = RecordingLimiter()
        table.io_limiter = limiter
        before = len(table.descriptor.tablets)
        assert before >= 2
        clock.advance_seconds(120)
        report = table.maintenance(merge_budget=4)
        assert report.merged >= 1
        assert limiter.total_bytes > 0

    def test_config_knob_builds_shared_limiter(self, clock):
        config = EngineConfig(io_rate_limit_bytes_s=10**9)
        db = LittleTable(disk=SimulatedDisk(), config=config, clock=clock)
        table = db.create_table("usage", usage_schema())
        assert isinstance(db.io_limiter, IORateLimiter)
        assert table.io_limiter is db.io_limiter

    def test_restored_tables_keep_the_limiter(self, clock, tmp_path):
        """``restore`` builds its tables through the same wiring as
        startup, so their flushes debit the database's limiter."""
        config = EngineConfig(io_rate_limit_bytes_s=10**9)
        source = LittleTable(disk=SimulatedDisk(), config=config,
                             clock=clock)
        source.create_table("usage", usage_schema()).insert(
            [row(d, clock.now()) for d in range(50)])
        source.snapshot(str(tmp_path / "snap"))
        db = LittleTable(disk=SimulatedDisk(), config=config, clock=clock)
        db.io_limiter = RecordingLimiter()
        db.restore(str(tmp_path / "snap"))
        table = db.table("usage")
        assert table.io_limiter is db.io_limiter
        table.insert([row(d, clock.now() + 1) for d in range(500)])
        table.flush_all()
        assert db.io_limiter.total_bytes > 0

    def test_follower_tables_keep_the_limiter_through_promote(self):
        """Resync and ``promote`` swap fresh table objects in; each
        must stay wired to the standby's limiter."""
        from repro.core import DurabilityPolicy
        from repro.net.async_server import AsyncLittleTableServer
        from repro.net.replica import Follower

        primary = LittleTable(
            disk=SimulatedDisk(),
            durability=DurabilityPolicy(tier="replicated"))
        primary.create_table("t", usage_schema())
        primary.insert("t", [row(d, d + 1) for d in range(20)])
        primary.table("t").flush_all()
        standby = LittleTable(
            disk=SimulatedDisk(),
            config=EngineConfig(io_rate_limit_bytes_s=10**9))
        standby.io_limiter = RecordingLimiter()
        with AsyncLittleTableServer(primary) as server:
            follower = Follower(standby, *server.address)
            try:
                follower.sync_once()
                assert standby.table("t").io_limiter is standby.io_limiter
                follower.promote()
            finally:
                follower.stop()
        table = standby.table("t")
        assert table.wal is not None            # re-armed by promote
        assert table.io_limiter is standby.io_limiter
        table.insert([row(d, 1000 + d) for d in range(500)])
        table.flush_all()
        assert standby.io_limiter.total_bytes > 0
        primary.close()

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(io_rate_limit_bytes_s=0).validate()


class TestSLOController:
    def make(self, slo_ms=10.0, base_rate=1000.0,
             max_flush_pending=8):
        metrics = MetricsRegistry()
        ft = FakeTime()
        limiter = IORateLimiter(base_rate, clock=ft.clock, sleep=ft.sleep)
        controller = SLOController(
            metrics, slo_ms, limiter=limiter,
            base_rate_bytes_s=base_rate,
            max_flush_pending=max_flush_pending)
        return metrics, limiter, controller

    def test_no_samples_no_change(self):
        _metrics, limiter, controller = self.make()
        controller.step()
        assert controller.throttle == 0.0
        assert limiter.rate_bytes_s == 1000.0

    def test_breach_lowers_merge_rate_and_tightens_backpressure(self):
        metrics, limiter, controller = self.make(slo_ms=10.0)
        hist = metrics.histogram("insert.latency_us")
        for _ in range(100):
            hist.observe(50_000)  # 50 ms >> the 10 ms SLO
        controller.step()
        assert controller.throttle > 0
        assert limiter.rate_bytes_s < 1000.0
        assert controller.flush_pending_limit() < 8
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["sched.slo_breaches"] == 1
        # Sustained breach drives the throttle to full: merge budget 0,
        # rate floored at 10%, flush limit at its floor.
        for _ in range(6):
            controller.step()
        assert controller.throttle == 1.0
        assert limiter.rate_bytes_s == pytest.approx(100.0)
        assert controller.flush_pending_limit() == 2  # max(1, 8//4)
        assert controller.merge_budget(4) == 0

    def test_recovery_restores_merge_rate(self):
        metrics, limiter, controller = self.make(slo_ms=10.0)
        hist = metrics.histogram("insert.latency_us")
        for _ in range(100):
            hist.observe(50_000)
        for _ in range(7):
            controller.step()
        assert limiter.rate_bytes_s == pytest.approx(100.0)
        # Flood the reservoir with healthy latencies (well under the
        # 0.7x hysteresis band) and the throttle decays additively.
        for _ in range(600):
            hist.observe(1_000)  # 1 ms
        for _ in range(12):
            controller.step()
        assert controller.throttle == 0.0
        assert limiter.rate_bytes_s == pytest.approx(1000.0)
        assert controller.flush_pending_limit() == 8
        assert controller.merge_budget(4) == 4

    def test_between_bands_holds_steady(self):
        metrics, _limiter, controller = self.make(slo_ms=10.0)
        hist = metrics.histogram("insert.latency_us")
        for _ in range(100):
            hist.observe(9_000)  # 9 ms: under SLO, above 0.7x band
        controller.throttle = 0.5
        controller.step()
        assert controller.throttle == 0.5

    def test_worst_histogram_wins(self):
        metrics, _limiter, controller = self.make(slo_ms=10.0)
        metrics.histogram("insert.latency_us").observe(1_000)
        metrics.histogram("query.latency_us").observe(90_000)
        assert controller.observed_p99_us() == pytest.approx(90_000)

    def test_policy_knob_validation(self):
        with pytest.raises(ValueError):
            MaintenancePolicy(slo_p99_ms=0).validate()
        with pytest.raises(ValueError):
            MaintenancePolicy(slo_recover_fraction=0).validate()
        MaintenancePolicy(slo_p99_ms=25.0).validate()


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

    def test_slo_policy_arms_controller_on_tick(self, clock, small_config):
        config = EngineConfig(**{
            **{f.name: getattr(small_config, f.name)
               for f in small_config.__dataclass_fields__.values()},
            "io_rate_limit_bytes_s": 10**6})
        db = LittleTable(
            disk=SimulatedDisk(), config=config, clock=clock,
            maintenance_policy=MaintenancePolicy(slo_p99_ms=5.0))
        db.create_table("usage", usage_schema())
        scheduler = MaintenanceScheduler(db)
        scheduler.tick()
        assert scheduler.controller is not None
        assert scheduler.controller.limiter is db.io_limiter
        # Injected overload propagates through tick() to the limiter.
        hist = db.metrics.histogram("insert.latency_us")
        for _ in range(100):
            hist.observe(1_000_000)
        scheduler.tick()
        assert db.io_limiter.rate_bytes_s < 10**6


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
