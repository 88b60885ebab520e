"""Concurrency stress suite for the non-blocking maintenance engine.

Real threads race the scheduler against a writer and N readers,
asserting the paper's invariants hold with flush/merge/TTL running
off-lock over copy-on-write tablet sets:

* a reader never sees a half-swapped tablet list (every scan returns
  sorted, unique keys, and never crashes on a vanished file);
* acknowledged rows never disappear (per-reader row counts are
  monotone, and always cover every acked insert);
* primary-key uniqueness holds under concurrent merges (a duplicate
  insert is rejected no matter what maintenance is doing);
* ``latest()`` stays correct across merges;
* prefix durability in insertion order survives a crash taken at an
  arbitrary moment of background flushing;
* the lock-order checker sees no hierarchy violation anywhere.

The swap-race test runs 50 consecutive rounds (the acceptance
criterion); the suite is also wired into its own CI job under
``-p no:cacheprovider``.
"""

import threading
import time

import pytest

from repro.core import (DuplicateKeyError, EngineConfig, LittleTable,
                        LockOrderChecker, MaintenancePolicy, Query,
                        check_table, instrument_table_locks)
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, SystemClock

from ..conftest import usage_schema


def row(device, ts, value=0):
    return {"network": 1, "device": device, "ts": ts, "bytes": value,
            "rate": 0.0}


def stress_config():
    """Tiny flush size + zero merge age: maximal maintenance churn."""
    return EngineConfig(
        block_size_bytes=512,
        flush_size_bytes=4 * 1024,
        max_merged_tablet_bytes=1024 * 1024,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
        server_row_limit=1_000_000,
    )


def make_db(policy=None):
    return LittleTable(disk=SimulatedDisk(), config=stress_config(),
                       clock=SystemClock(), maintenance_policy=policy)


class Violations:
    """Thread-safe failure collector: worker threads must not assert
    (a failed assert in a thread is invisible to pytest)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, message):
        with self._lock:
            self.items.append(message)

    def check(self):
        assert not self.items, "\n".join(self.items[:20])


def assert_snapshot_consistent(rows, acked_floor, last_count, violations,
                               who):
    """One reader pass: sorted unique keys, monotone coverage."""
    keys = [(r[0], r[1], r[2]) for r in rows]
    if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
        violations.add(f"{who}: scan keys not strictly increasing "
                       f"(duplicate or unsorted -> half-swapped state)")
    if len(rows) < acked_floor:
        violations.add(f"{who}: saw {len(rows)} rows but {acked_floor} "
                       f"were acked before the scan started")
    if len(rows) < last_count:
        violations.add(f"{who}: row count regressed "
                       f"{last_count} -> {len(rows)}")
    return len(rows)


class TestSchedulerStress:
    def test_writer_and_readers_race_scheduler(self):
        """The headline stress: writer + N readers + worker pool, with
        the lock hierarchy instrumented the whole time."""
        db = make_db(MaintenancePolicy(tick_interval_s=0.005, workers=2,
                                       max_flush_pending=8,
                                       backpressure_wait_s=0.5))
        table = db.create_table("usage", usage_schema())
        checker = instrument_table_locks(table, LockOrderChecker())
        violations = Violations()
        acked = [0]
        writer_done = threading.Event()
        clock = db.clock

        def writer():
            try:
                for batch in range(150):
                    base = batch * 40
                    table.insert([row(base + i, clock.now(), value=batch)
                                  for i in range(40)])
                    acked[0] = base + 40
            except Exception as exc:
                violations.add(f"writer died: {type(exc).__name__}: {exc}")
            finally:
                writer_done.set()

        def reader(index):
            last_count = 0
            who = f"reader-{index}"
            try:
                while not writer_done.is_set():
                    floor = acked[0]
                    rows = table.query(Query()).rows
                    last_count = assert_snapshot_consistent(
                        rows, floor, last_count, violations, who)
            except Exception as exc:
                violations.add(f"{who} died: {type(exc).__name__}: {exc}")

        def latest_checker():
            # Device 0 gets ever-newer rows; latest() must follow.
            last_ts = 0
            try:
                while not writer_done.is_set():
                    floor_batches = acked[0] // 40
                    newest = table.latest((1, 0))
                    if floor_batches and newest is None:
                        violations.add("latest((1,0)) lost the row")
                        return
                    if newest is not None:
                        if newest[2] < last_ts:
                            violations.add(
                                f"latest() went backwards: "
                                f"{last_ts} -> {newest[2]}")
                        last_ts = newest[2]
            except Exception as exc:
                violations.add(
                    f"latest checker died: {type(exc).__name__}: {exc}")

        db.start_maintenance()
        threads = [threading.Thread(target=writer, daemon=True)]
        threads += [threading.Thread(target=reader, args=(i,), daemon=True)
                    for i in range(3)]
        threads.append(threading.Thread(target=latest_checker, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            if thread.is_alive():
                violations.add("thread failed to finish (deadlock?)")
        db.stop_maintenance()
        violations.check()
        assert not checker.violations, checker.violations[:5]
        # Settle and verify end state: all 6000 rows, storage healthy.
        db.maintenance_until_quiet()
        assert len(table.query(Query()).rows) == 6000
        assert [i for i in check_table(table)
                if i.severity == "error"] == []

    def test_duplicate_rejected_during_maintenance(self):
        """Uniqueness enforcement must not race the swaps."""
        db = make_db(MaintenancePolicy(tick_interval_s=0.002, workers=2))
        table = db.create_table("usage", usage_schema())
        clock = db.clock
        ts0 = clock.now()
        table.insert([row(d, ts0) for d in range(500)])
        violations = Violations()
        stop = threading.Event()

        def duplicator():
            try:
                while not stop.is_set():
                    try:
                        table.insert([row(7, ts0)])
                        violations.add("duplicate key accepted")
                        return
                    except DuplicateKeyError:
                        pass
            except Exception as exc:
                violations.add(f"duplicator died: "
                               f"{type(exc).__name__}: {exc}")

        db.start_maintenance()
        thread = threading.Thread(target=duplicator, daemon=True)
        thread.start()
        deadline = time.monotonic() + 1.0
        seq = 1000
        while time.monotonic() < deadline:
            table.insert([row(seq, clock.now())])
            seq += 1
        stop.set()
        thread.join(timeout=30)
        db.stop_maintenance()
        violations.check()

    def test_prefix_durability_under_background_flushing(self):
        """Crash mid-stream: recovered rows are a prefix of insertion
        order, even with inserts interleaving across periods (flush
        dependencies) and the scheduler flushing concurrently."""
        db = make_db(MaintenancePolicy(tick_interval_s=0.002, workers=2))
        table = db.create_table("usage", usage_schema())
        clock = db.clock
        db.start_maintenance()
        total = 3000
        for seq in range(total):
            # Alternate periods so flush-dependency groups form.
            ts = clock.now() - (8 * MICROS_PER_DAY if seq % 3 == 2 else 0)
            table.insert([row(seq, ts, value=seq)])
        db.stop_maintenance()
        # Crash now: only what background flushes persisted survives.
        recovered = LittleTable(disk=db.disk, config=db.config,
                                clock=clock)
        rows = recovered.table("usage").query(Query()).rows
        seqs = sorted(r[3] for r in rows)  # 'bytes' carries the seq
        assert seqs == list(range(len(seqs))), (
            "recovered rows are not a prefix of insertion order: "
            f"{len(seqs)} rows, first gap near "
            f"{next((i for i, s in enumerate(seqs) if s != i), None)}")

    def test_latest_correct_across_explicit_merges(self):
        """Deterministic latest-vs-merge race: a merge runs in the
        background while latest() is hammered; the answer must always
        be the newest acked row for the series."""
        db = make_db()
        table = db.create_table("usage", usage_schema())
        clock = db.clock
        # Several same-period tablets all holding device 0 history.
        newest_ts = 0
        for batch in range(6):
            ts = clock.now()
            newest_ts = ts
            table.insert([row(0, ts, value=batch),
                          *[row(100 + batch * 50 + i, ts)
                            for i in range(200)]])
            table.flush_all()
            time.sleep(0.002)  # distinct created_at / ts
        violations = Violations()
        stop = threading.Event()

        def merger():
            try:
                while table.maybe_merge() is not None:
                    pass
            except Exception as exc:
                violations.add(f"merger died: {type(exc).__name__}: {exc}")
            finally:
                stop.set()

        thread = threading.Thread(target=merger, daemon=True)
        thread.start()
        while not stop.is_set():
            newest = table.latest((1, 0))
            if newest is None or newest[2] != newest_ts:
                violations.add(
                    f"latest() wrong during merge: {newest!r}, "
                    f"expected ts {newest_ts}")
                break
        thread.join(timeout=30)
        violations.check()
        final = table.latest((1, 0))
        assert final is not None and final[2] == newest_ts


class TestSwapRace:
    def test_fifty_consecutive_swap_race_rounds(self):
        """The acceptance criterion: 50 consecutive rounds of readers
        racing a tablet-set swap (flush + merge), zero violations."""
        db = make_db()
        table = db.create_table("usage", usage_schema())
        checker = instrument_table_locks(table, LockOrderChecker())
        clock = db.clock
        violations = Violations()
        inserted = 0
        for round_index in range(50):
            base = inserted
            table.insert([row(base + i, clock.now(), value=round_index)
                          for i in range(300)])
            inserted += 300
            barrier = threading.Barrier(4)

            def reader(who, floor=inserted):
                last = 0
                try:
                    barrier.wait(timeout=10)
                    for _ in range(3):
                        rows = table.query(Query()).rows
                        last = assert_snapshot_consistent(
                            rows, floor, last, violations, who)
                except Exception as exc:
                    violations.add(
                        f"{who} died: {type(exc).__name__}: {exc}")

            def swapper():
                try:
                    barrier.wait(timeout=10)
                    table.flush_all()
                    while table.maybe_merge() is not None:
                        pass
                except Exception as exc:
                    violations.add(
                        f"swapper died: {type(exc).__name__}: {exc}")

            threads = [
                threading.Thread(target=reader,
                                 args=(f"r{round_index}.{i}",),
                                 daemon=True)
                for i in range(3)
            ] + [threading.Thread(target=swapper, daemon=True)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                if thread.is_alive():
                    violations.add(
                        f"round {round_index}: thread hung (deadlock?)")
            violations.check()  # fail fast with the round number intact
        assert not checker.violations, checker.violations[:5]
        assert len(table.query(Query()).rows) == inserted
        assert [i for i in check_table(table)
                if i.severity == "error"] == []

    def test_deferred_deletes_eventually_reclaimed(self):
        """Files removed by merges must actually get deleted once
        readers drain - deferral is not a leak."""
        db = make_db()
        table = db.create_table("usage", usage_schema())
        clock = db.clock
        for batch in range(5):
            table.insert([row(batch * 300 + i, clock.now())
                          for i in range(300)])
            table.flush_all()
        live = {t.filename for t in table.on_disk_tablets}
        while table.maybe_merge() is not None:
            pass
        # No reader is active, so every source file is gone already.
        assert table._pending_deletes == []
        now_live = {t.filename for t in table.on_disk_tablets}
        for filename in live - now_live:
            assert not table.disk.exists(filename), filename

    @pytest.mark.parametrize("read", ["query", "latest",
                                      "aggregate_partials"])
    def test_snapshot_is_pinned_before_any_merge_can_land(self, read):
        """The ordering this pins down: a read's epoch pin and its
        tablet snapshot are taken in ONE state-lock hold
        (``Table._read_plan``), so there is no point at which a read
        holds a tablet list whose files a merge may already reclaim.
        The parent took the snapshot first and pinned second (for
        ``latest`` and ``aggregate_partials``); a merge landing in
        that gap deleted the files and the read died with
        ``StorageError: no such file``.  With the gap gone, the
        earliest a merge can land is right after the plan is handed
        out - before the read has opened a single tablet - which is
        where this test runs merges to quiescence."""
        from repro.core.row import KeyRange, TimeRange
        from repro.core.vector import AggregateSpec

        db = make_db()
        table = db.create_table("usage", usage_schema())
        checker = instrument_table_locks(table, LockOrderChecker())
        clock = db.clock
        for batch in range(4):
            table.insert([row(batch * 300 + i, clock.now())
                          for i in range(300)])
            table.flush_all()
        calls = {
            "query": lambda: table.query(Query()).rows,
            "latest": lambda: table.latest((1,)),
            "aggregate_partials": lambda: table.aggregate_partials(
                AggregateSpec(KeyRange.all(), TimeRange.all(), (), None,
                              (("COUNT", None),), ())).groups,
        }
        expected = calls[read]()
        before = {t.filename for t in table.on_disk_tablets}
        assert len(before) >= 4
        table.evict_reader_cache()  # the read must go to the files
        plan_read = table._read_plan
        merges = []

        def plan_then_merge():
            plan = plan_read()
            while table.maybe_merge() is not None:
                merges.append(len(table._pending_deletes))
            return plan

        table._read_plan = plan_then_merge
        try:
            assert calls[read]() == expected
        finally:
            table._read_plan = plan_read
        # The merges really ran inside the read, and their source
        # files really were held back for it...
        assert merges and all(pending > 0 for pending in merges)
        # ...and were reclaimed the moment it ended: nothing leaks.
        assert table._pending_deletes == []
        live = {t.filename for t in table.on_disk_tablets}
        assert not (live & before)
        on_disk = {name for name in table.disk.list("tables/usage/")
                   if name.endswith(".lt")}
        assert on_disk == live
        assert not checker.violations, checker.violations[:5]

    def test_scan_pins_files_across_a_merge(self):
        """An in-flight generator keeps its snapshot readable while a
        merge replaces the tablets underneath it."""
        db = make_db()
        table = db.create_table("usage", usage_schema())
        clock = db.clock
        for batch in range(4):
            table.insert([row(batch * 300 + i, clock.now())
                          for i in range(300)])
            table.flush_all()
        scan = table.scan(Query())
        first = next(scan)  # generator is live: epoch pinned
        while table.maybe_merge() is not None:
            pass
        rest = list(scan)
        keys = [first[1]] + [r[1] for r in rest]
        assert keys == sorted(set(keys))
        assert len(keys) == 1200
        # The generator closed: deferred deletes must now drain.
        table.query(Query())
        assert table._pending_deletes == []
