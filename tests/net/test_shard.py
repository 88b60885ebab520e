"""The shard router: routing, ordered merge, degraded workers.

Routing is asserted as a property (every inserted row reads back
through the facade, and lands on exactly the shard ``shard_of``
names); the k-way merge is asserted against a single-engine oracle
running the identical workload; worker crashes use the failpoint
framework, so a "crash" is a real CrashPoint escaping a worker's
disk, not a mock.
"""

import random

import pytest

from repro.core import (
    ASCENDING,
    Column,
    ColumnType,
    DESCENDING,
    EngineConfig,
    KeyRange,
    LittleTable,
    NoSuchTableError,
    Query,
    Schema,
    ShardDegradedError,
)
from repro.disk import FaultyVFS
from repro.net.shard import ShardRouter, ShardedTable, merge_sorted_runs, shard_of
from repro.obs import MetricsRegistry
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


def usage_schema():
    return Schema(
        [Column("device", ColumnType.STRING),
         Column("ts", ColumnType.TIMESTAMP),
         Column("bytes", ColumnType.INT64)],
        key=["device", "ts"],
    )


def ts_only_schema():
    return Schema(
        [Column("ts", ColumnType.TIMESTAMP),
         Column("event", ColumnType.STRING)],
        key=["ts"],
    )


def make_router(shards=3, row_limit=None, engines=None):
    config = EngineConfig() if row_limit is None else \
        EngineConfig(server_row_limit=row_limit)
    if engines is not None:
        return ShardRouter(engines=engines)
    return ShardRouter(shards=shards, config=config,
                       clock=VirtualClock(start=BASE))


def sample_rows(devices=12, samples=8):
    return [
        {"device": f"dev-{d:02d}", "ts": BASE + s * 1_000_000,
         "bytes": 100 * d + s}
        for d in range(devices)
        for s in range(samples)
    ]


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        rng = random.Random(7)
        for _ in range(200):
            leading = (f"dev-{rng.randrange(1000)}", rng.randrange(50))
            n = rng.randrange(1, 9)
            first = shard_of(leading, None, n)
            assert first == shard_of(leading, None, n)
            assert 0 <= first < n

    def test_single_shard_router_routes_everything_to_zero(self):
        assert shard_of(("any", "thing"), None, 1) == 0
        assert shard_of((), 123456, 1) == 0

    def test_bare_ts_keys_route_by_four_hour_grid(self):
        from repro.core.periods import FOUR_HOURS

        n = 5
        ts = 1234 * FOUR_HOURS
        assert shard_of((), ts, n) == shard_of((), ts + FOUR_HOURS - 1, n)
        assert shard_of((), ts, n) != shard_of((), ts + FOUR_HOURS, n) or n == 1

    def test_routed_rows_land_on_the_shard_shard_of_names(self):
        router = make_router(shards=4)
        router.create_table("usage", usage_schema())
        rows = sample_rows()
        router.table("usage").insert(rows)
        for row in rows:
            owner = shard_of((row["device"],), None, 4)
            for index, engine in enumerate(router.engines):
                held = engine.table("usage").query(Query(
                    KeyRange(min_prefix=(row["device"], row["ts"]),
                             max_prefix=(row["device"], row["ts"])))).rows
                assert bool(held) == (index == owner)
        router.close()

    def test_insert_readback_property(self):
        """Every row inserted through the router reads back, exactly
        once, whatever shard it landed on."""
        rng = random.Random(11)
        router = make_router(shards=4)
        router.create_table("usage", usage_schema())
        rows = [
            {"device": f"dev-{rng.randrange(40):02d}",
             "ts": BASE + i * 1_000, "bytes": i}
            for i in range(300)
        ]
        assert router.table("usage").insert(rows) == len(rows)
        result = router.table("usage").query(Query(limit=10_000))
        assert len(result.rows) == len(rows)
        got = {(r[0], r[1]) for r in result.rows}
        assert got == {(r["device"], r["ts"]) for r in rows}
        # latest() pins to one shard and still finds the right row
        for device in {r["device"] for r in rows}:
            expected = max((r for r in rows if r["device"] == device),
                           key=lambda r: r["ts"])
            latest = router.table("usage").latest((device,))
            assert latest[1] == expected["ts"]
        router.close()

    def test_tuple_inserts_route_like_dict_inserts(self):
        router = make_router(shards=3)
        router.create_table("usage", usage_schema())
        table = router.table("usage")
        assert isinstance(table, ShardedTable)
        table.insert_tuples([("dev-a", BASE + 1, 10),
                             ("dev-b", BASE + 2, 20)])
        assert router.table("usage").latest(("dev-a",))[2] == 10
        assert router.table("usage").latest(("dev-b",))[2] == 20
        router.close()

    def test_pinned_query_touches_one_shard(self):
        router = make_router(shards=4)
        router.create_table("usage", usage_schema())
        router.table("usage").insert(sample_rows())
        before = router.metrics.snapshot()["counters"]
        result = router.table("usage").query(Query(
            KeyRange(min_prefix=("dev-03",), max_prefix=("dev-03",))))
        after = router.metrics.snapshot()["counters"]
        assert len(result.rows) == 8
        assert after.get("shard.single_shard_queries", 0) == \
            before.get("shard.single_shard_queries", 0) + 1
        assert after.get("shard.scatter_queries", 0) == \
            before.get("shard.scatter_queries", 0)
        router.close()


class TestMerge:
    def test_merge_sorted_runs_orders_globally(self):
        rng = random.Random(3)
        keys = sorted(rng.sample(range(10_000), 600))
        runs = [[], [], []]
        for k in keys:
            runs[rng.randrange(3)].append((k,))
        merged = list(merge_sorted_runs(runs, lambda row: row))
        assert merged == [(k,) for k in keys]
        merged_desc = list(merge_sorted_runs(
            [list(reversed(run)) for run in runs], lambda row: row,
            descending=True))
        assert merged_desc == [(k,) for k in reversed(keys)]

    @pytest.mark.parametrize("direction", [ASCENDING, DESCENDING])
    def test_scatter_query_is_globally_ordered_and_continuable(
            self, direction):
        """Continuation across shard boundaries never skips rows: an
        oracle single engine running the same workload must agree
        page by page."""
        row_limit = 10
        router = make_router(shards=3, row_limit=row_limit)
        oracle = LittleTable(clock=VirtualClock(start=BASE),
                             config=EngineConfig(server_row_limit=row_limit))
        for db in (router, oracle):
            db.create_table("usage", usage_schema())
            db.table("usage").insert(sample_rows(devices=40, samples=5))

        def page_through(db):
            rows, pages = [], 0
            kr = KeyRange()
            while True:
                result = db.table("usage").query(Query(
                    kr, direction=direction))
                assert len(result.rows) <= row_limit
                rows.extend(result.rows)
                pages += 1
                assert pages < 100, "continuation is not converging"
                if not result.more_available:
                    return rows
                last = result.rows[-1][:2]
                if direction == DESCENDING:
                    kr = KeyRange(max_prefix=last, max_inclusive=False)
                else:
                    kr = KeyRange(min_prefix=last, min_inclusive=False)

        assert page_through(router) == page_through(oracle)
        router.close()
        oracle.close()

    def test_limit_respected_across_shards(self):
        router = make_router(shards=3, row_limit=50)
        router.create_table("usage", usage_schema())
        router.table("usage").insert(sample_rows(devices=20, samples=5))
        # A client limit under the server's: complete result, engine
        # semantics (more_available flags only server-limit cuts).
        result = router.table("usage").query(Query(limit=7))
        assert len(result.rows) == 7
        assert not result.more_available
        keys = [r[:2] for r in result.rows]
        assert keys == sorted(keys)
        # No client limit: the server row limit truncates and says so.
        truncated = router.table("usage").query(Query())
        assert len(truncated.rows) == 50
        assert truncated.more_available
        router.close()


    @pytest.mark.parametrize("direction", [ASCENDING, DESCENDING])
    def test_limit_zero_is_an_empty_complete_page(self, direction):
        """Scattered or pinned to one shard, ``limit=0`` is nothing
        and nothing more: a continuation loop must not be told the
        server limit cut an empty page."""
        router = make_router(shards=2, row_limit=5)
        router.create_table("usage", usage_schema())
        router.table("usage").insert(sample_rows(devices=12, samples=3))
        for key_range in (KeyRange(), KeyRange.prefix(("dev-03",))):
            query = Query(key_range, direction=direction, limit=0)
            result = router.table("usage").query(query)
            assert result.rows == [] and not result.more_available
            assert list(router.table("usage").scan(query)) == []
        router.close()


def crashable_router(shards=3):
    """A router whose workers sit on FaultyVFS disks (failpoints)."""
    clock = VirtualClock(start=BASE)
    metrics = MetricsRegistry()
    engines = [
        LittleTable(disk=FaultyVFS(), clock=clock, metrics=metrics)
        for _ in range(shards)
    ]
    return ShardRouter(engines=engines)


class TestDegradedShards:
    def crash_one_shard(self, router):
        """Crash the worker owning dev-00 via a real disk failpoint."""
        victim = shard_of(("dev-00",), None, router.shard_count)
        router.engines[victim].disk.failpoints.set("disk.write", "crash")
        with pytest.raises(ShardDegradedError):
            router.table("usage").flush_all()
        return victim

    def test_crashed_worker_degrades_without_killing_router(self):
        router = crashable_router(shards=3)
        router.create_table("usage", usage_schema())
        rows = sample_rows(devices=12, samples=4)
        router.table("usage").insert(rows)
        victim = self.crash_one_shard(router)

        assert list(router.degraded_shards) == [victim]
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("shard.worker_crashes") == 1

        # Scatter operations now refuse (they would silently miss the
        # downed shard's rows)...
        with pytest.raises(ShardDegradedError):
            router.table("usage").query(Query())
        # ...and keys owned by the dead worker refuse too...
        with pytest.raises(ShardDegradedError):
            router.table("usage").latest(("dev-00",))
        # ...but the surviving workers keep serving their keys.
        survivors = [d for d in {r["device"] for r in rows}
                     if shard_of((d,), None, 3) != victim]
        assert survivors, "test needs at least one surviving device"
        for device in survivors[:3]:
            assert router.table("usage").latest((device,)) is not None
            pinned = router.table("usage").query(Query(
                KeyRange(min_prefix=(device,), max_prefix=(device,))))
            assert len(pinned.rows) == 4

        # Maintenance skips the corpse instead of dying.
        report = router.maintenance()
        assert report is not None
        router.close()

    def test_revive_shard_restores_scatter_service(self):
        router = crashable_router(shards=3)
        router.create_table("usage", usage_schema())
        rows = sample_rows(devices=12, samples=4)
        router.table("usage").insert(rows)
        victim = self.crash_one_shard(router)
        router.engines[victim].disk.failpoints.clear()

        router.revive_shard(victim)
        assert router.degraded_shards == {}
        # The revived worker lost its unflushed memtable rows - a real
        # worker crash - but every surviving shard's rows remain.
        result = router.table("usage").query(Query(limit=10_000))
        lost = {(r["device"], r["ts"]) for r in rows
                if shard_of((r["device"],), None, 3) == victim}
        got = {r[:2] for r in result.rows}
        assert got == {(r["device"], r["ts"]) for r in rows} - lost
        # And the revived shard accepts writes again.
        router.table("usage").insert([{"device": "dev-00", "ts": BASE + 999,
                                       "bytes": 1}])
        assert router.table("usage").latest(("dev-00",))[1] == BASE + 999
        router.close()


class TestCatalogAndStats:
    def test_ddl_fans_out_to_every_worker(self):
        router = make_router(shards=3)
        router.create_table("usage", usage_schema())
        for engine in router.engines:
            assert engine.has_table("usage")
        assert router.has_table("usage")
        assert router.table_names() == ["usage"]
        router.drop_table("usage")
        for engine in router.engines:
            assert not engine.has_table("usage")
        with pytest.raises(NoSuchTableError):
            router.table("usage")
        router.close()

    def test_stats_summary_sums_across_shards(self):
        router = make_router(shards=3)
        router.create_table("usage", usage_schema())
        router.table("usage").insert(sample_rows(devices=9, samples=3))
        summary = router.table("usage").stats_summary()
        assert summary["shards"] == 3
        assert summary["rows"] == 27
        router.close()

    def test_stats_summary_of_four_shards_reads_like_one_engine(self):
        """The same rows, flushes, maintenance pass, scan and query on
        4 shards and on one engine: the router's ratios are those of
        the shards' summed counters, the worst period is the worst
        shard's, and tier counts add up to the tablets - no field is
        the sum of four ratios or four maxima."""
        def run(db):
            table = db.create_table("usage", usage_schema())
            for batch in range(3):
                table.insert_tuples([
                    (f"dev-{d:02d}", BASE + batch * 1000 + s, s)
                    for d in range(40) for s in range(40)])
                table.flush_all()
            db.maintenance()
            assert sum(1 for _ in table.scan(Query())) == 4800
            table.query(Query())
            return table.stats_summary()

        engine = run(LittleTable(clock=VirtualClock(start=BASE)))
        router = make_router(shards=4)
        sharded = run(router)
        per_shard = [e.table("usage").stats_summary()
                     for e in router.engines]
        assert sharded["shards"] == 4
        assert sharded["rows"] == engine["rows"] == 4800
        assert sharded["write_amplification"] \
            == engine["write_amplification"] == 1.0
        assert sharded["scan_ratio"] == engine["scan_ratio"] == 1.0
        assert sharded["max_tablets_per_period"] == max(
            summary["max_tablets_per_period"] for summary in per_shard)
        assert sharded["tablets"] == sum(
            summary["tablets"] for summary in per_shard)
        assert sharded["tablets_by_tier"] == {"hot": sharded["tablets"]}
        router.close()

    def test_facade_parity_stats_and_health(self):
        router = make_router(shards=2)
        snapshot = router.stats()
        assert set(snapshot) >= {"counters", "gauges", "histograms"}
        health = router.health()
        assert health["shards"] == 2
        assert health["degraded_shards"] == {}
        assert health["read_only"] is False
        router.close()

    def test_ts_only_table_round_trips(self):
        router = make_router(shards=4)
        router.create_table("events", ts_only_schema())
        rows = [{"ts": BASE + i * 3_600_000_000, "event": f"e{i}"}
                for i in range(30)]
        router.table("events").insert(rows)
        result = router.table("events").query(Query(limit=100))
        assert [r[0] for r in result.rows] == sorted(
            r["ts"] for r in rows)
        router.close()
