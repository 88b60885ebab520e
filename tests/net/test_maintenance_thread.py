"""The server's background maintenance loop racing client traffic."""

import threading
import time

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    LittleTable,
    Schema,
    is_healthy,
)
from repro.core.maintenance import MaintenancePolicy
from repro.net import (
    AsyncLittleTableServer,
    LittleTableClient,
    ShardRouter,
)
from repro.util.clock import MICROS_PER_DAY, SystemClock


def make_schema():
    return Schema(
        [Column("k", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.INT64)],
        key=["k", "ts"],
    )


class TestMaintenanceThread:
    def test_maintenance_command(self):
        db = LittleTable(config=EngineConfig(merge_min_age_micros=0))
        with AsyncLittleTableServer(db) as server:
            client = LittleTableClient(*server.address)
            client.create_table("t", make_schema())
            client.insert("t", [{"k": 1, "ts": 1000, "v": 1}])
            response = client._call({"cmd": "maintenance"})
            assert response["ok"]
            assert "t" in response["work"]
            client.close()

    def test_background_loop_flushes_and_merges(self):
        # A real wall clock so flush-by-age can trigger.
        db = LittleTable(
            clock=SystemClock(),
            config=EngineConfig(flush_age_micros=1, flush_size_bytes=4096,
                                merge_min_age_micros=0,
                                merge_rollover_delay_fraction=0.0),
            maintenance_policy=MaintenancePolicy(tick_interval_s=0.02))
        db.start_maintenance()
        server = AsyncLittleTableServer(db)
        server.start()
        try:
            client = LittleTableClient(*server.address)
            client.create_table("t", make_schema())
            now = int(time.time() * 1_000_000)
            for batch in range(6):
                client.insert("t", [
                    {"k": batch * 100 + i, "ts": now + batch * 100 + i,
                     "v": batch} for i in range(50)
                ])
                time.sleep(0.05)
            deadline = time.time() + 5
            table = db.table("t")
            while time.time() < deadline:
                if table.counters.flushes >= 1:
                    break
                time.sleep(0.02)
            assert table.counters.flushes >= 1
            client.close()
        finally:
            server.stop()
            db.stop_maintenance()
        assert is_healthy(db)

    def test_queries_race_maintenance_safely(self):
        db = LittleTable(
            clock=SystemClock(),
            config=EngineConfig(flush_age_micros=1, flush_size_bytes=2048,
                                merge_min_age_micros=0,
                                merge_rollover_delay_fraction=0.0),
            maintenance_policy=MaintenancePolicy(tick_interval_s=0.005))
        db.start_maintenance()
        server = AsyncLittleTableServer(db)
        server.start()
        errors = []
        try:
            setup = LittleTableClient(*server.address)
            setup.create_table("t", make_schema())
            now = int(time.time() * 1_000_000)

            def writer():
                client = LittleTableClient(*server.address)
                try:
                    for i in range(200):
                        client.insert("t", [{"k": i, "ts": now + i,
                                             "v": i}])
                except Exception as exc:
                    errors.append(exc)
                finally:
                    client.close()

            def reader():
                client = LittleTableClient(*server.address)
                try:
                    for _ in range(60):
                        rows = list(client.query("t"))
                        keys = [r[0] for r in rows]
                        assert keys == sorted(keys)
                except Exception as exc:
                    errors.append(exc)
                finally:
                    client.close()

            threads = [threading.Thread(target=writer),
                       threading.Thread(target=reader)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            final = list(setup.query("t"))
            assert len(final) == 200
            setup.close()
        finally:
            server.stop()
            db.stop_maintenance()
        assert is_healthy(db)


class TestShardedServerMaintenance:
    """``ltdb serve --shards N``: one scheduler per worker engine
    (``router.start_maintenance()``), each under the policy the router
    handed its engines - not one over the router's table facades,
    which a scheduler cannot drive."""

    def test_policy_on_a_router_flushes_per_engine(self, tmp_path):
        before = set(threading.enumerate())
        router = ShardRouter(
            shards=2, data_dir=str(tmp_path / "data"),
            config=EngineConfig(flush_size_bytes=4096),
            maintenance_policy=MaintenancePolicy(tick_interval_s=0.01))
        router.start_maintenance()
        server = AsyncLittleTableServer(router)
        server.start()
        try:
            client = LittleTableClient(*server.address)
            client.create_table("t", make_schema())
            now = int(time.time() * 1_000_000)
            client.insert_tuples(
                "t", [(k, now + k, k) for k in range(2000)])
            counters = {}
            deadline = time.time() + 10
            while time.time() < deadline:
                counters = client.stats()["counters"]
                if (counters.get("maintenance.ticks", 0) > 0
                        and list((tmp_path / "data").rglob("*.lt"))):
                    break
                time.sleep(0.02)
            client.close()
        finally:
            server.stop()
            router.stop_maintenance()
        assert not any(thread.name.startswith("lt-maintenance-")
                       for thread in set(threading.enumerate()) - before)
        assert counters.get("maintenance.ticks", 0) > 0
        assert counters.get("maintenance.errors", 0) == 0
        assert list((tmp_path / "data").rglob("*.lt"))
        router.close()
