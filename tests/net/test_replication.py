"""Warm-standby replication suites.

A primary with ``replicated``-tier tables serves the streaming
commands (``repl_manifest``/``repl_fetch_wal``/``repl_fetch_tablet``);
a :class:`~repro.net.replica.Follower` pulls them into a read-only
local engine that serves reads with reported lag, converges after
flushes reshape the primary's tablet set, and promotes to a primary
that passes fsck.
"""

import threading
import time

import pytest

from repro.core import (
    DurabilityPolicy,
    LittleTable,
    Query,
    ReadOnlyModeError,
    ReplicaDivergedError,
    is_healthy,
)
from repro.disk import SimulatedDisk
from repro.net.client import LittleTableClient
from repro.net.replica import Follower
from repro.net.async_server import AsyncLittleTableServer

from ..conftest import usage_schema

REPL = DurabilityPolicy(tier="replicated", wal_segment_bytes=4096)


def row_for(index: int) -> dict:
    return {"network": 1, "device": 1, "ts": index + 1,
            "bytes": index, "rate": 0.0}


@pytest.fixture
def primary():
    db = LittleTable(disk=SimulatedDisk(), durability=REPL)
    db.create_table("t", usage_schema())
    server = AsyncLittleTableServer(db)
    server.start()
    try:
        yield db, server
    finally:
        server.stop()
        db.close()


def make_follower(server, **kwargs):
    standby = LittleTable(disk=SimulatedDisk())
    host, port = server.address
    return Follower(standby, host, port, **kwargs)


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestConvergence:
    def test_streams_memtable_rows(self, primary):
        db, server = primary
        db.insert("t", [row_for(i) for i in range(20)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            rows = follower.db.query("t", Query()).rows
            assert rows == db.query("t", Query()).rows
            assert len(rows) == 20
        finally:
            follower.stop()

    def test_resyncs_after_flush_reshapes_tablets(self, primary):
        db, server = primary
        db.insert("t", [row_for(i) for i in range(30)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            db.table("t").flush_all()       # tablet set changes
            db.insert("t", [row_for(30 + i) for i in range(10)])
            follower.sync_once()
            assert len(follower.db.query("t", Query()).rows) == 40
            # The standby's copy is tablets + replayed tail, healthy.
            assert is_healthy(follower.db)
        finally:
            follower.stop()

    def test_background_loop_converges_and_reports_lag(self, primary):
        db, server = primary
        follower = make_follower(server, poll_interval_s=0.02)
        try:
            follower.start()
            for batch in range(5):
                db.insert("t", [row_for(batch * 20 + i)
                                for i in range(20)])
                if batch == 2:
                    db.table("t").flush_all()
            assert wait_until(
                lambda: follower.db.has_table("t")
                and len(follower.db.query("t", Query()).rows) == 100
                and follower.lag_records() == 0)
            status = follower.status()
            assert status["following"] == "%s:%d" % server.address
            assert status["tables"]["t"]["lag_records"] == 0
            assert status["error"] is None
            # Lag also surfaces through the standby's own admin API.
            wal = follower.db.wal_status()
            assert wal["replication"]["lag_records"] == 0
            health = follower.db.health_summary()["durability"]
            assert health["replication"]["following"]
        finally:
            follower.stop()

    def test_standby_rejects_writes(self, primary):
        db, server = primary
        follower = make_follower(server)
        try:
            with pytest.raises(ReadOnlyModeError):
                follower.db.insert("t", [row_for(0)])
        finally:
            follower.stop()

    def test_new_tables_appear(self, primary):
        db, server = primary
        follower = make_follower(server)
        try:
            follower.sync_once()
            db.create_table("u", usage_schema())
            db.insert("u", [row_for(0)])
            follower.sync_once()
            assert follower.db.has_table("u")
            assert len(follower.db.query("u", Query()).rows) == 1
        finally:
            follower.stop()

    def test_none_tier_tables_not_replicated(self, primary):
        db, server = primary
        db.create_table("local_only", usage_schema(),
                        durability=DurabilityPolicy(tier="wal"))
        db.insert("local_only", [row_for(0)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            assert not follower.db.has_table("local_only")
        finally:
            follower.stop()


class TestDivergence:
    def test_primary_regression_halts_loop(self, primary):
        db, server = primary
        db.insert("t", [row_for(i) for i in range(5)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            # Fake a primary that lost its log (restored from an old
            # snapshot): its durable LSN is behind what we applied.
            follower._applied["t"] = 10_000
            with pytest.raises(ReplicaDivergedError):
                follower.sync_once()
            # The background loop records the error and halts.
            follower.start()
            assert wait_until(lambda: follower.error is not None)
            assert "re-seed" in follower.error
        finally:
            follower.stop()


class TestPromotion:
    def test_promote_serves_writes_and_passes_fsck(self, primary):
        db, server = primary
        db.insert("t", [row_for(i) for i in range(25)])
        db.table("t").flush_all()
        db.insert("t", [row_for(25 + i) for i in range(5)])
        follower = make_follower(server)
        standby = follower.db
        follower.sync_once()
        promoted = follower.promote()
        assert promoted is standby
        assert standby.replication is None
        standby.insert("t", [row_for(100)])
        assert len(standby.query("t", Query()).rows) == 31
        assert is_healthy(standby)
        # Reopening the standby's directory comes up clean (the
        # ``ltdb fsck`` criterion: scrub finds nothing to repair).
        disk = standby.disk
        standby.close()
        reopened = LittleTable(disk=disk)
        assert reopened.last_scrub.clean
        assert len(reopened.query("t", Query()).rows) == 31
        reopened.close()

    def test_promote_rearms_wal_protection(self, primary):
        """Failover must not silently downgrade durability: the
        primary's table-level policy rides the manifest, and promote()
        re-arms the WAL so the new primary's acknowledged writes
        survive a crash and it can serve replication itself."""
        db, server = primary
        db.insert("t", [row_for(i) for i in range(10)])
        follower = make_follower(server)
        follower.sync_once()
        promoted = follower.promote()
        table = promoted.table("t")
        assert table.durability.tier == "replicated"
        assert table.wal is not None
        promoted.insert("t", [row_for(50)])
        # Abandon without close (kill -9 on the new primary): the
        # acknowledged write must come back from the WAL.
        disk = promoted.disk
        reopened = LittleTable(disk=disk)
        rows = reopened.query("t", Query()).rows
        assert {row[2] for row in rows} == (
            {index + 1 for index in range(10)} | {51})
        assert reopened.table("t").durability.tier == "replicated"
        reopened.close()


class TestServeFollowCli:
    def test_serve_follow_round_trip(self, primary):
        from repro.cli import serve_main

        db, server = primary
        db.insert("t", [row_for(i) for i in range(12)])
        host, port = server.address
        stop = threading.Event()
        seen = {}

        def on_ready(standby_server):
            def probe():
                try:
                    shost, sport = standby_server.address
                    with LittleTableClient(shost, sport) as client:
                        def rows():
                            try:
                                return len(list(client.query("t")))
                            except Exception:
                                return -1  # table not streamed yet

                        assert wait_until(lambda: rows() == 12)
                        seen["rows"] = rows()
                        seen["wal"] = client.wal_status()
                finally:
                    stop.set()

            threading.Thread(target=probe, daemon=True).start()

        rc = serve_main(["--follow", f"{host}:{port}", "--port", "0"],
                        stop_event=stop, on_ready=on_ready)
        assert rc == 0
        assert seen["rows"] == 12
        assert seen["wal"]["replication"]["following"] == f"{host}:{port}"

    def test_follow_rejects_shards(self):
        from repro.cli import serve_main

        assert serve_main(["--follow", "127.0.0.1:1", "--shards", "2",
                           "--port", "0"]) == 2

    def test_follow_rejects_bad_address(self):
        from repro.cli import serve_main

        assert serve_main(["--follow", "nonsense", "--port", "0"]) == 2


class TestWireDurability:
    def test_create_table_with_policy_over_wire(self, primary):
        db, server = primary
        host, port = server.address
        with LittleTableClient(host, port) as client:
            client.create_table("wired", usage_schema(),
                                durability=DurabilityPolicy(tier="wal"))
            status = client.wal_status()
            assert status["tables"]["wired"]["tier"] == "wal"
            assert status["default_tier"] == "replicated"
        assert db.table("wired").durability.tier == "wal"
