"""Warm-standby replication suites.

A primary serves the streaming commands
(``repl_manifest``/``repl_fetch_wal``/``repl_fetch_tablet``) for
every table; a :class:`~repro.net.replica.Follower` pulls them into a
read-only local engine that serves reads with reported lag, converges
after flushes and merges reshape the primary's tablet set, reclaims
what they drop, and promotes to a primary that passes fsck.
"""

import threading
import time

import pytest

from repro.core import (
    DurabilityPolicy,
    EngineConfig,
    LittleTable,
    Query,
    ReadOnlyModeError,
    ReplicaDivergedError,
    is_healthy,
)
from repro.disk import FileStorage, SimulatedDisk
from repro.net.client import LittleTableClient
from repro.net.replica import Follower
from repro.net.async_server import AsyncLittleTableServer
from repro.net.server import RequestDispatcher

from ..conftest import remote_table, usage_schema

REPL = DurabilityPolicy(tier="wal", wal_segment_bytes=4096)


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
        db.table("t").insert([row_for(i) for i in range(20)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            rows = follower.db.table("t").query(Query()).rows
            assert rows == db.table("t").query(Query()).rows
            assert len(rows) == 20
        finally:
            follower.stop()

    def test_resyncs_after_flush_reshapes_tablets(self, primary):
        db, server = primary
        db.table("t").insert([row_for(i) for i in range(30)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            db.table("t").flush_all()       # tablet set changes
            db.table("t").insert([row_for(30 + i) for i in range(10)])
            follower.sync_once()
            assert len(follower.db.table("t").query(Query()).rows) == 40
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
                db.table("t").insert([row_for(batch * 20 + i)
                                      for i in range(20)])
                if batch == 2:
                    db.table("t").flush_all()
            assert wait_until(
                lambda: follower.db.has_table("t")
                and len(follower.db.table("t").query(Query()).rows) == 100
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
            follower.sync_once()
            with pytest.raises(ReadOnlyModeError):
                follower.db.table("t").insert([row_for(0)])
        finally:
            follower.stop()

    def test_new_tables_appear(self, primary):
        db, server = primary
        follower = make_follower(server)
        try:
            follower.sync_once()
            db.create_table("u", usage_schema())
            db.table("u").insert([row_for(0)])
            follower.sync_once()
            assert follower.db.has_table("u")
            assert len(follower.db.table("u").query(Query()).rows) == 1
        finally:
            follower.stop()

    def test_every_table_is_followed(self, primary):
        """A ``none`` table contributes its tablets, a ``wal`` table
        its tablets and its log tail."""
        db, server = primary
        db.create_table("prefix_only", usage_schema(),
                        durability=DurabilityPolicy(tier="none"))
        db.table("prefix_only").insert([row_for(0), row_for(1)])
        db.table("prefix_only").flush_all()
        db.table("prefix_only").insert([row_for(2)])
        db.table("t").insert([row_for(0)])
        follower = make_follower(server)
        try:
            follower.sync_once()
            standby = follower.db
            assert standby.table_names() == ["prefix_only", "t"]
            assert len(standby.table("prefix_only").query(Query()).rows) == 2
            assert len(standby.table("t").query(Query()).rows) == 1
            assert follower.status()["tables"].keys() == {"t"}
        finally:
            follower.stop()


class TestResync:
    """A resync installs the primary's version in place of the old
    one: nothing streamed past its tablets is lost, nothing it drops
    is kept, and no table the primary dropped survives."""

    @pytest.fixture
    def merging(self):
        config = EngineConfig(merge_min_age_micros=0,
                              merge_rollover_delay_fraction=0.0)
        db = LittleTable(disk=SimulatedDisk(), config=config,
                         durability=REPL)
        db.create_table("t", usage_schema())
        server = AsyncLittleTableServer(db)
        server.start()
        try:
            yield db, server
        finally:
            server.stop()
            db.close()

    @staticmethod
    def tablet_files(db):
        return sorted(name for name in db.disk.list("tables/t/")
                      if name.endswith(".lt"))

    @staticmethod
    def listed(db):
        return sorted(meta.filename
                      for meta in db.table("t").descriptor.tablets)

    def test_dropped_tablets_are_reclaimed(self, merging):
        db, server = merging
        table = db.table("t")
        follower = make_follower(server)
        try:
            index = 0
            for _round in range(6):
                for _flush in range(4):
                    table.insert([row_for(index)])
                    index += 1
                    table.flush_all()
                while table.maybe_merge() is not None:
                    pass
                follower.sync_once()
            standby = follower.db
            assert self.listed(db) == self.listed(standby)
            assert self.tablet_files(standby) == self.listed(standby)
            assert len(standby.table("t").query(Query()).rows) == 24
        finally:
            follower.stop()

    def test_a_scan_across_a_resync_keeps_its_files(self, merging):
        db, server = merging
        table = db.table("t")
        for index in range(2):
            table.insert([row_for(index)])
            table.flush_all()
        follower = make_follower(server)
        try:
            follower.sync_once()
            standby = follower.db
            scan = standby.table("t").scan(Query())
            first = next(scan)
            while table.maybe_merge() is not None:
                pass
            follower.sync_once()
            # The replaced table's files wait for the scan to end.
            assert len(self.tablet_files(standby)) == 3
            assert [first, *scan] == db.table("t").query(Query()).rows
            assert self.tablet_files(standby) == self.listed(standby)
        finally:
            follower.stop()

    def test_rows_streamed_past_the_tablets_survive_a_resync(
            self, merging):
        """A merge changes the primary's tablets but not its log: the
        rows the standby streamed past them are fetched again."""
        db, server = merging
        table = db.table("t")
        for index in range(3):
            table.insert([row_for(index)])
            table.flush_all()
        follower = make_follower(server)
        try:
            follower.sync_once()
            table.insert([row_for(3)])
            follower.sync_once()
            while table.maybe_merge() is not None:
                pass
            follower.sync_once()
            rows = follower.db.table("t").query(Query()).rows
            assert rows == table.query(Query()).rows
            assert len(rows) == 4
        finally:
            follower.stop()

    def test_a_table_dropped_on_the_primary_goes(self, primary):
        db, server = primary
        db.create_table("gone", usage_schema())
        db.table("gone").insert([row_for(0)])
        follower = make_follower(server)
        follower.sync_once()
        assert follower.db.has_table("gone")
        db.drop_table("gone")
        follower.sync_once()
        follower.sync_once()
        assert follower.db.table_names() == ["t"]
        promoted = follower.promote()
        assert promoted.table_names() == ["t"]
        assert promoted.disk.list("tables/gone/") == []


class TestReplCommandFields:
    """The ``repl_*`` commands check their integer fields like every
    other command: a bad one is a malformed request."""

    @pytest.fixture
    def dispatcher(self, tmp_path):
        db = LittleTable(disk=SimulatedDisk(FileStorage(str(tmp_path))),
                         durability=REPL)
        table = db.create_table("t", usage_schema())
        table.insert([row_for(index) for index in range(50)])
        table.flush_all()
        table.insert([row_for(50)])
        yield RequestDispatcher(db), table.descriptor.tablets[0].filename
        db.close()

    @pytest.mark.parametrize("fields", [
        {"cmd": "repl_fetch_tablet", "length": -1},
        {"cmd": "repl_fetch_tablet", "offset": -8},
        {"cmd": "repl_fetch_tablet", "offset": True},
        {"cmd": "repl_fetch_tablet", "offset": "0"},
        {"cmd": "repl_fetch_wal", "after": "x"},
        {"cmd": "repl_fetch_wal", "after": -5, "limit_bytes": -1},
    ], ids=["length-negative", "offset-negative", "offset-bool",
            "offset-string", "after-string", "after-and-limit-negative"])
    def test_a_bad_integer_is_refused(self, dispatcher, fields):
        server, filename = dispatcher
        response = server.dispatch(
            dict(fields, table="t", filename=filename))
        assert response["error"] == "ProtocolViolationError", response


class TestDivergence:
    def test_primary_regression_halts_loop(self, primary):
        db, server = primary
        db.table("t").insert([row_for(i) for i in range(5)])
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
        db.table("t").insert([row_for(i) for i in range(25)])
        db.table("t").flush_all()
        db.table("t").insert([row_for(25 + i) for i in range(5)])
        follower = make_follower(server)
        standby = follower.db
        follower.sync_once()
        promoted = follower.promote()
        assert promoted is standby
        assert standby.replication is None
        standby.table("t").insert([row_for(100)])
        assert len(standby.table("t").query(Query()).rows) == 31
        assert is_healthy(standby)
        # Reopening the standby's directory comes up clean (the
        # ``ltdb fsck`` criterion: scrub finds nothing to repair).
        disk = standby.disk
        standby.close()
        reopened = LittleTable(disk=disk)
        assert reopened.last_scrub.clean
        assert len(reopened.table("t").query(Query()).rows) == 31
        reopened.close()

    def test_promote_rearms_wal_protection(self, primary):
        """Failover must not silently downgrade durability: the
        primary's table-level policy rides the manifest, and promote()
        re-arms the WAL so the new primary's acknowledged writes
        survive a crash and it can serve replication itself."""
        db, server = primary
        db.table("t").insert([row_for(i) for i in range(10)])
        follower = make_follower(server)
        follower.sync_once()
        promoted = follower.promote()
        table = promoted.table("t")
        assert table.durability.tier == "wal"
        assert table.wal is not None
        promoted.table("t").insert([row_for(50)])
        # Abandon without close (kill -9 on the new primary): the
        # acknowledged write must come back from the WAL.
        disk = promoted.disk
        reopened = LittleTable(disk=disk)
        rows = reopened.table("t").query(Query()).rows
        assert {row[2] for row in rows} == (
            {index + 1 for index in range(10)} | {51})
        assert reopened.table("t").durability.tier == "wal"
        reopened.close()


class TestServeFollowCli:
    def test_serve_follow_round_trip(self, primary):
        from repro.cli import serve_main

        db, server = primary
        db.table("t").insert([row_for(i) for i in range(12)])
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
                                table = remote_table(client, "t")
                                return len(list(table.scan(Query())))
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
                                durability=DurabilityPolicy(tier="none"))
            status = client.wal_status()
            assert status["tables"]["wired"]["tier"] == "none"
            assert status["default_tier"] == "wal"
        assert db.table("wired").durability.tier == "none"
