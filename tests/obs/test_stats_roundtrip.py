"""The STATS command end to end: every surface shows one registry.

ISSUE acceptance criterion: ``client.stats()`` over TCP, the STATS
protocol command, and ``db.metrics.snapshot()`` in process must all
return the same view.
"""

import pytest

from repro.core import (
    Column,
    ColumnType,
    LittleTable,
    ProtocolViolationError,
    Schema,
)
from repro.net import AsyncLittleTableServer, LittleTableClient
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


def event_schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("payload", ColumnType.BLOB)],
        key=["network", "device", "ts"],
    )


@pytest.fixture
def clock():
    return VirtualClock(start=BASE)


@pytest.fixture
def db(clock):
    return LittleTable(clock=clock)


@pytest.fixture
def server(db):
    with AsyncLittleTableServer(db) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    with LittleTableClient(host, port) as connected:
        yield connected


def strip_server_keys(snapshot):
    """Drop ``server.*`` metrics, which move with every request."""
    return {
        kind: {name: value for name, value in metrics.items()
               if not name.startswith("server.")}
        for kind, metrics in snapshot.items()
    }


class TestStatsRoundTrip:
    def test_stats_matches_in_process_snapshot(self, db, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": 1, "device": d, "ts": clock.now() + d,
             "payload": b"x"}
            for d in range(25)
        ])
        client.flush("events")
        list(client.query("events"))

        over_wire = strip_server_keys(client.stats())
        in_process = strip_server_keys(db.metrics.snapshot())
        assert over_wire == in_process
        assert over_wire["counters"]["insert.rows"] == 25
        assert over_wire["counters"]["flush.rows"] == 25

    def test_server_side_counters_present(self, client):
        client.ping()  # one completed command so a latency histogram exists
        snapshot = client.stats()
        assert snapshot["counters"]["server.requests"] >= 1
        assert snapshot["gauges"]["server.active_connections"] == 1
        assert any(name.startswith("server.cmd.")
                   for name in snapshot["histograms"])

    def test_stats_request_latency_not_in_its_own_snapshot(self, client):
        first = client.stats()
        # The snapshot is taken before dispatch records the request's
        # latency, so the stats command never observes itself.
        assert all(not name.startswith("server.cmd.stats")
                   for name in first["histograms"]) or (
            first["histograms"].get(
                "server.cmd.stats.latency_us", {}).get("count", 0) == 0)
        second = client.stats()
        assert second["histograms"][
            "server.cmd.stats.latency_us"]["count"] == 1

    def test_table_stats_over_wire(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [{"network": 1, "device": 1,
                                  "ts": clock.now(), "payload": b""}])
        tables = client.table_stats()
        assert list(tables) == ["events"]
        assert tables["events"]["rows"] == 1


class TestErrorSurface:
    def test_unknown_command_raises_typed_error(self, client):
        with pytest.raises(ProtocolViolationError):
            client._call({"cmd": "no_such_command"})

    def test_engine_errors_cross_the_wire_typed(self, client):
        from repro.core import NoSuchTableError

        with pytest.raises(NoSuchTableError):
            list(client.query("ghost"))

    def test_connection_survives_typed_errors(self, client):
        with pytest.raises(ProtocolViolationError):
            client._call({"cmd": "no_such_command"})
        assert client.ping()
