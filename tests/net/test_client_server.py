"""Integration tests: client adaptor <-> TCP server."""

import pytest

from repro.core import (
    Column,
    ColumnType,
    DuplicateKeyError,
    EngineConfig,
    LittleTable,
    NoSuchTableError,
    Schema,
    TableExistsError,
)
from repro.net import AsyncLittleTableServer, ConnectionLost, LittleTableClient
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

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
def server(clock):
    db = LittleTable(clock=clock,
                     config=EngineConfig(server_row_limit=16))
    with AsyncLittleTableServer(db) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    with LittleTableClient(host, port) as connected:
        yield connected


class TestSchemaOperations:
    def test_create_list_drop(self, client):
        assert client.list_tables() == {}
        client.create_table("events", event_schema())
        tables = client.list_tables()
        assert list(tables) == ["events"]
        assert tables["events"] == event_schema()
        client.drop_table("events")
        assert client.list_tables() == {}

    def test_create_duplicate_raises(self, client):
        client.create_table("events", event_schema())
        with pytest.raises(TableExistsError):
            client.create_table("events", event_schema())

    def test_missing_table_raises(self, client):
        with pytest.raises(NoSuchTableError):
            client.drop_table("ghost")


class TestClientSchemaCache:
    def test_cache_filled_and_reused(self, client):
        client.create_table("events", event_schema())
        assert client._schema("events") == event_schema()
        assert "events" in client._schema_cache
        # Reuse does not re-fetch: poison the cache and observe.
        client._schema_cache["events"] = "sentinel"
        assert client._schema("events") == "sentinel"

    def test_alter_invalidates_cache(self, client):
        client.create_table("events", event_schema())
        old = client._schema("events")
        client.alter("events", "add_column",
                     column={"name": "extra", "type": "int64",
                             "default": None})
        assert client._schema_cache == {}
        new = client._schema("events")
        assert new != old
        assert new.columns[-1].name == "extra"

    def test_create_and_drop_invalidate_cache(self, client):
        client.create_table("events", event_schema())
        client._schema("events")
        client.drop_table("events")
        assert client._schema_cache == {}
        with pytest.raises(NoSuchTableError):
            client._schema("events")

    def test_stale_schema_cannot_decode_after_evolution(self, client,
                                                        clock):
        # The regression the fix targets: a continuation after DDL must
        # use the evolved schema's key shape, not the cached one.
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": 1, "device": d, "ts": clock.now(),
             "payload": b""}
            for d in range(40)  # > server_row_limit=16, forces paging
        ])
        list(client.query("events"))  # fills the schema cache
        client.alter("events", "add_column",
                     column={"name": "extra", "type": "int64",
                             "default": None})
        rows = list(client.query("events"))
        assert len(rows) == 40
        assert all(len(r) == 5 for r in rows)


class TestInsertAndQuery:
    def test_dict_insert_and_query(self, client, clock):
        client.create_table("events", event_schema())
        inserted = client.insert("events", [
            {"network": 1, "device": d, "ts": clock.now() + d,
             "payload": bytes([d])}
            for d in range(5)
        ])
        assert inserted == 5
        rows = list(client.query("events", key_min=(1,), key_max=(1,)))
        assert len(rows) == 5
        assert rows[0][3] == b"\x00"

    def test_continuation_past_server_limit(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": 1, "device": d, "ts": clock.now(),
             "payload": b""}
            for d in range(50)
        ])
        rows = list(client.query("events"))
        assert len(rows) == 50  # server limit is 16; adaptor continues
        devices = [r[1] for r in rows]
        assert devices == sorted(devices)

    def test_descending_continuation(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": 1, "device": d, "ts": clock.now(), "payload": b""}
            for d in range(40)
        ])
        rows = list(client.query("events", descending=True))
        assert [r[1] for r in rows] == list(range(39, -1, -1))

    def test_client_limit(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": 1, "device": d, "ts": clock.now(), "payload": b""}
            for d in range(50)
        ])
        rows = list(client.query("events", limit=20))
        assert len(rows) == 20

    def test_time_bounds(self, client, clock):
        client.create_table("events", event_schema())
        for minute in range(5):
            client.insert("events", [
                {"network": 1, "device": 1,
                 "ts": clock.now() + minute * MICROS_PER_MINUTE,
                 "payload": b""}])
        rows = list(client.query(
            "events", ts_min=clock.now() + MICROS_PER_MINUTE,
            ts_max=clock.now() + 3 * MICROS_PER_MINUTE))
        assert len(rows) == 3

    def test_duplicate_key_error_propagates(self, client, clock):
        client.create_table("events", event_schema())
        row = {"network": 1, "device": 1, "ts": clock.now(), "payload": b""}
        client.insert("events", [row])
        with pytest.raises(DuplicateKeyError):
            client.insert("events", [row])

    def test_batched_buffer_insert(self, client, clock):
        client.create_table("events", event_schema())
        client.config.insert_batch_rows = 10
        for device in range(25):
            client.buffer_insert(
                "events", (1, device, clock.now() + device, b""))
        # Two batches of 10 were flushed automatically; 5 pending.
        assert client.pending_rows == 5
        assert len(list(client.query("events"))) == 20
        client.flush_inserts()
        assert client.pending_rows == 0
        assert len(list(client.query("events"))) == 25

    def test_latest(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": 1, "device": 1, "ts": clock.now(), "payload": b"old"},
            {"network": 1, "device": 1, "ts": clock.now() + 10,
             "payload": b"new"},
        ])
        row = client.latest("events", (1, 1))
        assert row[3] == b"new"
        assert client.latest("events", (9, 9)) is None


class TestExtensions:
    def test_flush_command(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [{"network": 1, "device": 1,
                                  "ts": clock.now(), "payload": b""}])
        written = client.flush("events")
        assert written == 1

    def test_flush_before_command(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [{"network": 1, "device": 1,
                                  "ts": clock.now(), "payload": b""}])
        assert client.flush("events",
                            before_ts=clock.now() - 1_000_000) == 0
        assert client.flush("events", before_ts=clock.now() + 1) == 1

    def test_bulk_delete_command(self, client, clock):
        client.create_table("events", event_schema())
        client.insert("events", [
            {"network": n, "device": 1, "ts": clock.now(), "payload": b""}
            for n in (1, 2)
        ])
        removed = client.bulk_delete("events", (1,))
        assert removed == 1
        rows = list(client.query("events"))
        assert [r[0] for r in rows] == [2]

    def test_bulk_delete_bad_prefix_errors(self, client, clock):
        from repro.core import LittleTableError

        client.create_table("events", event_schema())
        with pytest.raises(LittleTableError):
            client.bulk_delete("events", ())


class TestCrashDetection:
    def test_server_stop_breaks_persistent_connection(self, clock):
        db = LittleTable(clock=clock)
        server = AsyncLittleTableServer(db)
        server.start()
        host, port = server.address
        client = LittleTableClient(host, port)
        assert client.ping()
        server.stop()
        with pytest.raises(ConnectionLost):
            client.ping()
        assert not client.connected

    def test_reconnect_after_restart(self, clock):
        db = LittleTable(clock=clock)
        server = AsyncLittleTableServer(db)
        server.start()
        host, port = server.address
        client = LittleTableClient(host, port)
        client.create_table("events", event_schema())
        server.stop()
        with pytest.raises(ConnectionLost):
            client.ping()
        # "Restart" the server on the recovered database.
        recovered = db.simulate_crash()
        server2 = AsyncLittleTableServer(recovered, host=host, port=port)
        server2.start()
        try:
            client.connect()
            assert client.ping()
            assert "events" in client.list_tables()
        finally:
            server2.stop()

    def test_concurrent_clients(self, server, clock):
        host, port = server.address
        first = LittleTableClient(host, port)
        second = LittleTableClient(host, port)
        try:
            first.create_table("events", event_schema())
            first.insert("events", [{"network": 1, "device": 1,
                                     "ts": clock.now(), "payload": b"a"}])
            # The second client sees the insert after it completes
            # (§3.1's post-insert visibility guarantee).
            rows = list(second.query("events"))
            assert len(rows) == 1
        finally:
            first.close()
            second.close()
