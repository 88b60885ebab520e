"""Integration tests: client adaptor <-> TCP server."""

import pytest

from repro.core import (
    DESCENDING,
    Column,
    ColumnType,
    DuplicateKeyError,
    EngineConfig,
    KeyRange,
    LittleTable,
    NoSuchTableError,
    Query,
    Schema,
    TableExistsError,
    TimeRange,
)
from repro.net import (AsyncLittleTableServer, ConnectionLost,
                       LittleTableClient, RemoteDatabase)
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


def events(client):
    """The ``events`` table's row operations over ``client``."""
    return RemoteDatabase(client).table("events")


def create_events(client):
    """Create the ``events`` table over ``client``."""
    return RemoteDatabase(client).create_table("events", event_schema())


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
        remote = RemoteDatabase(client)
        assert remote.table_names() == []
        remote.create_table("events", event_schema())
        assert remote.table_names() == ["events"]
        assert remote.table("events").schema == event_schema()
        remote.drop_table("events")
        assert remote.table_names() == []

    def test_create_duplicate_raises(self, client):
        create_events(client)
        with pytest.raises(TableExistsError):
            create_events(client)

    def test_missing_table_raises(self, client):
        with pytest.raises(NoSuchTableError):
            RemoteDatabase(client).drop_table("ghost")


class TestClientSchemaCache:
    def test_cache_filled_and_reused(self, client):
        create_events(client)
        assert client._schema("events") == event_schema()
        assert "events" in client._schema_cache
        # Reuse does not re-fetch: poison the cache and observe.
        client._schema_cache["events"] = "sentinel"
        assert client._schema("events") == "sentinel"

    def test_alter_invalidates_cache(self, client):
        create_events(client)
        old = client._schema("events")
        RemoteDatabase(client).table("events").append_column(
            Column("extra", ColumnType.INT64))
        assert client._schema_cache == {}
        new = client._schema("events")
        assert new != old
        assert new.columns[-1].name == "extra"

    def test_create_and_drop_invalidate_cache(self, client):
        create_events(client)
        client._schema("events")
        RemoteDatabase(client).drop_table("events")
        assert client._schema_cache == {}
        with pytest.raises(NoSuchTableError):
            client._schema("events")

    def test_stale_schema_cannot_decode_after_evolution(self, client,
                                                        clock):
        # The regression the fix targets: a continuation after DDL must
        # use the evolved schema's key shape, not the cached one.
        create_events(client)
        events(client).insert([
            {"network": 1, "device": d, "ts": clock.now(),
             "payload": b""}
            for d in range(40)  # > server_row_limit=16, forces paging
        ])
        list(events(client).scan(Query()))  # fills the schema cache
        RemoteDatabase(client).table("events").append_column(
            Column("extra", ColumnType.INT64))
        rows = list(events(client).scan(Query()))
        assert len(rows) == 40
        assert all(len(r) == 5 for r in rows)


class TestInsertAndQuery:
    def test_dict_insert_and_query(self, client, clock):
        create_events(client)
        inserted = events(client).insert([
            {"network": 1, "device": d, "ts": clock.now() + d,
             "payload": bytes([d])}
            for d in range(5)
        ])
        assert inserted == 5
        rows = list(events(client).scan(Query(KeyRange.prefix((1,)))))
        assert len(rows) == 5
        assert rows[0][3] == b"\x00"

    def test_continuation_past_server_limit(self, client, clock):
        create_events(client)
        events(client).insert([
            {"network": 1, "device": d, "ts": clock.now(),
             "payload": b""}
            for d in range(50)
        ])
        rows = list(events(client).scan(Query()))
        assert len(rows) == 50  # server limit is 16; adaptor continues
        devices = [r[1] for r in rows]
        assert devices == sorted(devices)

    def test_descending_continuation(self, client, clock):
        create_events(client)
        events(client).insert([
            {"network": 1, "device": d, "ts": clock.now(), "payload": b""}
            for d in range(40)
        ])
        rows = list(events(client).scan(Query(direction=DESCENDING)))
        assert [r[1] for r in rows] == list(range(39, -1, -1))

    def test_client_limit(self, client, clock):
        create_events(client)
        events(client).insert([
            {"network": 1, "device": d, "ts": clock.now(), "payload": b""}
            for d in range(50)
        ])
        rows = list(events(client).scan(Query(limit=20)))
        assert len(rows) == 20

    def test_time_bounds(self, client, clock):
        create_events(client)
        for minute in range(5):
            events(client).insert([
                {"network": 1, "device": 1,
                 "ts": clock.now() + minute * MICROS_PER_MINUTE,
                 "payload": b""}])
        rows = list(events(client).scan(Query(time_range=TimeRange.between(
            clock.now() + MICROS_PER_MINUTE,
            clock.now() + 3 * MICROS_PER_MINUTE))))
        assert len(rows) == 3

    def test_duplicate_key_error_propagates(self, client, clock):
        create_events(client)
        row = {"network": 1, "device": 1, "ts": clock.now(), "payload": b""}
        events(client).insert([row])
        with pytest.raises(DuplicateKeyError):
            events(client).insert([row])

    def test_latest(self, client, clock):
        create_events(client)
        events(client).insert([
            {"network": 1, "device": 1, "ts": clock.now(), "payload": b"old"},
            {"network": 1, "device": 1, "ts": clock.now() + 10,
             "payload": b"new"},
        ])
        row = events(client).latest((1, 1))
        assert row[3] == b"new"
        assert events(client).latest((9, 9)) is None


class TestExtensions:
    def test_flush_command(self, client, clock):
        create_events(client)
        events(client).insert([{"network": 1, "device": 1,
                                "ts": clock.now(), "payload": b""}])
        written = events(client).flush_all()
        assert len(written) == 1

    def test_flush_before_command(self, client, clock):
        create_events(client)
        events(client).insert([{"network": 1, "device": 1,
                                "ts": clock.now(), "payload": b""}])
        table = events(client)
        assert table.flush_before(clock.now() - 1_000_000) == []
        assert len(table.flush_before(clock.now() + 1)) == 1

    def test_bulk_delete_command(self, client, clock):
        create_events(client)
        events(client).insert([
            {"network": n, "device": 1, "ts": clock.now(), "payload": b""}
            for n in (1, 2)
        ])
        removed = events(client).bulk_delete((1,))
        assert removed == 1
        rows = list(events(client).scan(Query()))
        assert [r[0] for r in rows] == [2]

    def test_bulk_delete_bad_prefix_errors(self, client, clock):
        from repro.core import LittleTableError

        create_events(client)
        with pytest.raises(LittleTableError):
            events(client).bulk_delete(())


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
        create_events(client)
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
            assert RemoteDatabase(client).has_table("events")
        finally:
            server2.stop()

    def test_concurrent_clients(self, server, clock):
        host, port = server.address
        first = LittleTableClient(host, port)
        second = LittleTableClient(host, port)
        try:
            create_events(first)
            events(first).insert([{"network": 1, "device": 1,
                                   "ts": clock.now(), "payload": b"a"}])
            # The second client sees the insert after it completes
            # (§3.1's post-insert visibility guarantee).
            rows = list(events(second).scan(Query()))
            assert len(rows) == 1
        finally:
            first.close()
            second.close()
