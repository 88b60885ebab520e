"""SQL over TCP: SqlSession against RemoteDatabase (the paper's
client-side-adaptor architecture, §3.1)."""

import pytest

from repro.core import (
    Column,
    ColumnType,
    EngineConfig,
    KeyRange,
    LittleTable,
    NoSuchTableError,
    Query,
    Schema,
    TimeRange,
)
from repro.net import AsyncLittleTableServer, LittleTableClient, RemoteDatabase
from repro.sqlapi import SqlError, SqlSession
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY

CREATE = ("CREATE TABLE usage (network INT64, device INT64, "
          "ts TIMESTAMP, bytes INT64, PRIMARY KEY (network, device, ts))")


@pytest.fixture
def remote():
    clock = VirtualClock(start=BASE)
    db = LittleTable(clock=clock, config=EngineConfig(server_row_limit=8))
    with AsyncLittleTableServer(db) as server:
        host, port = server.address
        with LittleTableClient(host, port) as client:
            database = RemoteDatabase(client)
            database.clock = clock  # test convenience
            database.backend = db
            yield database


@pytest.fixture
def sql(remote):
    session = SqlSession(remote)
    session.execute(CREATE)
    now = remote.clock.now()
    for device in range(20):
        session.execute(
            f"INSERT INTO usage (network, device, ts, bytes) VALUES "
            f"(1, {device}, {now + device}, {device * 10})")
    return session


class TestRemoteSql:
    def test_select_crosses_server_limit(self, sql):
        rows = sql.execute("SELECT * FROM usage").rows
        assert len(rows) == 20  # server limit is 8

    def test_aggregates(self, sql):
        result = sql.execute(
            "SELECT COUNT(*), SUM(bytes), MAX(bytes) FROM usage")
        assert result.rows == [(20, 1900, 190)]

    def test_group_by(self, sql):
        result = sql.execute(
            "SELECT network, COUNT(*) FROM usage GROUP BY network")
        assert result.rows == [(1, 20)]

    def test_where_pushdown(self, sql, remote):
        result = sql.execute(
            "SELECT device FROM usage WHERE network = 1 AND device = 7")
        assert result.rows == [(7,)]

    def test_order_desc(self, sql):
        rows = sql.execute(
            "SELECT device FROM usage ORDER BY KEY DESC LIMIT 3").rows
        assert [r[0] for r in rows] == [19, 18, 17]

    def test_delete_over_wire(self, sql):
        assert sql.execute(
            "DELETE FROM usage WHERE network = 1").rows_affected == 20
        assert sql.execute("SELECT COUNT(*) FROM usage").scalar() == 0

    def test_alter_over_wire(self, sql):
        sql.execute("ALTER TABLE usage ADD COLUMN note STRING DEFAULT 'n'")
        assert sql.execute("SELECT note FROM usage LIMIT 1").rows == [("n",)]
        sql.execute("ALTER TABLE usage SET TTL 3600")

    def test_widen_over_wire(self, remote):
        session = SqlSession(remote)
        session.execute("CREATE TABLE narrow (ts TIMESTAMP, c INT32, "
                        "PRIMARY KEY (ts))")
        session.execute("ALTER TABLE narrow WIDEN COLUMN c")
        session.execute(
            f"INSERT INTO narrow (ts, c) VALUES ({BASE}, {2**40})")
        assert session.execute("SELECT c FROM narrow").scalar() == 2**40

    def test_flush_over_wire(self, sql, remote):
        assert sql.execute("FLUSH usage").rows_affected >= 1
        assert remote.backend.table("usage").unflushed_memtable_count == 0

    def test_show_and_describe(self, sql):
        assert sql.execute("SHOW TABLES").rows == [("usage",)]
        described = sql.execute("DESCRIBE usage").rows
        assert ("ts", "timestamp", 3) in described

    def test_drop_over_wire(self, sql):
        sql.execute("DROP TABLE usage")
        with pytest.raises(NoSuchTableError):
            sql.execute("SELECT * FROM usage")


class TestRemoteTableApi:
    def test_scan_with_query_object(self, remote):
        table = remote.create_table(
            "t", Schema([Column("k", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP)],
                        key=["k", "ts"]))
        table.insert([{"k": i, "ts": BASE + i} for i in range(30)])
        rows = list(table.scan(Query(KeyRange.prefix((5,)))))
        assert rows == [(5, BASE + 5)]
        bounded = list(table.scan(Query(
            time_range=TimeRange(min_ts=BASE + 10, min_inclusive=False,
                                 max_ts=BASE + 12, max_inclusive=False))))
        assert [r[0] for r in bounded] == [11]

    def test_latest_over_wire(self, remote):
        table = remote.create_table(
            "t", Schema([Column("k", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP)],
                        key=["k", "ts"]))
        table.insert([{"k": 1, "ts": BASE}, {"k": 1, "ts": BASE + 5}])
        assert table.latest((1,)) == (1, BASE + 5)

    def test_schema_cache_invalidation(self, remote):
        schema = Schema([Column("k", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP)], key=["k", "ts"])
        table = remote.create_table("t", schema)
        assert table.schema == schema
        table.append_column(Column("extra", ColumnType.INT64))
        assert table.schema.has_column("extra")

    def test_ttl_property(self, remote):
        schema = Schema([Column("k", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP)], key=["k", "ts"])
        table = remote.create_table("t", schema, ttl_micros=1000)
        assert table.ttl_micros == 1000
        table.set_ttl(2000)
        assert table.ttl_micros == 2000

    def test_bulk_delete(self, remote):
        schema = Schema([Column("k", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP)], key=["k", "ts"])
        table = remote.create_table("t", schema)
        table.insert([{"k": i % 2, "ts": BASE + i} for i in range(10)])
        assert table.bulk_delete((0,)) == 5

    def test_missing_table(self, remote):
        with pytest.raises(NoSuchTableError):
            remote.table("ghost")
