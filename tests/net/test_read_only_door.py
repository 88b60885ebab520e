"""Read-only mode is enforced at the table door, on every deployment.

A degraded engine (disk full, persistent EIO) refuses every write and
DDL - inserts, bulk deletes, schema changes, TTL changes, creating and
dropping tables - however the write reaches it: a ``Table`` in
process, a SQL statement, a shard router whose one shard is read-only,
a server in front of that router, or a server in front of the engine.  A refused write applies nothing,
on any shard.  Reads go on, and so does an in-process flush (``close()``
needs it).
"""

from contextlib import contextmanager

import pytest

import repro
from repro.core import (Column, ColumnType, LittleTable, Query,
                        ReadOnlyModeError, Schema)
from repro.net import AsyncLittleTableServer, ShardRouter
from repro.net.shard import shard_of
from repro.sqlapi import SqlSession
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY
SHARDS = 2


def make_schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("n", ColumnType.INT32)],
        key=["network", "device", "ts"])


#: Device 1 lives on the read-only shard; ``OTHER`` on a writable one.
OTHER = next(device for device in range(2, 100)
             if shard_of((1, device), None, SHARDS)
             != shard_of((1, 1), None, SHARDS))
ROWS = [(1, device, BASE + i, i) for device in (1, OTHER) for i in range(3)]

#: Every write and DDL entry point, spelled on a database facade.
FACADE_WRITES = {
    "insert_tuples": lambda db: db.table("t").insert_tuples(
        [(1, 1, BASE + 10, 0), (1, OTHER, BASE + 10, 0)]),
    "insert": lambda db: db.table("t").insert(
        [{"network": 1, "device": 1, "ts": BASE + 11, "n": 0}]),
    "bulk_delete": lambda db: db.table("t").bulk_delete((1,)),
    "append_column": lambda db: db.table("t").append_column(
        Column("extra", ColumnType.INT64)),
    "widen_column": lambda db: db.table("t").widen_column("n"),
    "set_ttl": lambda db: db.table("t").set_ttl(MICROS_PER_DAY),
    "drop_table": lambda db: db.drop_table("t"),
    "create_table": lambda db: db.create_table("u", make_schema()),
}

#: The same writes as SQL statements.
SQL_WRITES = {
    "insert": "INSERT INTO t (network, device, ts, n) "
              f"VALUES (1, 1, {BASE + 10}, 0)",
    "delete": "DELETE FROM t WHERE network = 1",
    "add_column": "ALTER TABLE t ADD COLUMN extra INT64",
    "widen_column": "ALTER TABLE t WIDEN COLUMN n",
    "set_ttl": "ALTER TABLE t SET TTL 86400",
    "drop_table": "DROP TABLE t",
    "create_table": "CREATE TABLE u (k INT64, ts TIMESTAMP, "
                    "PRIMARY KEY (k, ts))",
}


def degraded_engine():
    db = LittleTable(clock=VirtualClock(start=BASE))
    db.create_table("t", make_schema()).insert_tuples(ROWS)
    db.enter_read_only("disk full")
    return db


def degraded_router():
    """Only the shard holding device 1 is read-only: the router as a
    whole is not (``router.read_only`` is False)."""
    router = ShardRouter(shards=SHARDS, clock=VirtualClock(start=BASE))
    router.create_table("t", make_schema()).insert_tuples(ROWS)
    router.engines[shard_of((1, 1), None, SHARDS)].enter_read_only(
        "disk full")
    assert not router.read_only
    return router


def state(engines):
    """Everything a write could change, on every engine under a door:
    a write refused whole leaves no shard changed."""
    return [{name: (db.table(name).schema, db.table(name).ttl_micros,
                    sorted(db.table(name).scan(Query())))
             for name in db.table_names()} for db in engines]


@contextmanager
def door(kind):
    """``(engines, send)``: the engines under the door under test, one
    of them read-only, and ``send(write)``, which sends a named write
    through that door."""
    if kind in ("embedded", "sql", "wire-engine"):
        db = degraded_engine()
        if kind == "sql":
            session = SqlSession(db)
            yield [db], lambda write: session.execute(SQL_WRITES[write])
        elif kind == "wire-engine":
            with AsyncLittleTableServer(db) as server:
                with repro.connect(server.address) as remote:
                    yield [db], lambda write: FACADE_WRITES[write](remote)
        else:
            yield [db], lambda write: FACADE_WRITES[write](db)
        return
    router = degraded_router()
    try:
        if kind == "router":
            yield router.engines, lambda write: FACADE_WRITES[write](router)
        else:
            with AsyncLittleTableServer(router) as server:
                with repro.connect(server.address) as remote:
                    yield router.engines, \
                        lambda write: FACADE_WRITES[write](remote)
    finally:
        router.close()


@pytest.mark.parametrize("kind, write", [
    (kind, write)
    for kind in ("embedded", "sql", "router", "wire", "wire-engine")
    for write in (SQL_WRITES if kind == "sql" else FACADE_WRITES)])
def test_every_write_is_refused_whole(kind, write):
    with door(kind) as (engines, send):
        before = state(engines)
        with pytest.raises(ReadOnlyModeError):
            send(write)
        assert state(engines) == before


@pytest.mark.parametrize("make", [degraded_engine, degraded_router],
                         ids=["embedded", "router"])
def test_reads_and_flush_go_on(make):
    db = make()
    table = db.table("t")
    assert sorted(table.scan(Query())) == sorted(ROWS)
    assert table.query(Query()).rows == sorted(ROWS)
    assert table.latest((1, 1)) == (1, 1, BASE + 2, 2)
    assert len(table.flush_all()) >= 1
    db.close()


def test_a_router_writes_where_no_shard_is_read_only():
    """One degraded disk degrades the writes that need its shard, not
    the rest of the router."""
    router = degraded_router()
    table = router.table("t")
    assert table.insert_tuples([(1, OTHER, BASE + 20, 0)]) == 1
    assert table.bulk_delete((1, OTHER)) == 4
    with pytest.raises(ReadOnlyModeError):
        table.bulk_delete((1, 1))
    router.close()
