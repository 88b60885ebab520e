"""Unit tests for the server's command dispatch (no TCP involved)."""

import pytest

from repro.core import Column, ColumnType, LittleTable, Schema
from repro.core.codec import compiled_ops
from repro.net.server import RequestDispatcher
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


def make_schema():
    return Schema(
        [Column("k", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.INT64)],
        key=["k", "ts"],
    )


@pytest.fixture
def server():
    # The dispatcher is the whole command layer: no sockets needed.
    return RequestDispatcher(LittleTable(clock=VirtualClock(start=BASE)))


def ok(response):
    assert response.get("ok"), response
    return response


def rows_of(response):
    """A ``query`` reply's rows: its block, decoded by its types."""
    assert response["types"] == ["int64", "timestamp", "int64"]
    if "block" not in response:
        return []
    return list(zip(*compiled_ops(make_schema()).decode_block_columns(
        response["block"])))


class TestDispatch:
    def test_ping(self, server):
        assert ok(server.dispatch({"cmd": "ping"}))["pong"]

    def test_unknown_command(self, server):
        response = server.dispatch({"cmd": "fly"})
        assert not response["ok"]
        assert response["error"] == "ProtocolViolationError"

    def test_missing_command(self, server):
        assert not server.dispatch({})["ok"]

    def test_create_insert_query(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({"cmd": "insert", "table": "t",
                            "rows": [[1, BASE, 10], [2, BASE, 20]]}))
        response = ok(server.dispatch({"cmd": "query", "table": "t"}))
        assert rows_of(response) == [(1, BASE, 10), (2, BASE, 20)]
        assert response["rows_scanned"] == 2
        empty = ok(server.dispatch({"cmd": "query", "table": "t",
                                    "key_min": [3]}))
        assert "block" not in empty and rows_of(empty) == []

    def test_engine_errors_become_responses(self, server):
        response = server.dispatch({"cmd": "drop_table", "table": "ghost"})
        assert not response["ok"]
        assert response["error"] == "NoSuchTableError"

    def test_internal_errors_are_contained(self, server):
        # A malformed request (missing fields) must not crash dispatch.
        response = server.dispatch({"cmd": "insert"})
        assert not response["ok"]

    def test_query_with_bounds(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({"cmd": "insert", "table": "t",
                            "rows": [[k, BASE + k, 0] for k in range(10)]}))
        response = ok(server.dispatch({
            "cmd": "query", "table": "t",
            "key_min": [3], "key_max": [6],
            "ts_min": BASE + 4, "descending": True,
        }))
        assert [row[0] for row in rows_of(response)] == [6, 5, 4]

    def test_latest_roundtrip(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({"cmd": "insert", "table": "t",
                            "rows": [[1, BASE, 1], [1, BASE + 9, 2],
                                     [2, BASE - 100, 3]]}))
        response = ok(server.dispatch({"cmd": "latest", "table": "t",
                                       "prefixes": [[1], [9], [2], [1]]}))
        assert response["rows"] == [[1, BASE + 9, 2], None,
                                    [2, BASE - 100, 3], [1, BASE + 9, 2]]
        assert response["types"] == ["int64", "timestamp", "int64"]
        looked_back = ok(server.dispatch({
            "cmd": "latest", "table": "t", "prefixes": [[1], [2]],
            "max_lookback_micros": 10}))
        assert looked_back["rows"] == [[1, BASE + 9, 2], None]

    def test_an_empty_latest_batch_never_reaches_the_engine(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        queries = server.db.table("t").counters.queries
        response = ok(server.dispatch({"cmd": "latest", "table": "t",
                                       "prefixes": []}))
        assert response["rows"] == []
        assert server.db.table("t").counters.queries == queries

    def test_flush_and_bulk_delete(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({"cmd": "insert", "table": "t",
                            "rows": [[k, BASE, 0] for k in range(4)]}))
        flush = ok(server.dispatch({"cmd": "flush", "table": "t"}))
        assert flush["tablets_written"] == 1
        deleted = ok(server.dispatch({"cmd": "bulk_delete", "table": "t",
                                      "prefix": [2]}))
        assert deleted["rows_removed"] == 1

    def test_alter_actions(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({
            "cmd": "alter", "table": "t", "action": "add_column",
            "column": {"name": "extra", "type": "string", "default": "x"},
        }))
        ok(server.dispatch({"cmd": "alter", "table": "t",
                            "action": "set_ttl", "ttl_micros": 1000}))
        table = server.db.table("t")
        assert table.schema.has_column("extra")
        assert table.ttl_micros == 1000
        bad = server.dispatch({"cmd": "alter", "table": "t",
                               "action": "rename"})
        assert not bad["ok"]

    def test_unknown_alter_action_is_a_counted_refusal(self, server):
        """A refusal goes through dispatch's error path: counted in
        ``server.errors``, not timed as a served ``alter``."""
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        bad = server.dispatch({"cmd": "alter", "table": "t",
                               "action": "rename", "id": 7})
        assert bad == {"ok": False, "id": 7,
                       "error": "ProtocolViolationError",
                       "message": "unknown alter action 'rename'"}
        snapshot = server.db.metrics.snapshot()
        assert snapshot["counters"]["server.errors"] == 1
        assert "server.cmd.alter.latency_us" not in snapshot["histograms"]

    def test_list_tables_includes_schema_and_ttl(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict(),
                            "ttl_micros": 777}))
        listed = ok(server.dispatch({"cmd": "list_tables"}))["tables"]
        assert listed[0]["name"] == "t"
        assert listed[0]["ttl_micros"] == 777
        assert Schema.from_dict(listed[0]["schema"]) == make_schema()


#: ``(request fields, the field named in the refusal)``: every field of
#: a ``query``, ``latest``, ``flush`` or ``bulk_delete`` arrives from
#: outside the program, and a wrong type is the client's error.
MALFORMED = [
    ({"cmd": "query", "descending": "no"}, "descending"),
    ({"cmd": "query", "descending": None}, "descending"),
    ({"cmd": "query", "limit": "5"}, "limit"),
    ({"cmd": "query", "limit": -1}, "limit"),
    ({"cmd": "query", "limit": True}, "limit"),
    ({"cmd": "query", "key_min": 5}, "key_min"),
    ({"cmd": "query", "key_max": "9"}, "key_max"),
    ({"cmd": "query", "key_min_inclusive": 1}, "key_min_inclusive"),
    ({"cmd": "query", "ts_max_inclusive": None}, "ts_max_inclusive"),
    ({"cmd": "query", "ts_min": "abc"}, "ts_min"),
    ({"cmd": "query", "ts_max": 1.5}, "ts_max"),
    ({"cmd": "query", "ts_min": True}, "ts_min"),
    ({"cmd": "aggregate", "aggregates": [["COUNT", None]],
      "ts_max": "abc"}, "ts_max"),
    ({"cmd": "latest", "prefixes": 7}, "prefixes"),
    ({"cmd": "latest"}, "prefixes"),
    ({"cmd": "latest", "prefixes": [[1], 7]}, "prefixes"),
    ({"cmd": "latest", "prefixes": [[1], None]}, "prefixes"),
    ({"cmd": "latest", "prefixes": [[1]], "max_lookback_micros": "x"},
     "max_lookback_micros"),
    ({"cmd": "latest", "prefixes": [[1]], "max_lookback_micros": True},
     "max_lookback_micros"),
    ({"cmd": "latest", "prefixes": [[1]], "max_lookback_micros": 1.5},
     "max_lookback_micros"),
    ({"cmd": "flush", "before_ts": "x"}, "before_ts"),
    ({"cmd": "flush", "before_ts": False}, "before_ts"),
    ({"cmd": "bulk_delete", "prefix": 7}, "prefix"),
    ({"cmd": "bulk_delete"}, "prefix"),
]


class TestOutsideInput:
    @pytest.mark.parametrize("fields, named", MALFORMED,
                             ids=[f"{i}-{fields['cmd']}-{named}"
                                  for i, (fields, named)
                                  in enumerate(MALFORMED)])
    def test_a_wrong_field_is_a_counted_protocol_violation(
            self, server, fields, named):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({"cmd": "insert", "table": "t",
                            "rows": [[k, BASE + k, 0] for k in range(3)]}))
        response = server.dispatch({"table": "t", **fields})
        assert response["ok"] is False
        assert response["error"] == "ProtocolViolationError"
        assert response["message"].startswith(
            f"malformed {fields['cmd']} request: {named} ")
        assert server.db.metrics.snapshot()["counters"]["server.errors"] == 1
        # Refused before the engine saw it: nothing flushed or deleted.
        table = server.db.table("t")
        assert table.stats_summary()["rows"] == 3
        assert not table.on_disk_tablets
