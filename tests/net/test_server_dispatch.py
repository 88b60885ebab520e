"""Unit tests for the server's command dispatch (no TCP involved)."""

import pytest

from repro.core import Column, ColumnType, LittleTable, Schema
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
        assert len(response["rows"]) == 2
        assert response["rows_scanned"] == 2

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
        assert [row[0] for row in response["rows"]] == [6, 5, 4]

    def test_latest_roundtrip(self, server):
        ok(server.dispatch({"cmd": "create_table", "table": "t",
                            "schema": make_schema().to_dict()}))
        ok(server.dispatch({"cmd": "insert", "table": "t",
                            "rows": [[1, BASE, 1], [1, BASE + 9, 2]]}))
        response = ok(server.dispatch({"cmd": "latest", "table": "t",
                                       "prefix": [1]}))
        assert response["row"] == [1, BASE + 9, 2]
        empty = ok(server.dispatch({"cmd": "latest", "table": "t",
                                    "prefix": [9]}))
        assert empty["row"] is None

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
