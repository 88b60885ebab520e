"""A ``query`` reply builds no row: the count gate.

A fixed set of wire queries over fixed tablets must leave the server's
``readcache.rows_built`` at zero - each page is cut from the cached
blocks' columns and encoded from them - and decode the committed number
of values (``codec.rows_decoded``: a row per schema-width).  Counts, not
times, so the gate holds on any host; the second test shows it fails
when a reply is encoded from rows again.
"""

from repro.core import Column, ColumnType, EngineConfig, LittleTable, Schema
from repro.core.row import DESCENDING, KeyRange, Query, QueryResult, TimeRange
from repro.net.client import _query_request
from repro.net.server import RequestDispatcher
from repro.obs.metrics import MetricsRegistry
from repro.util.clock import VirtualClock

NOW = 10_000_000_000
SCHEMA = Schema([Column("net", ColumnType.INT64),
                 Column("dev", ColumnType.INT64),
                 Column("ts", ColumnType.TIMESTAMP),
                 Column("note", ColumnType.STRING),
                 Column("rate", ColumnType.DOUBLE)],
                key=["net", "dev", "ts"])
#: Values one gate run decodes, a row per five: the six blocks of 100
#: rows the pages touch, each decoded whole once.
ROWS_DECODED = 600


def rows(first_ts):
    return [(net, dev, first_ts + 60 * sample, f"n{sample % 7}", sample / 4)
            for net in range(6) for dev in range(5) for sample in range(10)]


def queries():
    window = TimeRange(min_ts=NOW - 2100, max_ts=NOW, max_inclusive=False)
    return [Query(KeyRange.prefix((net,)), window, direction)
            for net in (1, 4) for direction in ("asc", DESCENDING)] + [
        Query(KeyRange.prefix((2, 3)), limit=4),
        Query(KeyRange(min_prefix=(3,), max_prefix=(5, 1)), window),
    ]


def gate_counters():
    """Two tablets that interleave every device's rows, a memtable on
    top; the counters the queries alone moved."""
    metrics = MetricsRegistry()
    db = LittleTable(config=EngineConfig(block_size_bytes=2048),
                     clock=VirtualClock(start=NOW), metrics=metrics)
    table = db.create_table("t", SCHEMA)
    table.insert_tuples(rows(NOW - 2400))
    table.flush_all()
    table.insert_tuples(rows(NOW - 1800))
    table.flush_all()
    table.insert_tuples(rows(NOW - 1200))
    before = metrics.snapshot()["counters"]
    dispatcher = RequestDispatcher(db)
    for query in queries():
        response = dispatcher.dispatch(_query_request("t", query))
        assert response["ok"] and response["block"], response
    after = metrics.snapshot()["counters"]
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in ("readcache.rows_built", "codec.rows_decoded",
                         "tablet.blocks_read")}


def test_wire_queries_build_no_row_and_decode_the_committed_count():
    counts = gate_counters()
    assert counts["tablet.blocks_read"] > 2
    assert counts["readcache.rows_built"] == 0
    assert counts["codec.rows_decoded"] == ROWS_DECODED


def test_the_gate_fails_when_a_reply_is_encoded_from_rows(monkeypatch):
    monkeypatch.setattr(QueryResult, "columns",
                        property(lambda self: list(zip(*self.rows))))
    assert gate_counters()["readcache.rows_built"] > 0
