"""A ``query`` reply against a sorted-list oracle, byte for byte.

The server cuts a reply from columns: the cursor finds its stretches by
bisecting key and timestamp columns, and ``_cmd_query`` encodes the
page without building a row.  This compares every reply field that
carries rows - ``block``, ``more_available`` and ``rows_scanned`` -
with the reply the rows themselves give: the selected sources' rows,
decoded block by block and translated to the table's schema, sorted,
filtered one at a time and encoded through ``encode_rows``.  It runs
over one engine and over a two-shard router, pinned and scattered, on
tables that hold all six column types in tablets that overlap in key
and time, a tablet written before ``ADD COLUMN`` and ``WIDEN``, a live
memtable and, drawn or not, a TTL.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Column, ColumnType, EngineConfig, LittleTable, Schema
from repro.core import readpath
from repro.core.codec import compiled_ops
from repro.core.row import (ASCENDING, DESCENDING, KeyRange, Query,
                            QueryResult, QueryStats, TimeRange)
from repro.core.vector import resolve_time_bounds
from repro.net.client import _query_request
from repro.net.server import RequestDispatcher
from repro.net.shard import ShardRouter, fixed_first
from repro.util.clock import VirtualClock

NOW = 10_000_000_000
SERVER_ROW_LIMIT = 7
SCHEMA = Schema([
    Column("a", ColumnType.INT64),
    Column("s", ColumnType.STRING),
    Column("ts", ColumnType.TIMESTAMP),
    Column("i", ColumnType.INT32),
    Column("d", ColumnType.DOUBLE),
    Column("b", ColumnType.BLOB),
], key=["a", "s", "ts"])
ADDED = Column("note", ColumnType.STRING, default="-")

keys = st.tuples(st.integers(0, 3), st.sampled_from(["", "x", "é", "yy"]),
                 st.integers(NOW - 40, NOW))
values = st.tuples(st.integers(-(1 << 31), (1 << 31) - 1),
                   st.floats(allow_nan=False), st.binary(max_size=3),
                   st.text(max_size=3))


@st.composite
def tables(draw):
    """Rows at the final schema, split into batches: all but the last
    are flushed, each to tablets of its own; ``altered`` batches come
    after the schema change (the ones before it are written without
    ``note``, which the table then reads as its default)."""
    held = sorted(draw(st.sets(keys, min_size=1, max_size=60)))
    rows = [key + draw(values) for key in held]
    count = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, count - 1), min_size=len(rows),
                          max_size=len(rows)))
    batches = [[row for row, at in zip(rows, owner) if at == index]
               for index in range(count)]
    altered = draw(st.integers(0, count))
    ttl = draw(st.sampled_from([None, 30]))
    return batches, altered, ttl


#: One side of a key range: none, a prefix or a whole key.
bounds = st.one_of(st.none(), st.tuples(st.integers(0, 3)),
                   st.tuples(st.integers(0, 3),
                             st.sampled_from(["", "x", "é", "yy"])),
                   keys)


@st.composite
def queries(draw):
    if draw(st.booleans()):
        key_range = KeyRange.prefix(draw(st.one_of(
            st.tuples(st.integers(0, 3)),
            st.tuples(st.integers(0, 3),
                      st.sampled_from(["", "x", "é", "yy"])))))
    else:
        key_range = KeyRange(draw(bounds), draw(st.booleans()),
                             draw(bounds), draw(st.booleans()))
    time_range = TimeRange(draw(st.one_of(st.none(),
                                          st.integers(NOW - 45, NOW))),
                           draw(st.booleans()),
                           draw(st.one_of(st.none(),
                                          st.integers(NOW - 45, NOW))),
                           draw(st.booleans()))
    limit = draw(st.sampled_from([None, 0, 1, 3, SERVER_ROW_LIMIT + 2]))
    return Query(key_range, time_range,
                 draw(st.sampled_from([ASCENDING, DESCENDING])), limit)


def config():
    return EngineConfig(server_row_limit=SERVER_ROW_LIMIT)


def load(db, batches, altered, ttl):
    """Fill table ``t`` of ``db`` (an engine or a router)."""
    table = db.create_table("t", SCHEMA, ttl_micros=ttl)
    for index, batch in enumerate(batches):
        if index == altered:
            table.append_column(ADDED)
            table.widen_column("i")
        if batch:
            table.insert_tuples([row if index >= altered else row[:-1]
                                 for row in batch])
        if index < len(batches) - 1:
            table.flush_all()
    if altered == len(batches):
        table.append_column(ADDED)
        table.widen_column("i")
    return table


# ------------------------------------------------------------ the oracle

def source_rows(table, query):
    """Every row of the sources the query reads - the tablets the
    table's pruning selects, decoded block by block, and the memtables
    whose timespan it overlaps - at the table's schema."""
    schema = table.schema
    rows = []
    with table._read_plan() as plan:
        for meta in plan.select(query.time_range, query.key_range):
            reader = table._reader(meta)
            reader.ensure_loaded()
            for index in range(reader.block_count):
                columns, _body = reader.decode_payload(
                    index, reader.read_block_payload(index))
                rows += [schema.translate_row(row, reader.schema)
                         for row in zip(*columns)]
        for memtable in plan.memtables:
            if query.time_range.overlaps(memtable.min_ts, memtable.max_ts):
                rows += [schema.translate_row(row, memtable.schema)
                         for row in memtable.sorted_run()[0]]
    return rows


def oracle_result(table, query):
    """``Table.query`` one row at a time: the rows inside the key range
    in result order, walked until the page (or one row past the server
    limit) is full, each walked row counted as scanned."""
    key_of = table.schema.key_of
    ttl = table.descriptor.ttl_micros
    lo, hi = resolve_time_bounds(query.time_range,
                                 None if ttl is None else NOW - ttl)
    rows = sorted((row for row in source_rows(table, query)
                   if query.key_range.contains(key_of(row))),
                  key=key_of, reverse=query.direction == DESCENDING)
    limit = query.limit
    if limit is None or limit > SERVER_ROW_LIMIT:
        limit = SERVER_ROW_LIMIT + 1
    page, scanned = [], 0
    for row in rows if limit else ():
        scanned += 1
        ts = row[2]
        if (lo is None or ts >= lo) and (hi is None or ts <= hi):
            page.append(row)
            if len(page) == limit:
                break
    return QueryResult(page[:SERVER_ROW_LIMIT], len(page) > SERVER_ROW_LIMIT,
                       QueryStats(rows_scanned=scanned,
                                  rows_returned=len(page)))


def expected_reply(schema, result):
    reply = {"more_available": result.more_available,
             "rows_scanned": result.stats.rows_scanned}
    if result.rows:
        reply["block"] = compiled_ops(schema).encode_rows(result.rows)
    return reply


def reply(db, query):
    response = RequestDispatcher(db).dispatch(_query_request("t", query))
    assert response["ok"], response
    return {field: response[field] for field in
            ("more_available", "rows_scanned", "block") if field in response}


def engine_expected(db, query):
    table = db.table("t")
    return expected_reply(table.schema, oracle_result(table, query))


def router_expected(router, query):
    """A pinned query is its shard's answer; a scattered one is every
    shard's oracle page merged by the router's own merge."""
    table = router.table("t")
    pinned = table._owner(fixed_first(query.key_range))
    if pinned is not None:
        return engine_expected(router.engines[pinned], query)
    results = [oracle_result(engine.table("t"), query)
               for engine in router.engines]
    return expected_reply(table.schema, table._merge_results(query, results))


def check(data, query):
    batches, altered, ttl = data
    db = LittleTable(config=config(), clock=VirtualClock(start=NOW))
    load(db, batches, altered, ttl)
    assert reply(db, query) == engine_expected(db, query)
    router = ShardRouter(shards=2, config=config(),
                         clock=VirtualClock(start=NOW))
    try:
        load(router, batches, altered, ttl)
        assert reply(router, query) == router_expected(router, query)
    finally:
        router.close()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=tables(), query=queries())
def test_a_reply_is_the_oracles_byte_for_byte(data, query):
    check(data, query)


def test_the_differential_sees_a_lost_row(monkeypatch):
    """What the differential is for: drop the last in-window row of
    every stretch the cursor hands out and the replies differ."""
    cut_stretches = readpath.cut_stretches

    def losing(*args):
        for pieces in cut_stretches(*args):
            run, lo, hi = pieces[-1]
            pieces = pieces[:-1] + ([(run, lo, hi - 1)] if hi - lo > 1
                                    else [])
            if pieces:      # as the cursor, which yields no empty stretch
                yield pieces

    rows = [(a, "x", NOW - 20 + n, n, n / 2, b"", "") for a in range(2)
            for n in range(4)]
    data = ([rows[::2], rows[1::2]], 2, None)
    query = Query(KeyRange.prefix((1,)), TimeRange.between(NOW - 19, NOW))
    check(data, query)
    monkeypatch.setattr(readpath, "cut_stretches", losing)
    db = LittleTable(config=config(), clock=VirtualClock(start=NOW))
    load(db, *data)
    assert reply(db, query) != engine_expected(db, query)
