"""Placement and pinning agree: a router answers as one engine does.

A router places a row by its first key column alone (``shard_of``), and
pins every read or delete whose key range fixes that column to the one
shard that owns it (``ShardedTable._owner``).  The two are separate
code; if they ever disagree, a pinned read asks a shard that holds
none of the rows and answers empty.  Here rows go in through a router
and through one embedded engine, over schemas whose first key column
is each type a key may have, with ``int`` and ``str`` subclass values
(an ``IntEnum`` member routes with its plain value).  Every
first-column read - a prefix or range query either way round, with
and without a row limit, ``latest_many``, an aggregate - and every
``bulk_delete`` must answer as the engine does; each read's pinned
answer must equal the answer of asking every shard and merging; and
none of them may scatter.
"""

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ASCENDING, DESCENDING, Column, ColumnType,
                        EngineConfig, KeyRange, LittleTable, Query, Schema,
                        TimeRange)
from repro.core.periods import FOUR_HOURS
from repro.core.vector import AggregatePartials, AggregateSpec
from repro.net import ShardRouter
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY
ROW_LIMIT = 4


class Net(enum.IntEnum):
    ONE = 1
    TWO = 2


class Name(str):
    pass


#: First-column values per key type; the last of each is never inserted.
VALUES = {
    ColumnType.INT32: [0, 1, 2, -3, 7, Net.ONE, Net.TWO, 11],
    ColumnType.INT64: [0, 1, 2, -3, 2 ** 40, Net.ONE, Net.TWO, 11],
    ColumnType.STRING: ["", "a", "b", "net-1", "ü", Name("a"),
                        Name("net-2"), "absent"],
    ColumnType.TIMESTAMP: [0, 1, 2, 5 * FOUR_HOURS, Net.ONE, Net.TWO, 7,
                           11],
}


def make_schema(first_type, with_device):
    columns = [Column("k", first_type)]
    key = ["k"]
    if with_device:
        columns.append(Column("device", ColumnType.INT64))
        key.append("device")
    columns += [Column("ts", ColumnType.TIMESTAMP),
                Column("n", ColumnType.INT64)]
    return Schema(columns, key=key + ["ts"])


def count_and_sum(schema, key_range, group_indexes):
    return AggregateSpec(key_range=key_range, time_range=TimeRange.all(),
                         group_indexes=group_indexes, bucket_width=None,
                         aggregates=(("COUNT", None),
                                     ("SUM", schema.column_index("n"))),
                         residuals=())


def scattered_query(router, table, query):
    return table._merge_results(query, router._fanout_table(
        table.name, lambda shard: shard.query(query)))


def scattered_latest(router, table, prefixes):
    ts_of = table.schema.ts_of
    answers = router._fanout_table(
        table.name, lambda shard: shard.latest_many(prefixes))
    newest = []
    for found in zip(*answers):
        rows = [row for row in found if row is not None]
        newest.append(max(rows, key=ts_of) if rows else None)
    return newest


def scattered_aggregate(router, table, spec):
    merged = AggregatePartials()
    for partials in router._fanout_table(
            table.name, lambda shard: shard.aggregate_partials(spec)):
        merged.merge(partials)
    return merged.groups


@settings(max_examples=40, deadline=None)
@given(first_type=st.sampled_from(sorted(VALUES, key=lambda t: t.value)),
       with_device=st.booleans(),
       shards=st.integers(2, 4),
       cells=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 3),
                               st.integers(0, 5)), min_size=1, max_size=40),
       flush_after=st.integers(0, 40),
       bounds=st.tuples(st.booleans(), st.booleans()),
       deletes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3),
                                  st.booleans()), max_size=3))
def test_pinned_reads_and_deletes_answer_as_one_engine(
        first_type, with_device, shards, cells, flush_after, bounds,
        deletes):
    values = VALUES[first_type]
    schema = make_schema(first_type, with_device)
    rows = {}
    for value, device, second in sorted(cells):
        key = (values[value],) + ((device,) if with_device else ()) \
            + (BASE + second * 1_000_000,)
        rows.setdefault(key, key + (len(rows),))
    rows = list(rows.values())
    config = EngineConfig(server_row_limit=ROW_LIMIT)
    clock = VirtualClock(start=BASE + MICROS_PER_DAY)
    engine = LittleTable(config=config, clock=clock)
    router = ShardRouter(shards=shards, config=config, clock=clock)
    try:
        expected = engine.create_table("t", schema)
        table = router.create_table("t", schema)
        for facade in (expected, table):
            facade.insert_tuples(rows[:flush_after])
            facade.flush_all()
            facade.insert_tuples(rows[flush_after:])

        for value in values:
            ranges = [KeyRange.prefix((value,))]
            if with_device:
                ranges += [KeyRange.prefix((value, 1)),
                           KeyRange(min_prefix=(value, 1),
                                    min_inclusive=bounds[0],
                                    max_prefix=(value, 3),
                                    max_inclusive=bounds[1])]
            for key_range in ranges:
                for direction in (ASCENDING, DESCENDING):
                    for limit in (None, 2):
                        query = Query(key_range, direction=direction,
                                      limit=limit)
                        want = expected.query(query)
                        got = table.query(query)
                        assert (got.rows, got.more_available) == \
                            (want.rows, want.more_available)
                        spread = scattered_query(router, table, query)
                        assert (spread.rows, spread.more_available) == \
                            (got.rows, got.more_available)
                for group_indexes in ((), (0,), (len(schema.key) - 1,)):
                    spec = count_and_sum(schema, key_range, group_indexes)
                    got = table.aggregate_partials(spec).groups
                    assert got == expected.aggregate_partials(spec).groups
                    assert got == scattered_aggregate(router, table, spec)
            prefixes = [(value,)] + ([(value, 1), (value, 3)]
                                     if with_device else [])
            got = table.latest_many(prefixes)
            assert got == expected.latest_many(prefixes)
            assert got == scattered_latest(router, table, prefixes)

        for value, device, whole in deletes:
            prefix = (values[value],) if whole or not with_device \
                else (values[value], device)
            assert table.bulk_delete(prefix) == expected.bulk_delete(prefix)
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("shard.scatter_queries", 0) == 0
        assert sorted(table.scan(Query())) == sorted(expected.scan(Query()))
    finally:
        router.close()
        engine.close()
