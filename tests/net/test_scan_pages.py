"""One §3.5 continuation loop under every paged ``scan``.

``ShardedTable.scan`` (in process, over a router) and ``RemoteTable.scan``
(over the wire, in front of one engine or of a router) both page through
``query`` commands cut at a server row limit of 7 and resume each page
past its last key with ``row.scan_pages``.  Whatever the bounding box,
direction and limit, each must stream exactly the rows that ``Table.scan``
streams on one engine, which has no row limit to continue past.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import (ASCENDING, DESCENDING, Column, ColumnType,
                        EngineConfig, KeyRange, LittleTable, Query, Schema,
                        TimeRange)
from repro.net import AsyncLittleTableServer, ShardRouter
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY
ROW_LIMIT = 7
NETWORKS = 3
DEVICES = 4
SAMPLES = 6


def make_schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("v", ColumnType.INT64)],
        key=["network", "device", "ts"])


#: Not every (network, device) has every sample, so pages end mid-key.
ROWS = [(network, device, BASE + 10 * s, network * 100 + device * 10 + s)
        for network in range(NETWORKS) for device in range(DEVICES)
        for s in range(SAMPLES) if (network + device + s) % 4]


def loaded(db):
    db.create_table("t", make_schema()).insert_tuples(ROWS)
    return db


def config():
    return EngineConfig(server_row_limit=ROW_LIMIT)


@pytest.fixture(scope="module")
def doors():
    """``(oracle, {name: facade})``: ``Table.scan`` on one engine, and
    the paged scans it must agree with."""
    oracle = loaded(LittleTable(clock=VirtualClock(start=BASE),
                                config=config())).table("t")
    router = loaded(ShardRouter(shards=3, config=config(),
                                clock=VirtualClock(start=BASE)))
    served_engine = loaded(LittleTable(clock=VirtualClock(start=BASE),
                                       config=config()))
    served_router = loaded(ShardRouter(shards=3, config=config(),
                                       clock=VirtualClock(start=BASE)))
    with AsyncLittleTableServer(served_engine) as single, \
            AsyncLittleTableServer(served_router) as sharded, \
            repro.connect(single.address) as to_single, \
            repro.connect(sharded.address) as to_sharded:
        yield oracle, {"router": router.table("t"),
                       "wire-engine": to_single.table("t"),
                       "wire-router": to_sharded.table("t")}
    router.close()
    served_router.close()


def prefixes():
    return st.one_of(
        st.none(),
        st.lists(st.integers(-1, DEVICES), min_size=1, max_size=2).map(tuple),
        st.tuples(st.integers(-1, NETWORKS), st.integers(-1, DEVICES),
                  st.integers(BASE - 10, BASE + 10 * SAMPLES)))


def timestamps():
    return st.one_of(st.none(), st.integers(BASE - 10, BASE + 10 * SAMPLES))


def limits():
    """None, 0, a limit one page holds, or one that continues past
    several pages."""
    return st.one_of(st.none(), st.integers(0, ROW_LIMIT),
                     st.integers(ROW_LIMIT + 1, len(ROWS) + 3))


queries = st.builds(
    Query,
    st.builds(KeyRange, prefixes(), st.booleans(), prefixes(),
              st.booleans()),
    st.builds(TimeRange, timestamps(), st.booleans(), timestamps(),
              st.booleans()),
    st.sampled_from([ASCENDING, DESCENDING]),
    limits())


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query=queries)
@example(query=Query(limit=2 * ROW_LIMIT + 1))
@example(query=Query(KeyRange.prefix((1,)), direction=DESCENDING,
                     limit=ROW_LIMIT + 2))
def test_every_paged_scan_is_the_engine_scan(doors, query):
    oracle, facades = doors
    expected = list(oracle.scan(query))
    for name, table in facades.items():
        assert list(table.scan(query)) == expected, name


def test_a_scan_past_the_row_limit_takes_several_pages(doors):
    """The differential means something only if pages continue: a full
    scan is longer than one page, and one query command is not."""
    oracle, facades = doors
    everything = list(oracle.scan(Query()))
    assert len(everything) > 3 * ROW_LIMIT
    for name, table in facades.items():
        page = table.query(Query())
        assert len(page.rows) == ROW_LIMIT and page.more_available, name
        assert list(table.scan(Query())) == everything, name
