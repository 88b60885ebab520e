"""A key bound or prefix the key columns cannot hold is the caller's
error, not a crash.

``query``, ``scan`` and ``latest_many`` check their key bounds at the
engine door with the same helper the aggregate spec uses
(``vector.check_key_prefix``), so a string where an ``int64`` key
column is, or a bound longer than the key, is a :class:`QueryError`
before any source is read.  Behind a shard router that matters twice
over: a bare ``TypeError`` out of a worker reads as the worker
crashing, and a fan-out would mark every shard down.
"""

import pytest

from repro.core import LittleTable, Query, QueryError
from repro.core.row import KeyRange
from repro.dashboard.schemas import usage_schema
from repro.net import (AsyncLittleTableServer, LittleTableClient,
                       RemoteDatabase, ShardRouter)
from repro.net.server import RequestDispatcher
from repro.util.clock import VirtualClock

from ..conftest import BASE_TIME

ROWS = [(n, d, BASE_TIME + s, BASE_TIME + s - 60, s, 0.5)
        for n in range(4) for d in range(3) for s in range(3)]

#: ``(read, argument)``: a mistyped or overlong key in each read.
BAD_READS = [
    ("query", KeyRange.prefix(("a",))),
    ("query", KeyRange(min_prefix=(1, 2.5))),
    ("query", KeyRange(max_prefix=(True,))),
    ("query", KeyRange.prefix((1, 2, BASE_TIME, 4))),
    ("scan", KeyRange.prefix((1, "x"))),
    ("latest", ("a", 2)),
    ("latest", (1, "x")),
    ("latest_many", [(1, 2), ("a",)]),
]


def _read(table, read, argument):
    if read == "query":
        return table.query(Query(argument))
    if read == "scan":
        return list(table.scan(Query(argument)))
    if read == "latest":
        return table.latest(argument)
    return table.latest_many(argument)


def _load(db):
    table = db.create_table("usage", usage_schema())
    table.insert_tuples(ROWS)
    return table


@pytest.mark.parametrize("read, argument", BAD_READS,
                         ids=[f"{i}-{read}" for i, (read, _argument)
                              in enumerate(BAD_READS)])
class TestEveryFront:
    def test_embedded(self, read, argument):
        db = LittleTable(clock=VirtualClock(start=BASE_TIME))
        table = _load(db)
        queries = table.counters.queries
        with pytest.raises(QueryError):
            _read(table, read, argument)
        assert table.counters.queries == queries
        assert table.latest((1, 2))[:2] == (1, 2)

    def test_router(self, read, argument):
        with ShardRouter(shards=4,
                         clock=VirtualClock(start=BASE_TIME)) as router:
            _load(router)
            with pytest.raises(QueryError):
                _read(router.table("usage"), read, argument)
            assert router.degraded_shards == {}
            assert len(router.table("usage").query(Query()).rows) == \
                len(ROWS)

    def test_wire(self, read, argument):
        router = ShardRouter(shards=4, clock=VirtualClock(start=BASE_TIME))
        with AsyncLittleTableServer(router) as server, RemoteDatabase(
                LittleTableClient(*server.address)) as remote:
            _load(remote)
            with pytest.raises(QueryError):
                _read(remote.table("usage"), read, argument)
            assert router.degraded_shards == {}
            assert remote.table("usage").latest((3, 1))[:2] == (3, 1)
        router.close()


@pytest.mark.parametrize("request_fields", [
    {"cmd": "query", "key_min": ["a"], "key_max": ["a"]},
    {"cmd": "query", "key_min": [1, 2, BASE_TIME, 0]},
    {"cmd": "latest", "prefixes": [[1, "x"]]},
    {"cmd": "latest", "prefixes": [[0, 1], ["a"], [2]]},
], ids=["query-fanout", "query-overlong", "latest-pinned", "latest-mixed"])
def test_the_dispatcher_answers_query_error_and_no_shard_goes_down(
        request_fields):
    with ShardRouter(shards=4, clock=VirtualClock(start=BASE_TIME)) as router:
        _load(router)
        dispatcher = RequestDispatcher(router)
        response = dispatcher.dispatch({"table": "usage", **request_fields})
        assert response["ok"] is False
        assert response["error"] == "QueryError"
        assert router.degraded_shards == {}
        assert router.metrics.snapshot()["counters"].get(
            "shard.worker_crashes", 0) == 0
        after = dispatcher.dispatch({"cmd": "latest", "table": "usage",
                                     "prefixes": [[0, 1], [1], [3, 2]]})
        assert after["ok"] is True
        assert [row[:2] for row in after["rows"]] == [[0, 1], [1, 2], [3, 2]]
