"""The wire's ``aggregate`` command: groups cross, rows do not.

A remote ``SqlSession`` answers an aggregate statement with one
``aggregate`` request (``RemoteTable.aggregate_partials`` ->
``LittleTableClient.aggregate`` -> ``RequestDispatcher._cmd_aggregate``
-> the served table's ``aggregate_partials``), so what is under test is
the command itself: values of every type survive it, columns are
resolved by name against the server's schema, every field of the spec
is refused by type when it is wrong - an arbitrary client can send
anything - and it is retried like the other idempotent reads.
"""

import threading
import time

import pytest

import repro
from repro.core import (LittleTable, NoSuchTableError,
                        ProtocolViolationError, QueryError, ServerError)
from repro.net import (AsyncLittleTableServer, ClientConfig,
                       LittleTableClient, RemoteDatabase, protocol)
from repro.net.shard import ShardRouter
from repro.sqlapi import SqlError, SqlSession
from repro.util.clock import MICROS_PER_DAY, VirtualClock

BASE = 10_000 * MICROS_PER_DAY

CREATE = ("CREATE TABLE logs (host STRING, ts TIMESTAMP, tag BLOB, "
          "load DOUBLE, hits INT64, PRIMARY KEY (host, ts))")


def fill(db, hosts=3, samples=8):
    sql = SqlSession(db)
    sql.execute(CREATE)
    values = ", ".join(
        f"('h{host}', {BASE + sample}, X'0{(host + sample) % 4}ff', "
        f"{(host * samples + sample) * 0.25 - 2}, {host * 100 + sample})"
        for host in range(hosts) for sample in range(samples))
    sql.execute(f"INSERT INTO logs (host, ts, tag, load, hits) "
                f"VALUES {values}")
    return sql


@pytest.fixture
def served():
    """``(embedded session, remote session, client)`` over one engine."""
    db = LittleTable(clock=VirtualClock(start=BASE))
    embedded = fill(db)
    with AsyncLittleTableServer(db) as server:
        with LittleTableClient(*server.address) as client:
            yield embedded, SqlSession(RemoteDatabase(client)), client


class TestValuesSurviveTheWire:
    @pytest.mark.parametrize("statement", [
        "SELECT host, COUNT(*), MIN(tag), MAX(tag) FROM logs GROUP BY host",
        "SELECT tag, COUNT(*), MIN(host), MAX(host), MIN(load), MAX(load) "
        "FROM logs GROUP BY tag",
        "SELECT host, tag, SUM(load), AVG(hits) FROM logs "
        "GROUP BY host, tag ORDER BY KEY DESC",
        "SELECT MIN(tag), MAX(tag), MIN(host), MAX(load), SUM(load) "
        "FROM logs",
        "SELECT tag, COUNT(*) FROM logs WHERE tag != X'00ff' "
        "AND host >= 'h1' GROUP BY tag",
        "SELECT load, COUNT(*) FROM logs WHERE load < 0.5 GROUP BY load",
        f"SELECT TIME_BUCKET(ts, 3), host, MAX(tag) FROM logs "
        f"WHERE ts > {BASE} GROUP BY host, TIME_BUCKET(ts, 3)",
        "SELECT MIN(tag), MAX(host) FROM logs WHERE host = 'nobody'",
    ])
    def test_remote_answer_is_the_embedded_answer(self, served, statement):
        embedded, remote, _client = served
        there, here = embedded.execute(statement), remote.execute(statement)
        assert here.columns == there.columns
        assert here.rows == there.rows
        assert [type(v) for row in here.rows for v in row] \
            == [type(v) for row in there.rows for v in row]

    def test_groups_cross_not_rows(self, served):
        """One request a statement, and its reply is the groups."""
        _embedded, remote, client = served
        remote.execute("SHOW TABLES")       # the schema fetch, once
        seen = []
        original = client._call

        def spying(message, idempotent=False):
            response = original(message, idempotent)
            seen.append((message["cmd"], response))
            return response

        client._call = spying
        assert remote.execute(
            "SELECT host, SUM(hits) FROM logs GROUP BY host").rows \
            == [("h0", 28), ("h1", 828), ("h2", 1628)]
        (command, response), = seen
        assert command == "aggregate"
        assert sorted(label for label, _slots in response["groups"]) \
            == ["h0", "h1", "h2"]

    def test_explain_reads_the_same_remote_as_embedded(self, served):
        embedded, remote, _client = served
        statement = "EXPLAIN SELECT host, COUNT(*) FROM logs GROUP BY host"
        there, here = (dict(session.execute(statement).rows)
                       for session in (embedded, remote))
        assert here["pushdown"] == there["pushdown"]
        assert here["aggregation"] == there["aggregation"]


class TestLimitZero:
    """``LIMIT 0`` of an aggregate is no rows, whichever door (the
    row aggregator every remote session used to take finished its
    first group before it looked at the limit)."""

    STATEMENT = "SELECT host, COUNT(*) FROM logs GROUP BY host LIMIT 0"

    def test_embedded_and_over_the_wire(self, served):
        embedded, remote, _client = served
        assert embedded.execute(self.STATEMENT).rows == []
        assert remote.execute(self.STATEMENT).rows == []

    def test_two_shard_router_and_its_server(self):
        router = ShardRouter(shards=2, clock=VirtualClock(start=BASE))
        try:
            sharded = fill(router)
            assert sharded.execute(self.STATEMENT).rows == []
            with AsyncLittleTableServer(router) as server:
                with repro.connect(server.address) as remote:
                    sql = SqlSession(remote)
                    assert sql.execute(self.STATEMENT).rows == []
                    assert sql.execute(self.STATEMENT[:-1] + "2").rows \
                        == [("h0", 8), ("h1", 8)]
        finally:
            router.close()


class TestSchemaIsTheServers:
    def test_append_column_between_schema_fetch_and_call(self, served):
        """The client's cached schema predates an ``ADD COLUMN`` by
        another session; its spec still means the columns it named."""
        embedded, remote, client = served
        before = client._schema("logs")
        embedded.execute("ALTER TABLE logs ADD COLUMN zone STRING "
                         "DEFAULT 'z'")
        embedded.execute(f"INSERT INTO logs (host, ts, zone, hits) VALUES "
                         f"('h9', {BASE}, 'y', 5)")
        statement = "SELECT host, SUM(hits), MAX(tag) FROM logs " \
                    "WHERE hits < 200 GROUP BY host"
        assert remote.execute(statement).rows \
            == embedded.execute(statement).rows
        assert client._schema("logs") is before     # never refetched
        with pytest.raises(SqlError, match="zone"):
            remote.execute("SELECT zone, COUNT(*) FROM logs GROUP BY zone")
        client.invalidate_schema_cache()
        assert remote.execute(
            "SELECT zone, COUNT(*) FROM logs GROUP BY zone").rows \
            == [("y", 1), ("z", 24)]


def request(**fields):
    message = {"cmd": "aggregate", "table": "logs",
               "aggregates": [["COUNT", None]]}
    message.update(fields)
    return message


MALFORMED = [
    (request(table="ghost"), NoSuchTableError),
    (request(group_by=["nope"]), QueryError),
    (request(group_by=[["host"]]), QueryError),
    (request(group_by=5), ProtocolViolationError),
    (request(aggregates=[["MAX", "nope"]]), QueryError),
    (request(aggregates=[["MEDIAN", "hits"]]), QueryError),
    (request(aggregates=[[["SUM"], "hits"]]), QueryError),
    (request(aggregates=[["SUM", "host"]]), QueryError),
    (request(aggregates=[["AVG", "host"]]), QueryError),
    (request(aggregates=[["SUM", "tag"]]), QueryError),
    (request(aggregates=[["AVG", "tag"]]), QueryError),
    (request(aggregates="COUNT"), ProtocolViolationError),
    (request(aggregates=[["COUNT"]]), ProtocolViolationError),
    (request(aggregates=7), ProtocolViolationError),
    (request(aggregates=None), ProtocolViolationError),
    ({"cmd": "aggregate", "table": "logs"}, ProtocolViolationError),
    (request(bucket=0), QueryError),
    (request(bucket=-60), QueryError),
    (request(bucket=1.5), QueryError),
    (request(bucket=True), QueryError),
    (request(bucket="minute"), QueryError),
    (request(residuals=[["hits", "~", 3]]), QueryError),
    (request(residuals=[["nope", "=", 3]]), QueryError),
    (request(residuals=[["hits", "<", "three"]]), QueryError),
    (request(residuals=[["host", ">", 3]]), QueryError),
    (request(residuals=[["tag", "=", "00ff"]]), QueryError),
    (request(residuals=[["hits", "="]]), ProtocolViolationError),
    (request(residuals=[["tag", "=", {"$b": 5}]]), ProtocolViolationError),
    (request(residuals=3), ProtocolViolationError),
    (request(key_min=[7]), QueryError),
    (request(key_max=["h1", BASE, 9]), QueryError),
    (request(key_min=4), ProtocolViolationError),
    (request(ts_min="yesterday"), ProtocolViolationError),
]


class TestEverythingIsOutsideInput:
    @pytest.mark.parametrize(
        "message, refusal", MALFORMED,
        ids=[f"{i}-{refusal.__name__}"
             for i, (_m, refusal) in enumerate(MALFORMED)])
    def test_refused_by_type_and_the_connection_lives(
            self, served, message, refusal):
        _embedded, remote, client = served
        transport = client._transport
        with pytest.raises(refusal) as caught:
            client._call(message, idempotent=True)
        assert type(caught.value) is refusal        # never ServerError
        assert client.ping() and client._transport is transport
        assert remote.execute("SELECT COUNT(*) FROM logs").scalar() == 24

    def test_min_max_count_of_strings_stay_legal(self, served):
        _embedded, _remote, client = served
        response = client._call(request(aggregates=[
            ["MIN", "host"], ["MAX", "tag"], ["COUNT", "host"]]))
        assert response["groups"] == [
            [[], [[24, 0, "h0", None], [24, 0, None, {"$b": "A/8="}],
                  [24, 0, None, None]]]]

    def test_a_reply_larger_than_a_frame_is_an_error_response(
            self, served, monkeypatch):
        _embedded, remote, client = served
        wide = ", ".join(f"('host-{i:04d}', {BASE}, X'00', 0.0, {i})"
                         for i in range(400))
        remote.execute(f"INSERT INTO logs (host, ts, tag, load, hits) "
                       f"VALUES {wide}")
        transport = client._transport
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 8192)
        with pytest.raises(ServerError, match="frame too large"):
            remote.execute("SELECT host, COUNT(*) FROM logs GROUP BY host")
        # An error response, not a dropped connection: the next
        # statement is served on the same socket.
        assert remote.execute(
            "SELECT COUNT(*) FROM logs WHERE host < 'host-0010'").rows \
            == [(34,)]
        assert client._transport is transport


class TestRetriedLikeAQuery:
    STATEMENT = "SELECT COUNT(*), SUM(hits) FROM logs WHERE host = 'h1'"

    def test_through_a_shed(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        fill(db)
        with AsyncLittleTableServer(db, max_inflight_requests=1,
                                    admission_queue_timeout_s=0.01) as server:
            with repro.connect(server.address, config=ClientConfig(
                    max_retries=5, retry_backoff_s=0.01)) as remote:
                sql = SqlSession(remote)
                sql.execute("SHOW TABLES")      # schema cached before the jam
                server.admission.admit()
                threading.Timer(0.15, server.admission.release).start()
                assert sql.execute(self.STATEMENT).rows == [(8, 828)]
        shed = db.metrics.snapshot()["counters"]["server.admission.shed"]
        assert shed >= 1

    def test_through_an_expired_deadline(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        fill(db)
        with AsyncLittleTableServer(db) as server:
            original = server.dispatcher.dispatch
            seen = []

            def late_once(message):
                if message.get("cmd") == "aggregate":
                    seen.append(message.get("deadline_ms"))
                    if len(seen) == 1:      # sat in a queue for 10 s
                        message["_arrival_monotonic"] = time.monotonic() - 10
                return original(message)

            server.dispatcher.dispatch = late_once
            with repro.connect(server.address, config=ClientConfig(
                    request_timeout_s=5.0)) as remote:
                assert SqlSession(remote).execute(self.STATEMENT).rows \
                    == [(8, 828)]
        assert len(seen) == 2 and all(seen)
        counters = db.metrics.snapshot()["counters"]
        assert counters["server.admission.deadline_sheds"] == 1

    def test_through_a_lost_connection(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        fill(db)
        with AsyncLittleTableServer(db) as server:
            with repro.connect(server.address) as remote:
                sql = SqlSession(remote)
                assert sql.execute(self.STATEMENT).rows == [(8, 828)]
                remote.client.close()           # idempotent: reconnects
                assert sql.execute(self.STATEMENT).rows == [(8, 828)]
