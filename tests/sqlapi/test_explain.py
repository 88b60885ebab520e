"""Tests for EXPLAIN SELECT."""

import pytest

from repro.core import LittleTable
from repro.net import AsyncLittleTableServer, LittleTableClient, RemoteDatabase
from repro.sqlapi import SqlSession
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


@pytest.fixture
def session():
    clock = VirtualClock(start=BASE)
    db = LittleTable(clock=clock)
    sql = SqlSession(db)
    sql.execute(
        "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
        "bytes INT64, PRIMARY KEY (network, device, ts))")
    for minute in range(3):
        ts = BASE + minute * MICROS_PER_MINUTE
        sql.execute(
            f"INSERT INTO usage (network, device, ts, bytes) VALUES "
            f"(1, 1, {ts}, 100)")
    sql.execute("FLUSH usage")
    sql.db = db
    return sql


def plan_of(session, sql):
    return dict(session.execute(sql).rows)


class TestExplain:
    def test_full_scan(self, session):
        plan = plan_of(session, "EXPLAIN SELECT * FROM usage")
        assert plan["key bounds"] == "none (full key space)"
        assert plan["key prefix depth"].startswith("0 of 2")
        assert plan["residual filters"] == "none"
        assert "1 of 1 on disk" in plan["tablets"]

    def test_clustered_query(self, session):
        plan = plan_of(
            session,
            "EXPLAIN SELECT * FROM usage WHERE network = 1 AND device = 1")
        assert plan["key prefix depth"].startswith("2 of 2")
        assert plan["residual filters"] == "none"

    def test_unclustered_predicate_shows_residual(self, session):
        plan = plan_of(
            session, "EXPLAIN SELECT * FROM usage WHERE device = 1")
        assert plan["key prefix depth"].startswith("0 of 2")
        assert "device = 1" in plan["residual filters"]

    def test_time_bounds_prune_tablets(self, session):
        plan = plan_of(
            session,
            f"EXPLAIN SELECT * FROM usage WHERE ts >= {BASE + 10**12}")
        assert "0 of 1 on disk" in plan["tablets"]

    def test_streaming_vs_hashed_aggregation(self, session):
        streaming = plan_of(
            session,
            "EXPLAIN SELECT network, COUNT(*) FROM usage GROUP BY network")
        assert streaming["aggregation"].startswith("streaming")
        hashed = plan_of(
            session,
            "EXPLAIN SELECT device, COUNT(*) FROM usage GROUP BY device")
        assert hashed["aggregation"].startswith("hashed")

    def test_explain_does_not_scan(self, session):
        before = session.db.table("usage").counters.rows_scanned
        session.execute("EXPLAIN SELECT * FROM usage")
        assert session.db.table("usage").counters.rows_scanned == before

    def test_explain_over_the_wire(self):
        clock = VirtualClock(start=BASE)
        db = LittleTable(clock=clock)
        with AsyncLittleTableServer(db) as server:
            client = LittleTableClient(*server.address)
            sql = SqlSession(RemoteDatabase(client))
            sql.execute("CREATE TABLE t (k INT64, ts TIMESTAMP, "
                        "PRIMARY KEY (k, ts))")
            plan = dict(sql.execute(
                "EXPLAIN SELECT * FROM t WHERE k = 5").rows)
            assert plan["key prefix depth"].startswith("1 of 1")
            assert "remote" in plan["tablets"]
            client.close()
