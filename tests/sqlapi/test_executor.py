"""End-to-end SQL execution tests."""

import pytest

from repro.core import LittleTable, NoSuchTableError
from repro.sqlapi import SqlError, SqlSession
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

BASE = 10_000 * MICROS_PER_DAY


@pytest.fixture
def session():
    clock = VirtualClock(start=BASE)
    db = LittleTable(clock=clock)
    sql = SqlSession(db)
    sql.clock = clock  # convenience for tests
    return sql


@pytest.fixture
def usage(session):
    session.execute(
        "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
        "bytes INT64, PRIMARY KEY (network, device, ts))")
    for minute in range(3):
        ts = BASE + minute * MICROS_PER_MINUTE
        for network in (1, 2):
            for device in range(3):
                session.execute(
                    f"INSERT INTO usage (network, device, ts, bytes) VALUES "
                    f"({network}, {device}, {ts}, {network * 100 + device})")
    return session


class TestDdl:
    def test_create_and_show(self, session):
        session.execute(
            "CREATE TABLE t (a INT64, ts TIMESTAMP, PRIMARY KEY (a, ts))")
        assert session.execute("SHOW TABLES").rows == [("t",)]

    def test_describe(self, usage):
        rows = usage.execute("DESCRIBE usage").rows
        assert ("network", "int64", 1) in rows
        assert ("ts", "timestamp", 3) in rows
        assert ("bytes", "int64", 0) in rows

    def test_create_with_ttl(self, session):
        session.execute(
            "CREATE TABLE t (ts TIMESTAMP, PRIMARY KEY (ts)) WITH TTL 60")
        assert session.db.table("t").ttl_micros == 60_000_000

    def test_drop(self, usage):
        usage.execute("DROP TABLE usage")
        with pytest.raises(NoSuchTableError):
            usage.db.table("usage")

    def test_add_column(self, usage):
        usage.execute("ALTER TABLE usage ADD COLUMN packets INT64 DEFAULT -1")
        rows = usage.execute("SELECT packets FROM usage LIMIT 1").rows
        assert rows == [(-1,)]

    def test_widen_column(self, session):
        session.execute(
            "CREATE TABLE t (ts TIMESTAMP, c INT32, PRIMARY KEY (ts))")
        session.execute("ALTER TABLE t WIDEN COLUMN c")
        big = 2**40
        session.execute(f"INSERT INTO t (ts, c) VALUES ({BASE}, {big})")
        assert session.execute("SELECT c FROM t").rows == [(big,)]

    def test_set_ttl(self, usage):
        usage.execute("ALTER TABLE usage SET TTL 3600")
        assert usage.db.table("usage").ttl_micros == 3_600_000_000
        usage.execute("ALTER TABLE usage SET TTL NONE")
        assert usage.db.table("usage").ttl_micros is None


class TestInsertSelect:
    def test_select_star(self, usage):
        rows = usage.execute("SELECT * FROM usage").rows
        assert len(rows) == 18

    def test_insert_without_ts_uses_now(self, usage):
        usage.execute(
            "INSERT INTO usage (network, device, bytes) VALUES (9, 9, 1)")
        rows = usage.execute(
            "SELECT ts FROM usage WHERE network = 9").rows
        assert rows == [(usage.clock.now(),)]

    def test_projection_and_alias(self, usage):
        result = usage.execute(
            "SELECT device AS d, bytes FROM usage WHERE network = 1 LIMIT 2")
        assert result.columns == ["d", "bytes"]
        assert all(len(r) == 2 for r in result.rows)

    def test_bounding_box_query(self, usage):
        mid = BASE + MICROS_PER_MINUTE
        rows = usage.execute(
            f"SELECT * FROM usage WHERE network = 1 AND device = 2 "
            f"AND ts BETWEEN {mid} AND {mid}").rows
        assert len(rows) == 1
        assert rows[0][:3] == (1, 2, mid)

    def test_residual_filter(self, usage):
        rows = usage.execute(
            "SELECT * FROM usage WHERE bytes > 200").rows
        assert rows
        assert all(r[3] > 200 for r in rows)

    def test_order_desc(self, usage):
        asc = usage.execute("SELECT * FROM usage").rows
        desc = usage.execute("SELECT * FROM usage ORDER BY KEY DESC").rows
        assert desc == asc[::-1]

    def test_limit(self, usage):
        assert len(usage.execute("SELECT * FROM usage LIMIT 5").rows) == 5

    def test_limit_zero_returns_no_rows_behind_a_residual(self, usage):
        """A WHERE that keeps a residual scans without a pushed-down
        limit; LIMIT 0 must still return nothing, as it does without
        one."""
        for where in ("network = 1",
                      "bytes <= 200 AND network BETWEEN 1 AND 1",
                      "bytes > 0"):
            for order in ("", " ORDER BY KEY", " ORDER BY KEY DESC"):
                statement = f"SELECT * FROM usage WHERE {where}{order}"
                assert usage.execute(statement + " LIMIT 0").rows == []
                assert len(usage.execute(statement + " LIMIT 2").rows) == 2

    def test_string_and_blob_round_trip(self, session):
        session.execute(
            "CREATE TABLE logs (ts TIMESTAMP, msg STRING, raw BLOB, "
            "PRIMARY KEY (ts))")
        session.execute(
            f"INSERT INTO logs (ts, msg, raw) VALUES "
            f"({BASE}, 'it''s fine', X'c0ffee')")
        rows = session.execute("SELECT msg, raw FROM logs").rows
        assert rows == [("it's fine", b"\xc0\xff\xee")]

    def test_duplicate_key_propagates(self, usage):
        from repro.core import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            usage.execute(
                f"INSERT INTO usage (network, device, ts, bytes) VALUES "
                f"(1, 1, {BASE}, 0)")


class TestAggregates:
    def test_count_star(self, usage):
        assert usage.execute("SELECT COUNT(*) FROM usage").scalar() == 18

    def test_sum_avg_min_max(self, usage):
        result = usage.execute(
            "SELECT SUM(bytes), AVG(bytes), MIN(bytes), MAX(bytes) "
            "FROM usage WHERE network = 1")
        total, avg, low, high = result.rows[0]
        assert total == 3 * (100 + 101 + 102)
        assert avg == pytest.approx(101.0)
        assert low == 100
        assert high == 102

    def test_group_by_key_prefix_streams(self, usage):
        result = usage.execute(
            "SELECT network, SUM(bytes) FROM usage GROUP BY network")
        assert result.rows == [(1, 909), (2, 1809)]

    def test_group_by_two_levels(self, usage):
        result = usage.execute(
            "SELECT network, device, COUNT(*) FROM usage "
            "GROUP BY network, device")
        assert len(result.rows) == 6
        assert all(r[2] == 3 for r in result.rows)

    def test_group_by_non_prefix_hashes(self, usage):
        # device is not a leading key column; the executor falls back
        # to hash grouping and sorts output.
        result = usage.execute(
            "SELECT device, COUNT(*) FROM usage GROUP BY device")
        assert result.rows == [(0, 6), (1, 6), (2, 6)]

    def test_aggregate_over_empty_result(self, usage):
        result = usage.execute(
            "SELECT COUNT(*), SUM(bytes) FROM usage WHERE network = 99")
        assert result.rows == [(0, 0)]

    def test_plain_column_must_be_grouped(self, usage):
        with pytest.raises(SqlError):
            usage.execute("SELECT device, COUNT(*) FROM usage")

    def test_group_limit(self, usage):
        result = usage.execute(
            "SELECT network, COUNT(*) FROM usage GROUP BY network LIMIT 1")
        assert result.rows == [(1, 9)]

    def test_limit_zero_returns_no_groups(self, usage):
        for statement in (
                "SELECT network, COUNT(*) FROM usage GROUP BY network",
                "SELECT device, COUNT(*) FROM usage GROUP BY device",
                "SELECT COUNT(*) FROM usage"):
            assert usage.execute(statement + " LIMIT 0").rows == []

    def test_order_desc_reverses_key_prefix_groups_only(self, usage):
        prefix = "SELECT network, device, COUNT(*) FROM usage " \
                 "GROUP BY network, device"
        assert usage.execute(prefix + " ORDER BY KEY DESC").rows \
            == usage.execute(prefix).rows[::-1]
        hashed = "SELECT device, COUNT(*) FROM usage GROUP BY device"
        assert usage.execute(hashed + " ORDER BY KEY DESC").rows \
            == usage.execute(hashed).rows

    def test_sum_and_avg_need_a_numeric_column(self, session):
        session.execute(
            "CREATE TABLE logs (ts TIMESTAMP, msg STRING, raw BLOB, "
            "PRIMARY KEY (ts))")
        session.execute(f"INSERT INTO logs (ts, msg, raw) VALUES "
                        f"({BASE}, 'b', X'02'), ({BASE + 1}, 'a', X'01')")
        for func, column in (("SUM", "msg"), ("AVG", "msg"),
                             ("SUM", "raw"), ("AVG", "raw")):
            with pytest.raises(SqlError, match=rf"{func}\({column}\)"):
                session.execute(f"SELECT {func}({column}) FROM logs")
            with pytest.raises(SqlError, match=rf"{func}\({column}\)"):
                session.execute(f"EXPLAIN SELECT {func}({column}) FROM logs")
        # Ordering and counting a string or a blob stay legal.
        assert session.execute(
            "SELECT MIN(msg), MAX(msg), COUNT(msg), MIN(raw), MAX(raw), "
            "SUM(ts) FROM logs").rows == [
                ("a", "b", 2, b"\x01", b"\x02", 2 * BASE + 1)]

    def test_bare_group_by_emits_group_columns(self, usage):
        result = usage.execute(
            "SELECT COUNT(*) FROM usage GROUP BY network")
        assert result.columns == ["network", "count(*)"]
        assert result.rows == [(1, 9), (2, 9)]


class TestDeleteAndFlush:
    def test_delete_network(self, usage):
        result = usage.execute("DELETE FROM usage WHERE network = 1")
        assert result.rows_affected == 9
        assert usage.execute(
            "SELECT COUNT(*) FROM usage WHERE network = 1").scalar() == 0
        assert usage.execute("SELECT COUNT(*) FROM usage").scalar() == 9

    def test_delete_device(self, usage):
        result = usage.execute(
            "DELETE FROM usage WHERE network = 2 AND device = 0")
        assert result.rows_affected == 3

    def test_delete_requires_key_prefix(self, usage):
        with pytest.raises(SqlError):
            usage.execute("DELETE FROM usage WHERE device = 1")
        with pytest.raises(SqlError):
            usage.execute("DELETE FROM usage WHERE bytes = 100")
        with pytest.raises(SqlError):
            usage.execute(
                "DELETE FROM usage WHERE network = 1 AND bytes = 100")

    def test_flush_persists_rows(self, usage):
        usage.execute("FLUSH usage")
        table = usage.db.table("usage")
        assert table.unflushed_memtable_count == 0
        assert len(table.on_disk_tablets) >= 1

    def test_flush_before(self, usage):
        # All test rows are within a few minutes of BASE; flushing
        # before a far-future ts flushes everything.
        result = usage.execute(f"FLUSH usage BEFORE {BASE * 2}")
        assert result.rows_affected >= 1


class TestErrors:
    def test_unknown_table(self, session):
        with pytest.raises(NoSuchTableError):
            session.execute("SELECT * FROM ghost")

    def test_unknown_column_in_select(self, usage):
        with pytest.raises(SqlError):
            usage.execute("SELECT ghost FROM usage")

    def test_unknown_column_in_where(self, usage):
        with pytest.raises(SqlError):
            usage.execute("SELECT * FROM usage WHERE ghost = 1")

    def test_scalar_on_multi_row(self, usage):
        with pytest.raises(SqlError):
            usage.execute("SELECT * FROM usage").scalar()
