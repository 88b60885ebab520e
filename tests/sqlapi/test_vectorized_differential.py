"""Differential tests: the aggregate engine vs the row-at-a-time oracle.

Every aggregate query here runs twice over the same database — once
through ``SqlSession`` (``aggregate_partials``: partial aggregation
inside the tablet scan, one set of column kernels) and once through
``row_oracle.RowOracle`` (the row-at-a-time GROUP BY that used to be
the session's second engine, driven by ``table.scan``) — and must
produce identical columns and identical rows, in the same order.  And
it does so through four doors: an embedded ``LittleTable``, a 4-shard
``ShardRouter``, ``repro.connect`` to a one-engine server and
``repro.connect`` to a 4-shard server.

The data is adversarial on purpose:

* tablets in every block format (the checked-in v1 row-major tablet
  arrives as runs and is transposed; v3, and the checked-in v2
  tablets, are columnar already) plus unflushed memtable rows
  overlapping the same keys and times, plus tablets and memtables
  written under an older schema;
* DOUBLE values are dyadic rationals (multiples of 0.25) so SUM/AVG
  are exact in IEEE doubles and the partial-aggregation merge order
  cannot introduce rounding differences — any mismatch is a real bug;
* empty results (MIN/MAX of nothing), AVG over integer columns,
  TIME_BUCKET grids, residual predicates, LIMIT (0 included), and
  ORDER BY KEY DESC over every grouping shape are all exercised.

There are no NULLs to worry about: the engine rejects missing values
at insert, so COUNT(col) == COUNT(*) by construction.
"""

import random
from contextlib import contextmanager

import repro
from repro.core import LittleTable, Query
from repro.net import AsyncLittleTableServer
from repro.net.shard import ShardRouter
from repro.sqlapi import SqlSession
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

from ..conftest import load_v1_datadir, load_v2_datadir
from .row_oracle import RowOracle

BASE = 10_000 * MICROS_PER_DAY
MINUTE = MICROS_PER_MINUTE
WINDOW = 240 * MINUTE

CREATE = ("CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, "
          "bytes INT64, rate DOUBLE, PRIMARY KEY (network, device, ts))")

# One list of queries reused everywhere; {b0}..{b3} are timestamps
# inside the data window, {bucket} a TIME_BUCKET width.
QUERIES = [
    "SELECT COUNT(*) FROM usage",
    "SELECT COUNT(bytes), SUM(bytes), MIN(bytes), MAX(bytes) FROM usage",
    "SELECT AVG(bytes) FROM usage",                  # AVG of an INT column
    "SELECT SUM(rate), AVG(rate) FROM usage",        # dyadic doubles
    "SELECT network, COUNT(*), SUM(bytes) FROM usage GROUP BY network",
    "SELECT network, device, MIN(rate), MAX(rate) FROM usage "
    "GROUP BY network, device",
    "SELECT COUNT(*) FROM usage GROUP BY network, device",   # bare grouping
    "SELECT TIME_BUCKET(ts, {bucket}), COUNT(*), SUM(bytes) FROM usage "
    "GROUP BY TIME_BUCKET(ts, {bucket})",
    "SELECT network, TIME_BUCKET(ts, {bucket}), AVG(bytes) FROM usage "
    "GROUP BY network, TIME_BUCKET(ts, {bucket})",
    "SELECT network, COUNT(*) FROM usage "
    "WHERE ts >= {b1} AND ts < {b2} GROUP BY network",
    "SELECT COUNT(*), SUM(bytes) FROM usage WHERE network = 1",
    "SELECT device, SUM(bytes) FROM usage "
    "WHERE network = 1 AND device >= 2 GROUP BY device",
    "SELECT COUNT(*), SUM(bytes) FROM usage WHERE bytes > 250",  # residual
    "SELECT network, SUM(bytes) FROM usage WHERE rate != 0.25 "
    "GROUP BY network",
    "SELECT network, COUNT(*) FROM usage GROUP BY network LIMIT 2",
    "SELECT TIME_BUCKET(ts, {bucket}), COUNT(*) FROM usage "
    "GROUP BY TIME_BUCKET(ts, {bucket}) LIMIT 3",
    # Nothing matches: ungrouped aggregates over zero rows must still
    # emit one row (COUNT 0, SUM 0, AVG 0.0, MIN/MAX None)...
    "SELECT COUNT(*), SUM(bytes), AVG(bytes), MIN(bytes), MAX(bytes) "
    "FROM usage WHERE network = 99",
    # ...while grouped aggregates over zero rows emit no rows at all.
    "SELECT network, COUNT(*) FROM usage WHERE network = 99 "
    "GROUP BY network",
    "SELECT COUNT(*) FROM usage WHERE ts > {b3}",
    "SELECT network, COUNT(*) FROM usage GROUP BY network "
    "ORDER BY KEY DESC",
    "SELECT network, COUNT(*) FROM usage GROUP BY network LIMIT 0",
]

# ORDER BY KEY DESC is an emission order, not another engine: groups
# come out descending exactly when the GROUP BY is a key prefix (a
# descending row scan meets them that way) and ascending otherwise.
DESC_SHAPES = [
    "SELECT network, device, COUNT(*), SUM(bytes) FROM usage "
    "GROUP BY network, device",                              # key prefix
    "SELECT device, COUNT(*), MIN(rate) FROM usage GROUP BY device",
    "SELECT TIME_BUCKET(ts, {bucket}), COUNT(*) FROM usage "
    "GROUP BY TIME_BUCKET(ts, {bucket})",
    "SELECT COUNT(*), MAX(bytes) FROM usage",                # ungrouped
]
QUERIES += [f"{shape} ORDER BY KEY DESC{limit}" for shape in DESC_SHAPES
            for limit in ("", " LIMIT 0", " LIMIT 2")]


def format_queries(bucket=7 * MINUTE):
    marks = {f"b{i}": BASE + i * 60 * MINUTE for i in range(4)}
    return [q.format(bucket=bucket, **marks) for q in QUERIES]


def random_rows(rng, count, networks=4, devices=6):
    """Rows with duplicate-free keys, dyadic-rational DOUBLEs."""
    seen = set()
    rows = []
    while len(rows) < count:
        key = (rng.randrange(networks), rng.randrange(devices),
               BASE + rng.randrange(WINDOW))
        if key in seen:
            continue
        seen.add(key)
        rows.append({
            "network": key[0], "device": key[1], "ts": key[2],
            "bytes": rng.randrange(500),
            "rate": rng.randrange(-64, 64) * 0.25,
        })
    return rows


def build_mixed_db():
    """v1 tablets + v3 tablets + a populated memtable, keys interleaved.

    The v1 third is data, not a writer: the fixture directory's
    ``usage`` table holds exactly ``rows[:third]`` of this seed.
    """
    clock = VirtualClock(start=BASE + WINDOW)
    disk, recorded = load_v1_datadir()
    db = LittleTable(disk=disk, clock=clock)
    rows = random_rows(random.Random(11), 600)
    third = len(rows) // 3
    assert recorded["usage"] == rows[:third]
    assert db.table("usage").query(Query()).rows == sorted(
        tuple(row.values()) for row in rows[:third])
    db.insert("usage", rows[third:2 * third])
    db.table("usage").flush_all()
    db.insert("usage", rows[2 * third:])   # stays in the memtable
    return db


@contextmanager
def connected(db):
    """``db`` (an engine or a shard router) behind a server, as the
    ``repro.connect`` facade a client holds."""
    with AsyncLittleTableServer(db) as server:
        with repro.connect(server.address) as remote:
            yield remote


def assert_identical(db, queries):
    """Engine == oracle for every query, embedded and over the wire."""
    with connected(db) as remote:
        for door in (db, remote):
            session, oracle = SqlSession(door), RowOracle(door)
            for query in queries:
                fast = session.execute(query)
                slow = oracle.execute(query)
                assert fast.columns == slow.columns, query
                assert fast.rows == slow.rows, query


class TestDifferential:
    def test_mixed_v1_v2_memtable(self):
        db = build_mixed_db()
        counters = db.metrics.snapshot()["counters"]
        before = counters.get("query.pushdown.queries", 0)
        assert_identical(db, format_queries())
        counters = db.metrics.snapshot()["counters"]
        # Prove the fast side actually pushed down (not oracle-vs-oracle)
        # and that both lanes saw rows: blocks that were columnar
        # already, and v1/memtable runs that were transposed.
        assert counters["query.pushdown.queries"] > before
        assert counters["query.pushdown.rows_columnar"] > 0
        assert counters["query.pushdown.rows_fallback"] > 0
        assert counters["query.pushdown.blocks_fallback"] > 0

    def test_many_seeds_all_flushed_v2(self):
        for seed in range(5):
            clock = VirtualClock(start=BASE + WINDOW)
            db = LittleTable(clock=clock)
            SqlSession(db).execute(CREATE)
            db.insert("usage", random_rows(random.Random(seed), 300))
            db.table("usage").flush_all()
            assert_identical(db, format_queries(bucket=11 * MINUTE))
            # What the engine writes today goes columnar, all of it.
            counters = db.metrics.snapshot()["counters"]
            assert counters["query.pushdown.blocks_columnar"] > 0
            assert counters.get("query.pushdown.blocks_fallback", 0) == 0

    def test_recorded_v2_tablets_go_columnar(self):
        """Tablets the last v2 block writer left (``v2_datadir``'s
        ``usage``: the benchmark's preload, ``repro.dashboard``'s
        schema) answer from the columnar path too, block for block."""
        disk, _rows, manifest = load_v2_datadir()
        db = LittleTable(disk=disk,
                         clock=VirtualClock(start=20_006 * MICROS_PER_DAY))
        day = MICROS_PER_DAY
        mid = 20_001 * day
        assert_identical(db, [
            "SELECT COUNT(*), SUM(counter), MIN(counter), MAX(counter), "
            "MAX(prev_ts) FROM usage",
            "SELECT network, device, COUNT(*), AVG(counter) FROM usage "
            "GROUP BY network, device",
            "SELECT network, MIN(rate), MAX(rate) FROM usage GROUP BY network",
            f"SELECT TIME_BUCKET(ts, {day}), COUNT(*), SUM(counter) "
            f"FROM usage GROUP BY TIME_BUCKET(ts, {day})",
            f"SELECT device, COUNT(*) FROM usage WHERE network = 2 AND "
            f"device >= 5 AND ts >= {mid} AND ts < {mid + 2 * day} "
            f"GROUP BY device",
            "SELECT COUNT(*), MAX(ts) FROM usage WHERE counter > 1000000000",
        ])
        counters = db.metrics.snapshot()["counters"]
        assert SqlSession(db).execute("SELECT COUNT(*) FROM usage").rows \
            == [(manifest["tables"]["usage"]["rows"],)]
        assert counters["query.pushdown.blocks_columnar"] > 0
        assert counters.get("query.pushdown.blocks_fallback", 0) == 0
        assert counters.get("codec.blocks_encoded", 0) == 0

    def test_old_schema_tablets_and_memtables(self):
        """A tablet and a memtable written before ``ADD COLUMN`` are
        translated on read (§3.5) and aggregate like the rest - the new
        column too, at its default."""
        db = LittleTable(clock=VirtualClock(start=BASE + WINDOW))
        sql = SqlSession(db)
        sql.execute(CREATE)
        rows = random_rows(random.Random(29), 450)
        db.insert("usage", rows[:150])
        db.table("usage").flush_all()
        db.insert("usage", rows[150:300])        # old-schema memtable
        sql.execute("ALTER TABLE usage ADD COLUMN hops INT64 DEFAULT 3")
        db.insert("usage", [dict(row, hops=row["bytes"] % 5)
                            for row in rows[300:]])
        assert_identical(db, format_queries() + [
            "SELECT hops, COUNT(*), SUM(bytes) FROM usage GROUP BY hops",
            "SELECT network, SUM(hops), MIN(hops), MAX(hops) FROM usage "
            "GROUP BY network",
            "SELECT COUNT(*) FROM usage WHERE hops != 3",
        ])
        counters = db.metrics.snapshot()["counters"]
        assert counters["query.pushdown.blocks_fallback"] > 0

    def test_empty_table(self):
        db = LittleTable(clock=VirtualClock(start=BASE))
        SqlSession(db).execute(CREATE)
        assert_identical(db, format_queries())

    def test_single_row(self):
        db = LittleTable(clock=VirtualClock(start=BASE + WINDOW))
        SqlSession(db).execute(CREATE)
        db.insert("usage", [{"network": 1, "device": 2, "ts": BASE,
                             "bytes": 7, "rate": 0.5}])
        db.table("usage").flush_all()
        assert_identical(db, format_queries())

    def test_ttl_expiry_respected(self):
        clock = VirtualClock(start=BASE + WINDOW)
        db = LittleTable(clock=clock)
        SqlSession(db).execute(CREATE.replace(
            "PRIMARY KEY (network, device, ts))",
            "PRIMARY KEY (network, device, ts)) WITH TTL 7200"))
        db.insert("usage", random_rows(random.Random(3), 400))
        db.table("usage").flush_all()
        # Two hours of TTL against a four-hour window: older half of the
        # rows are expired on both paths.
        assert_identical(db, format_queries())
        clock.advance(90 * MINUTE)
        assert_identical(db, format_queries())

    def test_sharded_scatter_gather(self):
        router = ShardRouter(shards=4, clock=VirtualClock(start=BASE + WINDOW))
        try:
            sql = SqlSession(router)
            sql.execute(CREATE)
            rows = random_rows(random.Random(17), 500)
            router.table("usage").insert(rows)
            router.table("usage").flush_all()
            assert_identical(router, format_queries())

            # Pinned single-shard route: the full key prefix is bound.
            sample = rows[0]
            pinned = (f"SELECT COUNT(*), SUM(bytes) FROM usage WHERE "
                      f"network = {sample['network']} AND "
                      f"device = {sample['device']}")
            assert_identical(router, [pinned])

            # Rows still in the shards' memtables, beside the tablets.
            more = [dict(row, ts=row["ts"] + 1) for row in rows[:120]]
            router.table("usage").insert(more)
            rows = rows + more
            assert_identical(router, format_queries())

            # The sharded answer must also equal a single engine holding
            # the identical rows (scatter-gather merge == global oracle).
            solo = LittleTable(clock=VirtualClock(start=BASE + WINDOW))
            SqlSession(solo).execute(CREATE)
            solo.insert("usage", rows)
            solo.table("usage").flush_all()
            solo_sql = SqlSession(solo)
            for query in format_queries():
                assert (sql.execute(query).rows
                        == solo_sql.execute(query).rows), query
        finally:
            router.close()


class TestPushdownPruning:
    def test_aggregates_reuse_zone_map_pruning(self):
        """Satellite: aggregate queries prune tablets like plain SELECTs."""
        clock = VirtualClock(start=BASE)
        db = LittleTable(clock=clock)
        session = SqlSession(db)
        session.execute(CREATE)
        # Four time-disjoint tablets, one per flush.
        for chunk in range(4):
            start = BASE + chunk * 60 * MINUTE
            db.insert("usage", [
                {"network": 1, "device": d, "ts": start + d * MINUTE,
                 "bytes": d, "rate": 0.0}
                for d in range(8)])
            clock.advance(60 * MINUTE)
            db.table("usage").flush_all()

        counters = db.metrics.snapshot()["counters"]
        pruned_before = counters.get("query.tablets_pruned", 0)
        result = session.execute(
            f"SELECT COUNT(*) FROM usage WHERE ts >= {BASE} "
            f"AND ts < {BASE + 30 * MINUTE}")
        assert result.rows == [(8,)]
        counters = db.metrics.snapshot()["counters"]
        # Three of the four tablets are outside the time box.
        assert counters["query.tablets_pruned"] - pruned_before == 3
        assert counters["query.pushdown.queries"] >= 1

    def test_explain_reports_pruning_for_aggregates(self):
        clock = VirtualClock(start=BASE)
        db = LittleTable(clock=clock)
        session = SqlSession(db)
        session.execute(CREATE)
        for chunk in range(3):
            start = BASE + chunk * 60 * MINUTE
            db.insert("usage", [{"network": 1, "device": 1, "ts": start,
                                 "bytes": 1, "rate": 0.0}])
            clock.advance(60 * MINUTE)
            db.table("usage").flush_all()
        plan = "\n".join(
            " ".join(str(v) for v in row) for row in session.execute(
                f"EXPLAIN SELECT COUNT(*) FROM usage WHERE ts < "
                f"{BASE + 30 * MINUTE}").rows)
        assert "1 of 3 on disk" in plan
        assert "2 pruned" in plan
        assert "vectorized" in plan
