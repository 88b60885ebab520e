"""TTL-based row expiry (paper §3.1, §3.3)."""

import pytest

from repro.core import Query, TimeRange
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_HOUR


def row(device, ts):
    return {"network": 1, "device": device, "ts": ts, "bytes": 0,
            "rate": 0.0}


@pytest.fixture
def ttl_table(db, clock):
    from ..conftest import usage_schema

    return db.create_table("expiring", usage_schema(),
                           ttl_micros=7 * MICROS_PER_DAY)


class TestRowFiltering:
    def test_expired_rows_filtered_from_queries(self, ttl_table, clock):
        old = clock.now() - 10 * MICROS_PER_DAY
        fresh = clock.now()
        ttl_table.insert([row(1, old), row(2, fresh)])
        rows = ttl_table.query(Query()).rows
        assert len(rows) == 1
        assert rows[0][1] == 2

    def test_rows_expire_as_clock_advances(self, ttl_table, clock):
        ttl_table.insert([row(1, clock.now())])
        assert len(ttl_table.query(Query()).rows) == 1
        clock.advance(8 * MICROS_PER_DAY)
        assert ttl_table.query(Query()).rows == []

    def test_partially_expired_tablet_filters_rows(self, ttl_table, clock):
        old = clock.now() - 6 * MICROS_PER_DAY - 20 * MICROS_PER_HOUR
        ttl_table.insert([row(1, old), row(2, clock.now())])
        ttl_table.flush_all()
        clock.advance(MICROS_PER_DAY)
        # The old row has now expired, the fresh one has not; the
        # tablet holding the old row cannot be reclaimed yet (if they
        # share one), so the server filters at query time (§3.3).
        rows = ttl_table.query(Query()).rows
        assert [r[1] for r in rows] == [2]


class TestTabletReclaim:
    def test_fully_expired_tablets_deleted(self, ttl_table, clock):
        old = clock.now() - MICROS_PER_DAY
        ttl_table.insert([row(d, old) for d in range(10)])
        ttl_table.flush_all()
        assert len(ttl_table.on_disk_tablets) == 1
        filename = ttl_table.on_disk_tablets[0].filename
        clock.advance(8 * MICROS_PER_DAY)
        reclaimed = ttl_table.expire_tablets()
        assert reclaimed == 1
        assert ttl_table.on_disk_tablets == []
        assert not ttl_table.disk.exists(filename)

    def test_live_tablets_kept(self, ttl_table, clock):
        ttl_table.insert([row(1, clock.now())])
        ttl_table.flush_all()
        assert ttl_table.expire_tablets() == 0
        assert len(ttl_table.on_disk_tablets) == 1

    def test_reclaim_persists_across_recovery(self, ttl_table, clock, db):
        old = clock.now() - MICROS_PER_DAY
        ttl_table.insert([row(1, old)])
        ttl_table.flush_all()
        clock.advance(10 * MICROS_PER_DAY)
        ttl_table.expire_tablets()
        recovered = db.simulate_crash()
        assert recovered.table("expiring").on_disk_tablets == []

    def test_no_ttl_never_expires(self, usage_table, clock):
        usage_table.insert([row(1, clock.now() - 1000 * MICROS_PER_DAY)])
        usage_table.flush_all()
        assert usage_table.expire_tablets() == 0
        assert len(usage_table.query(Query()).rows) == 1

    def test_maintenance_runs_expiry(self, ttl_table, clock, db):
        ttl_table.insert([row(1, clock.now() - MICROS_PER_DAY)])
        ttl_table.flush_all()
        clock.advance(10 * MICROS_PER_DAY)
        summary = ttl_table.maintenance()
        assert summary.expired == 1


class TestSetTtl:
    def test_shortening_ttl_expires_more(self, ttl_table, clock):
        ttl_table.insert([row(1, clock.now() - 3 * MICROS_PER_DAY),
                          row(2, clock.now())])
        assert len(ttl_table.query(Query()).rows) == 2
        ttl_table.set_ttl(1 * MICROS_PER_DAY)
        rows = ttl_table.query(Query()).rows
        assert [r[1] for r in rows] == [2]

    def test_disable_ttl(self, ttl_table, clock):
        ttl_table.insert([row(1, clock.now() - 30 * MICROS_PER_DAY)])
        assert ttl_table.query(Query()).rows == []
        ttl_table.set_ttl(None)
        assert len(ttl_table.query(Query()).rows) == 1

    def test_invalid_ttl_rejected(self, ttl_table):
        from repro.core import SchemaError

        with pytest.raises(SchemaError):
            ttl_table.set_ttl(0)
