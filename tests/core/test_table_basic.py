"""Table-level insert/query behaviour (paper §3.1, §3.2)."""

import pytest

from repro.core import (
    DESCENDING,
    DuplicateKeyError,
    KeyRange,
    Query,
    TimeRange,
)
from repro.core.errors import ValidationError
from repro.util.clock import MICROS_PER_MINUTE

from ..conftest import BASE_TIME


def fill_usage(table, clock, networks=3, devices=4, samples=5,
               minute_gap=1):
    """Insert a grid of rows, advancing the clock between samples."""
    rows = []
    for sample in range(samples):
        batch = []
        for network in range(networks):
            for device in range(devices):
                batch.append({
                    "network": network, "device": device,
                    "ts": clock.now(), "bytes": network * 1000 + device,
                    "rate": float(sample),
                })
        table.insert(batch)
        rows.extend(batch)
        clock.advance(minute_gap * MICROS_PER_MINUTE)
    return rows


class TestInsert:
    def test_insert_returns_count(self, usage_table):
        count = usage_table.insert([
            {"network": 1, "device": 1, "ts": BASE_TIME, "bytes": 5,
             "rate": 1.0},
        ])
        assert count == 1
        assert usage_table.counters.rows_inserted == 1

    def test_omitted_ts_uses_now(self, usage_table, clock):
        usage_table.insert([{"network": 1, "device": 1, "bytes": 5,
                             "rate": 1.0}])
        result = usage_table.query(Query())
        assert result.rows[0][2] == clock.now()

    def test_future_and_past_timestamps_allowed(self, usage_table, clock):
        past = clock.now() - 30 * MICROS_PER_MINUTE
        future = clock.now() + 30 * MICROS_PER_MINUTE
        usage_table.insert([
            {"network": 1, "device": 1, "ts": past, "bytes": 1, "rate": 0.0},
            {"network": 1, "device": 1, "ts": future, "bytes": 2, "rate": 0.0},
        ])
        assert len(usage_table.query(Query()).rows) == 2

    def test_invalid_row_rejected(self, usage_table):
        with pytest.raises(ValidationError):
            usage_table.insert([{"network": "not-an-int", "device": 1,
                                 "ts": 1, "bytes": 1, "rate": 0.0}])

    @pytest.mark.parametrize("ts, prev_ts", [
        (BASE_TIME, 1 << 80), (BASE_TIME, 1 << 63), (1 << 63, 0)])
    def test_timestamp_past_63_bits_rejected(self, db, ts, prev_ts):
        """A ``TIMESTAMP`` is in ``[0, 2**63)`` in every column, key or
        not.  An unbounded one used to ack, flush, and leave a tablet
        no scan could decode."""
        from repro.dashboard.schemas import usage_schema

        table = db.create_table("samples", usage_schema())
        with pytest.raises(ValidationError):
            table.insert_tuples([(1, 1, ts, prev_ts, 5, 1.0)])
        with pytest.raises(ValidationError):
            table.insert([{"network": 1, "device": 1, "ts": ts,
                           "prev_ts": prev_ts, "counter": 5, "rate": 1.0}])
        assert table.counters.rows_inserted == 0
        # The largest one there is round-trips through a tablet.
        row = (1, 1, BASE_TIME, (1 << 63) - 1, 5, 1.0)
        assert table.insert_tuples([row, (1, 2, BASE_TIME, 0, 5, 1.0)]) == 2
        table.flush_all()
        assert table.query(Query()).rows[0] == row

    def test_duplicate_key_raises(self, usage_table):
        row = {"network": 1, "device": 1, "ts": BASE_TIME, "bytes": 5,
               "rate": 1.0}
        usage_table.insert([row])
        with pytest.raises(DuplicateKeyError):
            usage_table.insert([dict(row, bytes=99)])


class TestQuery:
    def test_results_sorted_by_primary_key(self, usage_table, clock):
        fill_usage(usage_table, clock)
        rows = usage_table.query(Query()).rows
        keys = [usage_table.schema.key_of(r) for r in rows]
        assert keys == sorted(keys)

    def test_key_prefix_query(self, usage_table, clock):
        fill_usage(usage_table, clock)
        result = usage_table.query(Query(KeyRange.prefix((1,))))
        assert result.rows
        assert all(r[0] == 1 for r in result.rows)

    def test_device_prefix_query(self, usage_table, clock):
        fill_usage(usage_table, clock)
        result = usage_table.query(Query(KeyRange.prefix((2, 3))))
        assert len(result.rows) == 5
        assert all(r[0] == 2 and r[1] == 3 for r in result.rows)

    def test_time_bounded_query(self, usage_table, clock):
        start = clock.now()
        fill_usage(usage_table, clock, samples=5)
        bound = TimeRange.between(start + MICROS_PER_MINUTE,
                                  start + 3 * MICROS_PER_MINUTE)
        result = usage_table.query(Query(time_range=bound))
        assert len(result.rows) == 3 * 12  # samples 1..3 of 12 keys each

    def test_two_dimensional_bounding_box(self, usage_table, clock):
        start = clock.now()
        fill_usage(usage_table, clock, samples=5)
        result = usage_table.query(Query(
            KeyRange.prefix((1,)),
            TimeRange.between(start, start + MICROS_PER_MINUTE),
        ))
        assert len(result.rows) == 2 * 4  # 2 samples x 4 devices

    def test_descending_query(self, usage_table, clock):
        fill_usage(usage_table, clock)
        asc = usage_table.query(Query()).rows
        desc = usage_table.query(Query(direction=DESCENDING)).rows
        assert desc == asc[::-1]

    def test_limit(self, usage_table, clock):
        fill_usage(usage_table, clock)
        result = usage_table.query(Query(limit=7))
        assert len(result.rows) == 7

    def test_query_spans_memtables_and_disk(self, usage_table, clock):
        first_half = fill_usage(usage_table, clock, samples=3)
        usage_table.flush_all()
        second_half = fill_usage(usage_table, clock, samples=2)
        result = usage_table.query(Query())
        assert len(result.rows) == len(first_half) + len(second_half)

    def test_query_after_flush_returns_same_rows(self, usage_table, clock):
        fill_usage(usage_table, clock)
        before = usage_table.query(Query()).rows
        usage_table.flush_all()
        assert usage_table.query(Query()).rows == before

    def test_empty_table(self, usage_table):
        result = usage_table.query(Query())
        assert result.rows == []
        assert not result.more_available


class TestScanContract:
    """What the stretch cursor must keep of the row cursor's manners."""

    def _four_tablets(self, table, clock):
        """Four multi-block tablets whose keys interleave, no merge."""
        table.config.merge_policy = "never"
        for _tablet in range(4):
            fill_usage(table, clock, networks=4, devices=8, samples=6)
            table.flush_all()
        assert len(table.descriptor.tablets) == 4
        assert all(table._reader(meta).block_count > 2
                   for meta in table.descriptor.tablets)
        table.evict_reader_cache()

    @pytest.mark.parametrize("direction", ["asc", DESCENDING])
    def test_first_row_costs_one_block_a_tablet(self, db, usage_table,
                                                clock, direction):
        """Figure 6's contract: nothing is decoded before the first
        ``next()``, and the first row costs a block per source."""
        self._four_tablets(usage_table, clock)
        decoded = db.metrics.counter("block.decoded")
        before = decoded.value
        scan = usage_table.scan(Query(direction=direction))
        assert decoded.value == before
        first = next(scan)
        assert 1 <= decoded.value - before <= 4
        rest = list(scan)
        everything = usage_table.query(Query(direction=direction)).rows
        assert [first] + rest == everything
        assert len(everything) == 4 * 4 * 8 * 6

    def test_latest_under_a_full_prefix_stops_at_its_first_row(
            self, usage_table, clock):
        self._four_tablets(usage_table, clock)
        before = usage_table.counters.rows_scanned
        row = usage_table.latest((2, 3))
        assert row[:2] == (2, 3)
        assert usage_table.counters.rows_scanned - before == 1

    def test_a_result_is_the_callers_own(self, usage_table, clock):
        """Rows reach the caller in lists the read cache never sees
        again: emptying an answer does not change the next one."""
        fill_usage(usage_table, clock)
        usage_table.flush_all()
        fill_usage(usage_table, clock, samples=2)
        for query in (Query(), Query(KeyRange.prefix((1,))),
                      Query(direction=DESCENDING), Query(limit=5)):
            first = usage_table.query(query).rows     # fills the cache
            expected = list(first)
            assert expected
            first.clear()
            again = usage_table.query(query).rows
            assert again == expected
            again.reverse()
            assert usage_table.query(query).rows == expected
            assert list(usage_table.scan(query)) == expected

    def test_limit_zero_is_an_empty_complete_answer(self, usage_table,
                                                    clock):
        """``limit=0`` once yielded a row from ``scan`` and told
        ``query``'s caller the *server* limit had cut an empty page."""
        fill_usage(usage_table, clock)
        for query in (Query(limit=0),
                      Query(KeyRange.prefix((1,)), limit=0,
                            direction=DESCENDING)):
            assert list(usage_table.scan(query)) == []
            result = usage_table.query(query)
            assert result.rows == [] and not result.more_available
            assert result.stats.rows_scanned == 0

    def test_query_counts_through_the_row_that_says_more(self, db, clock):
        """The server limit is found by reading one row past it; that
        row is scanned and counted, no more."""
        from ..conftest import usage_schema

        db.config.server_row_limit = 10
        table = db.create_table("limited", usage_schema())
        fill_usage(table, clock, networks=1, devices=25, samples=1)
        result = table.query(Query())
        assert len(result.rows) == 10 and result.more_available
        assert result.stats.rows_scanned == 11
        exact = table.query(Query(limit=10))
        assert len(exact.rows) == 10 and not exact.more_available
        assert exact.stats.rows_scanned == 10


class TestServerRowLimit:
    def test_more_available_and_continuation(self, db, clock):
        from ..conftest import usage_schema

        db.config.server_row_limit = 10
        table = db.create_table("limited", usage_schema())
        for device in range(25):
            table.insert([{"network": 1, "device": device,
                           "ts": clock.now(), "bytes": device, "rate": 0.0}])
        first = table.query(Query())
        assert len(first.rows) == 10
        assert first.more_available
        # Continue the way the SQLite adaptor does (§3.5): move the
        # start bound past the last returned key.
        collected = list(first.rows)
        while True:
            last_key = table.schema.key_of(collected[-1])
            result = table.query(Query(KeyRange(min_prefix=last_key,
                                                min_inclusive=False)))
            collected.extend(result.rows)
            if not result.more_available:
                break
        assert len(collected) == 25
        keys = [table.schema.key_of(r) for r in collected]
        assert keys == sorted(set(keys))


class TestScanRatioAccounting:
    def test_time_filtered_rows_count_as_scanned(self, usage_table, clock):
        start = clock.now()
        fill_usage(usage_table, clock, networks=1, devices=1, samples=10)
        usage_table.flush_all()
        narrow = TimeRange.between(start, start)
        result = usage_table.query(Query(KeyRange.prefix((0, 0)), narrow))
        assert len(result.rows) == 1
        assert result.stats.rows_scanned > result.stats.rows_returned
