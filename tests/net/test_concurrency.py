"""Concurrent clients against one server (§3.4.4's locking story).

The server shares almost no state between tables, so concurrent
writers to different tables must not interfere, concurrent writers to
the *same* table serialize through the table lock, and queries racing
inserts may see some/all/none of the racing rows but never a torn or
mis-sorted result (§3.1).
"""

import threading

import pytest

from repro.core import Column, ColumnType, LittleTable, Query, Schema
from repro.net import AsyncLittleTableServer, LittleTableClient
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import remote_table

BASE = 10_000 * MICROS_PER_DAY
WRITERS = 4
ROWS_PER_WRITER = 60


def make_schema():
    return Schema(
        [Column("writer", ColumnType.INT64),
         Column("seq", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP)],
        key=["writer", "seq", "ts"],
    )


@pytest.fixture
def server():
    db = LittleTable(clock=VirtualClock(start=BASE))
    with AsyncLittleTableServer(db) as running:
        yield running


def writer_thread(address, table, writer_id, errors):
    try:
        client = LittleTableClient(*address)
        try:
            rows = remote_table(client, table)
            for seq in range(ROWS_PER_WRITER):
                rows.insert([{
                    "writer": writer_id, "seq": seq,
                    "ts": BASE + writer_id * 1_000_000 + seq,
                }])
        finally:
            client.close()
    except Exception as exc:  # pragma: no cover - surfaced via errors
        errors.append(exc)


class TestConcurrentWriters:
    def test_writers_to_separate_tables(self, server):
        setup = LittleTableClient(*server.address)
        for writer_id in range(WRITERS):
            setup.create_table(f"w{writer_id}", make_schema())
        errors = []
        threads = [
            threading.Thread(target=writer_thread,
                             args=(server.address, f"w{writer_id}",
                                   writer_id, errors))
            for writer_id in range(WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for writer_id in range(WRITERS):
            rows = list(remote_table(setup, f"w{writer_id}").scan(Query()))
            assert len(rows) == ROWS_PER_WRITER
        setup.close()

    def test_writers_to_same_table_serialize(self, server):
        setup = LittleTableClient(*server.address)
        setup.create_table("shared", make_schema())
        errors = []
        threads = [
            threading.Thread(target=writer_thread,
                             args=(server.address, "shared", writer_id,
                                   errors))
            for writer_id in range(WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        rows = list(remote_table(setup, "shared").scan(Query()))
        assert len(rows) == WRITERS * ROWS_PER_WRITER
        # Every writer's rows are complete and unique.
        seen = {(r[0], r[1]) for r in rows}
        assert len(seen) == WRITERS * ROWS_PER_WRITER
        setup.close()

    def test_reader_racing_writers_sees_sorted_prefixes(self, server):
        setup = LittleTableClient(*server.address)
        setup.create_table("raced", make_schema())
        errors = []
        stop = threading.Event()
        observations = []

        def reader():
            client = LittleTableClient(*server.address)
            try:
                raced = remote_table(client, "raced")
                while not stop.is_set():
                    rows = list(raced.scan(Query()))
                    observations.append(rows)
            finally:
                client.close()

        reader_thread_handle = threading.Thread(target=reader)
        reader_thread_handle.start()
        threads = [
            threading.Thread(target=writer_thread,
                             args=(server.address, "raced", writer_id,
                                   errors))
            for writer_id in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        reader_thread_handle.join(timeout=30)
        assert not errors
        # Row counts only grow, results are always key-sorted, and a
        # writer's rows appear in insertion (seq) order (§3.1: a query
        # concurrent with an insert may see some, all, or none).
        last_count = 0
        for rows in observations:
            assert len(rows) >= last_count
            last_count = len(rows)
            keys = [(r[0], r[1]) for r in rows]
            assert keys == sorted(keys)
        final = list(remote_table(setup, "raced").scan(Query()))
        assert len(final) == 2 * ROWS_PER_WRITER
        setup.close()
