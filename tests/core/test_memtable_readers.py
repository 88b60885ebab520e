"""The reader contract of an in-memory tablet, under a live writer.

§3.1: a query racing an insert sees "some, all, or none" of the batch.
Scans run off the table's state lock (``Table._read_plan`` hands out
the memtables, then lets go), so the memtable itself must give every
such reader a view that is ordered, duplicate-free and never shrinks,
whatever the writer is in the middle of.  This file says nothing about
how: it passed unchanged on the skip list the memtable used to be and
on the sorted runs it is now.
"""

import random
import sys
import threading

import pytest

from repro.core import KeyRange, LittleTable
from repro.disk import SimulatedDisk
from repro.util.clock import VirtualClock

from ..conftest import BASE_TIME, usage_schema

NETWORKS = 4
BATCH_ROWS = 24
ROUNDS = 200
MAX_BATCHES = 600


def batch(number):
    """Batch ``number``'s rows, in a shuffled arrival order; ``bytes``
    carries the batch number."""
    rows = [(i % NETWORKS, (i * 7) % BATCH_ROWS, BASE_TIME + number,
             number, float(i)) for i in range(BATCH_ROWS)]
    random.Random(number).shuffle(rows)
    return rows


@pytest.fixture
def fast_switching():
    """Hand the GIL over every 10 us, so a scan lands inside a batch
    far more often than at the default 5 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_off_lock_scans_under_a_live_writer(fast_switching):
    table = LittleTable(disk=SimulatedDisk(),
                        clock=VirtualClock(start=BASE_TIME)
                        ).create_table("usage", usage_schema())
    key_of = table.schema.key_of
    started = finished = 0      # batches; written by the writer only
    stop = threading.Event()
    errors = []

    def writer():
        nonlocal started, finished
        try:
            while not stop.is_set() and started < MAX_BATCHES:
                started += 1
                assert table.insert_tuples(batch(started)) == BATCH_ROWS
                finished = started
        except Exception as exc:     # surfaced by the main thread
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        while not finished and thread.is_alive():
            pass
        with table._read_plan() as plan:
            (memtable,) = plan.memtables
        seen = set()
        partial = 0
        for round_number in range(ROUNDS):
            descending = bool(round_number & 1)
            if round_number % 3 == 2:
                network = round_number % NETWORKS
                key_range = KeyRange.prefix((network,))
                per_batch = BATCH_ROWS // NETWORKS
            else:
                network = None
                key_range = KeyRange.all()
                per_batch = BATCH_ROWS
            done_before = finished
            rows = list(memtable.scan(key_range, descending))
            started_after = started

            keys = [key_of(row) for row in rows]
            ordered = sorted(keys, reverse=descending)
            assert keys == ordered, "out of key order"
            assert len(set(keys)) == len(keys), "a key twice"
            assert all(network in (None, key[0]) for key in keys)

            counts = {}
            for row in rows:
                counts[row[3]] = counts.get(row[3], 0) + 1
            # All of what was acknowledged before the scan began, none
            # of what had not begun when it ended, and of the batches
            # in between some, all or none.
            for number in range(1, done_before + 1):
                assert counts.get(number) == per_batch, \
                    f"batch {number} acknowledged but not whole"
            assert max(counts) <= started_after
            assert all(0 < count <= per_batch for count in counts.values())
            partial += any(count < per_batch for count in counts.values())

            current = set(rows)
            lost = {row for row in seen - current
                    if network in (None, row[0])}
            assert not lost, f"rows seen earlier are gone: {sorted(lost)[:3]}"
            seen |= current
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert not errors, errors
    # Not asserted, only shown on failure: how many scans caught a
    # batch part way (the interesting case; depends on the host).
    print(f"{partial} of {ROUNDS} scans saw a partial batch")
