"""One copy, three users: a property over seeded interleavings.

A snapshot, the warm spare and the standby all copy a database with
``snapshot.copy_version``.  Hypothesis interleaves inserts, flushes,
merges, TTL expiry and table creates and drops on a primary with the
three copies (a snapshot restored into a fresh engine, a spare pass
opened as the promoted spare, a standby poll), and after every copy
checks the target:

(a) each table's rows are a subset of the primary's, and on a ``none``
    table a prefix in insertion order;
(b) no row is missing: every row in a tablet at the pin, every acked
    row of a ``wal`` table (spare and standby), every row admitted
    before a snapshot's cut;
(c) its files under ``tables/`` are exactly what its descriptors list,
    plus WAL segments;
(d) ``is_healthy`` holds.

The standby is polled all along and promoted at the end.  A dropped
name is never created again: a followed ``wal`` table dropped and
recreated between two polls starts its log over, which the standby
reports as divergence, by design.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (DurabilityPolicy, EngineConfig, LittleTable, Query,
                        is_healthy)
from repro.core.descriptor import TableDescriptor
from repro.core.wal import is_wal_filename
from repro.dashboard.failover import WarmSpare
from repro.disk import MemoryStorage, SimulatedDisk
from repro.net.replica import Follower
from repro.net.server import RequestDispatcher
from repro.util.clock import MICROS_PER_DAY, MICROS_PER_MINUTE, VirtualClock

from .conftest import usage_schema

BASE = 10_000 * MICROS_PER_DAY
TTL = 6 * MICROS_PER_MINUTE


class InProcessClient:
    """The follower's transport without a socket: each request goes
    straight to the primary's command dispatcher."""

    def __init__(self, db):
        self._dispatcher = RequestDispatcher(db)

    def _call(self, request, idempotent=False):
        response = self._dispatcher.dispatch(request)
        assert response["ok"], response
        return response

    def close(self):
        pass


class Primary:
    """The source engine and, per table, its rows in insertion order
    and how many of them a flush has put in tablets."""

    def __init__(self):
        self.clock = VirtualClock(start=BASE)
        self.config = EngineConfig(
            block_size_bytes=256, merge_min_age_micros=0,
            merge_rollover_delay_fraction=0.0)
        self.db = LittleTable(disk=SimulatedDisk(), clock=self.clock,
                              config=self.config)
        self.inserted = {}
        self.flushed = {}
        self.created = 0
        self.next_device = 0

    def tables(self):
        return self.db.table_names()

    def pick(self, index):
        names = self.tables()
        return names[index % len(names)] if names else None

    def create(self, tier, ttl):
        name = f"t{self.created}"
        self.created += 1
        self.db.create_table(
            name, usage_schema(), ttl_micros=TTL if ttl else None,
            durability=DurabilityPolicy(tier=tier, wal_segment_bytes=600))
        self.inserted[name] = []
        self.flushed[name] = 0

    def insert(self, name, count):
        rows = []
        for _ in range(count):
            self.next_device += 1
            rows.append((1, self.next_device, self.clock.now(),
                         self.next_device, 0.5))
        self.db.table(name).insert_tuples(rows)
        self.inserted[name].extend(rows)

    def flush(self, name):
        self.db.table(name).flush_all()
        self.flushed[name] = len(self.inserted[name])

    def merge(self, name):
        while self.db.table(name).maybe_merge() is not None:
            pass

    def drop(self, name):
        self.db.drop_table(name)
        del self.inserted[name], self.flushed[name]


def rows_of(db, name):
    return set(db.table(name).query(Query()).rows)


def check_files(storage):
    """(c): the files under ``tables/`` are what the descriptors list,
    plus WAL segments."""
    disk = SimulatedDisk(storage)
    listed = set()
    for name in TableDescriptor.list_tables(disk):
        descriptor = TableDescriptor.load(disk, name)
        listed.add(descriptor.path())
        listed.update(meta.filename for meta in descriptor.tablets)
    found = {name for name in storage.list("tables/")
             if not is_wal_filename(name)}
    assert found == listed


def check_copy(primary, target, whole):
    """(a), (b) and (d) for one target engine; ``whole`` when every
    row must be there (a snapshot), not only the durable ones."""
    assert target.table_names() == primary.tables()
    for name in primary.tables():
        source = rows_of(primary.db, name)
        copied = rows_of(target, name)
        in_order = [row for row in primary.inserted[name] if row in source]
        # (a) a subset, and a prefix on a ``none`` table.
        assert copied <= source, name
        wal = primary.db.table(name).durability.wal_enabled
        if not wal:
            assert copied == set(in_order[:len(copied)]), name
        # (b) nothing durable at the pin is missing.
        if whole or wal:
            assert copied == source, name
        else:
            flushed = primary.inserted[name][:primary.flushed[name]]
            assert {row for row in flushed if row in source} <= copied, name
    assert is_healthy(target)


def clone(storage):
    copy = MemoryStorage()
    for name in storage.list():
        copy.write_file(name, storage.read_all(name))
    return copy


def take_snapshot(primary):
    dest = MemoryStorage()
    primary.db.snapshot(dest)
    restored = LittleTable(disk=SimulatedDisk(), clock=primary.clock,
                           config=primary.config)
    if primary.tables():
        restored.restore(dest)
    check_copy(primary, restored, whole=True)
    check_files(restored.disk.storage)


def spare_pass(primary, spare):
    spare.sync_from(primary.db)
    check_files(spare.storage)
    # The failover opens the spare's storage as it stands.
    promoted = LittleTable(disk=SimulatedDisk(clone(spare.storage)),
                           clock=primary.clock, config=primary.config)
    check_copy(primary, promoted, whole=False)


def poll(primary, follower):
    follower.sync_once()
    check_copy(primary, follower.db, whole=False)
    check_files(follower.db.disk.storage)


def on_table(kind):
    return st.tuples(st.just(kind), st.integers(0, 3))


INSERT = st.tuples(st.just("insert"), st.integers(0, 3), st.integers(1, 12))
COPY = st.tuples(st.sampled_from(["snapshot", "spare", "follow"]))
# Inserts, flushes, merges and copies drawn more often than the rest.
STEP = st.one_of(
    INSERT, INSERT, INSERT, on_table("flush"), on_table("flush"),
    on_table("merge"), on_table("merge"), COPY, COPY, COPY,
    on_table("expire"), on_table("drop"),
    st.tuples(st.just("create"), st.sampled_from(["none", "wal"]),
              st.booleans()),
)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(STEP, min_size=12, max_size=50))
def test_every_copy_is_a_durable_prefix_of_its_source(steps):
    primary = Primary()
    primary.create("none", False)
    primary.create("wal", False)
    spare = WarmSpare(primary.clock)
    follower = Follower(LittleTable(disk=SimulatedDisk(), clock=primary.clock,
                                    config=primary.config),
                        "in-process", 0, client=InProcessClient(primary.db))
    for step in steps:
        primary.clock.advance(MICROS_PER_MINUTE)
        kind = step[0]
        if kind == "create":
            primary.create(step[1], step[2])
        elif kind in ("snapshot", "spare", "follow"):
            {"snapshot": lambda: take_snapshot(primary),
             "spare": lambda: spare_pass(primary, spare),
             "follow": lambda: poll(primary, follower)}[kind]()
        else:
            name = primary.pick(step[1])
            if name is None:
                continue
            if kind == "insert":
                primary.insert(name, step[2])
            elif kind == "flush":
                primary.flush(name)
            elif kind == "merge":
                primary.merge(name)
            elif kind == "expire":
                primary.db.table(name).expire_tablets()
            else:
                primary.drop(name)
    take_snapshot(primary)
    spare_pass(primary, spare)
    poll(primary, follower)
    promoted = follower.promote()
    check_copy(primary, promoted, whole=False)
    for name in promoted.table_names():
        promoted.table(name).insert_tuples([(2, 0, primary.clock.now(), 0,
                                             0.0)])
