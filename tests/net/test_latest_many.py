"""``latest_many`` is ``latest`` for a batch, on every front.

The dashboard's device status page asks for sixteen prefixes at once;
one ``latest_many`` call answers them - one engine call, one call per
owning shard behind a router, one frame each way over the wire.  Here
the batch is checked against a loop of single-prefix ``latest`` calls,
value for value, through the embedded engine, a 4-shard router and a
client connected to a server over that router, while inserts, flushes,
merges, a moving clock, TTLs and lookbacks reshape what is there.  A
pure-Python oracle over the inserted rows pins each answer's timestamp,
and the read counters must advance as the loop would advance them: one
latest-row cache lookup and one query per prefix (per shard asked).
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, LittleTable
from repro.net import (AsyncLittleTableServer, LittleTableClient,
                       RemoteDatabase, ShardRouter)
from repro.util.clock import MICROS_PER_HOUR, MICROS_PER_MINUTE, VirtualClock

from ..conftest import BASE_TIME, usage_schema

TS = 2              # usage_schema(): (network, device, ts, bytes, rate)
SHARDS = 4
NETWORKS = 3
DEVICES = 4


def _config():
    return EngineConfig(block_size_bytes=1024, flush_size_bytes=4 * 1024,
                        max_merged_tablet_bytes=256 * 1024,
                        merge_min_age_micros=0,
                        merge_rollover_delay_fraction=0.0)


class Front:
    """One way in: ``db`` runs maintenance, ``facade`` answers reads."""

    def __init__(self, kind):
        self.kind = kind
        self.clock = VirtualClock(start=BASE_TIME)
        self.server = None
        if kind == "embedded":
            self.db = LittleTable(config=_config(), clock=self.clock)
        else:
            self.db = ShardRouter(shards=SHARDS, config=_config(),
                                  clock=self.clock)
        self.facade = self.db
        if kind == "wire":
            self.server = AsyncLittleTableServer(self.db)
            self.server.start()
            self.facade = RemoteDatabase(
                LittleTableClient(*self.server.address))
        self.names = (f"t{i}" for i in itertools.count())

    def lookups_per_prefix(self, name, prefix):
        """Engine-side latest lookups one prefix costs: a prefix the
        router cannot place on one shard asks every shard."""
        if self.kind == "embedded" \
                or self.db.table(name)._owner(prefix) is not None:
            return 1
        return SHARDS

    def counters(self):
        counters = self.db.metrics.snapshot()["counters"]
        return {
            "lookups": counters.get("readcache.latest.hits", 0)
            + counters.get("readcache.latest.misses", 0),
            "queries": counters.get("query.count", 0),
            "returned": counters.get("query.rows_returned", 0),
        }

    def close(self):
        if self.server is not None:
            self.facade.close()
            self.server.stop()
        self.db.close()


@pytest.fixture(scope="module", params=["embedded", "router", "wire"])
def front(request):
    front = Front(request.param)
    yield front
    front.close()


prefix_st = st.one_of(
    st.tuples(st.integers(0, NETWORKS - 1), st.integers(0, DEVICES)),
    st.tuples(st.integers(0, NETWORKS)),
    st.just(()))                               # empty: fans out
rows_st = st.lists(
    st.tuples(st.integers(0, NETWORKS - 1), st.integers(0, DEVICES - 1),
              st.integers(0, 180)), min_size=1, max_size=40)
step_st = st.one_of(
    st.tuples(st.just("insert"), rows_st),
    st.tuples(st.just("flush")),
    st.tuples(st.just("merge")),
    st.tuples(st.just("advance"), st.integers(1, 90)),
    st.tuples(st.just("read"),
              st.lists(prefix_st, min_size=1, max_size=12),
              st.sampled_from([None, 5, 30, 120]), st.booleans()))


def _expected_ts(rows, prefix, cutoff):
    stamps = [row[TS] for row in rows
              if row[:len(prefix)] == prefix
              and (cutoff is None or row[TS] >= cutoff)]
    return max(stamps) if stamps else None


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ttl_minutes=st.sampled_from([None, 45, 240]),
       steps=st.lists(step_st, min_size=1, max_size=14))
def test_a_batch_answers_as_a_loop_of_single_lookups(front, ttl_minutes,
                                                     steps):
    name = next(front.names)
    ttl = None if ttl_minutes is None else ttl_minutes * MICROS_PER_MINUTE
    front.facade.create_table(name, usage_schema(), ttl_micros=ttl)
    table = front.facade.table(name)
    stored = {}
    try:
        for step in steps:
            if step[0] == "insert":
                now = front.clock.now()
                fresh = {}
                for network, device, minutes_ago in step[1]:
                    ts = now - minutes_ago * MICROS_PER_MINUTE
                    key = (network, device, ts)
                    if key not in stored and key not in fresh:
                        fresh[key] = key + (ts % 1000, 0.5)
                table.insert_tuples(list(fresh.values()))
                stored.update(fresh)
            elif step[0] == "flush":
                table.flush_all()
            elif step[0] == "merge":
                front.db.maintenance()
            elif step[0] == "advance":
                front.clock.advance(step[1] * MICROS_PER_MINUTE)
            else:
                _, prefixes, lookback_minutes, twice = step
                lookback = None if lookback_minutes is None \
                    else lookback_minutes * MICROS_PER_MINUTE
                _check_read(front, table, list(stored.values()), ttl,
                            prefixes, lookback, twice)
    finally:
        front.facade.drop_table(name)


def _check_read(front, table, rows, ttl, prefixes, lookback, twice):
    now = front.clock.now()
    cutoffs = [now - window for window in (ttl, lookback)
               if window is not None]
    cutoff = max(cutoffs) if cutoffs else None
    # Duplicates in one batch, and (``twice``) the same batch again: a
    # miss that stores, then hits.
    batch = prefixes + prefixes[:2]
    lookups = sum(front.lookups_per_prefix(table.name, prefix)
                  for prefix in batch)
    for _round in range(2 if twice else 1):
        before = front.counters()
        many = table.latest_many(batch, lookback)
        after_many = front.counters()
        single = [table.latest(prefix, lookback) for prefix in batch]
        after_single = front.counters()
        assert many == single
        assert [None if row is None else row[TS] for row in many] == [
            _expected_ts(rows, prefix, cutoff) for prefix in batch]
        moved = {field: after_many[field] - before[field]
                 for field in before}
        assert moved["lookups"] == moved["queries"] == lookups
        assert moved == {field: after_single[field] - after_many[field]
                         for field in before}


def test_an_empty_batch_is_an_empty_answer(front):
    name = next(front.names)
    front.facade.create_table(name, usage_schema())
    try:
        before = front.counters()
        assert front.facade.table(name).latest_many([]) == []
        assert front.counters() == before
    finally:
        front.facade.drop_table(name)


def test_the_device_status_page_is_one_request():
    """Sixteen devices, one ``latest`` request on the wire."""
    from repro.dashboard import views

    front = Front("wire")
    try:
        front.facade.create_table("usage", usage_schema())
        table = front.facade.table("usage")
        now = front.clock.now()
        table.insert_tuples([(1, device, now - device * MICROS_PER_MINUTE,
                              0, 0.0) for device in range(0, 16, 2)])
        requests = front.db.metrics.counter("server.requests")
        before = requests.value
        status = views.device_status(table, 1, list(range(16)), now,
                                     offline_after_micros=MICROS_PER_HOUR)
        assert requests.value - before == 1
        assert status == {device: "online" if device % 2 == 0
                          else "offline" for device in range(16)}
    finally:
        front.close()
