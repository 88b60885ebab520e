"""Unit tests for the read-cache subsystem (repro.core.readcache)."""

import dataclasses

import pytest

from repro.core import KeyRange, TimeRange
from repro.core.codec import compiled_ops
from repro.core.descriptor import TableDescriptor
from repro.core.readcache import (
    ROW_OVERHEAD_BYTES,
    CachedBlock,
    LatestRowCache,
    ReadCache,
    TabletPruneIndex,
    _zone_map_excludes,
)
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import TabletMeta
from repro.obs.metrics import MetricsRegistry

from ..conftest import usage_schema


def _meta(tablet_id, min_ts, max_ts, min_key=None, max_key=None):
    return TabletMeta(
        tablet_id=tablet_id, filename=f"t/{tablet_id:08d}.tab",
        min_ts=min_ts, max_ts=max_ts, row_count=1, size_bytes=100,
        created_at=0, schema_version=1,
        min_key=min_key, max_key=max_key,
    )


PADDED = Schema([Column("ts", ColumnType.TIMESTAMP),
                 Column("pad", ColumnType.BLOB)], key=["ts"])


def _block(value, payload_bytes):
    """A cached entry of one row, ``value``, whose raw body is
    ``payload_bytes`` long."""
    ops = compiled_ops(PADDED)
    pad = payload_bytes - len(ops.encode_rows([(value, b"")]))
    body = ops.walk_block(ops.encode_rows([(value, bytes(pad))]))
    assert len(body.view) == payload_bytes
    return CachedBlock(body)


class TestReadCacheBlocks:
    def test_hit_after_put(self):
        cache = ReadCache(budget_bytes=1 << 20)
        uid = cache.allocate_uid()
        schema = Schema([Column("a", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP),
                         Column("b", ColumnType.STRING)], key=["a", "ts"])
        body = compiled_ops(schema).walk_block(
            compiled_ops(schema).encode_rows([(1, 2, "x"), (4, 5, "y")]))
        entry = CachedBlock(body)
        cache.put_block(uid, 0, entry)
        got = cache.get_block(uid, 0)
        assert got is entry and got.body is body
        # Nothing is decoded until a reader needs it: no column, no
        # row, and no key ever.
        assert got.columns == [None, None, None]
        assert got.rows == [None, None]
        assert not hasattr(got, "keys")
        assert cache.get_block(uid, 1) is None

    def test_charge_is_payload_plus_overhead_per_row(self):
        """What a block is charged does not depend on how many of its
        rows are ever built, so the LRU evicts - and a scan decodes -
        the same blocks whatever the scans took."""
        ops = compiled_ops(PADDED)
        raw = ops.encode_rows([(ts, bytes(ts % 3)) for ts in range(37)])
        entry = CachedBlock(ops.walk_block(raw))
        assert entry.nbytes == len(raw) + ROW_OVERHEAD_BYTES * 37 \
            == len(raw) + 56 * 37
        cache = ReadCache(budget_bytes=1 << 20)
        cache.put_block(cache.allocate_uid(), 0, entry)
        assert cache.resident_bytes == entry.nbytes

    def test_byte_budget_evicts_lru(self):
        metrics = MetricsRegistry()
        cache = ReadCache(budget_bytes=1000, metrics=metrics)
        uid = cache.allocate_uid()
        # Each entry charges payload + ROW_OVERHEAD * rows = 400 + 56.
        for index in range(3):
            cache.put_block(uid, index, _block(index, 400))
        assert cache.entry_count == 2  # third put evicted block 0
        assert cache.get_block(uid, 0) is None
        assert cache.get_block(uid, 2) is not None
        assert metrics.counter("readcache.block.evictions").value == 1
        assert cache.resident_bytes <= 1000

    def test_an_entry_larger_than_the_budget_is_not_admitted(self):
        """One oversized block (a big BLOB row, a small budget) used to
        evict every other entry and then itself: the cache emptied on
        every such miss."""
        metrics = MetricsRegistry()
        cache = ReadCache(budget_bytes=1000, metrics=metrics)
        uid = cache.allocate_uid()
        cache.put_block(uid, 0, _block(0, 400))
        cache.put_block(uid, 1, _block(1, 400))
        cache.put_block(uid, 2, _block(2, 1000))     # 1,056 bytes alone
        assert cache.get_block(uid, 2) is None
        assert cache.get_block(uid, 0) is not None
        assert cache.get_block(uid, 1) is not None
        assert cache.entry_count == 2
        assert cache.resident_bytes == 2 * (400 + ROW_OVERHEAD_BYTES)
        assert metrics.counter("readcache.block.evictions").value == 0

    def test_lru_order_follows_access(self):
        cache = ReadCache(budget_bytes=1000)
        uid = cache.allocate_uid()
        cache.put_block(uid, 0, _block(0, 400))
        cache.put_block(uid, 1, _block(1, 400))
        cache.get_block(uid, 0)  # touch 0 so 1 is now the LRU entry
        cache.put_block(uid, 2, _block(2, 400))
        assert cache.get_block(uid, 0) is not None
        assert cache.get_block(uid, 1) is None

    def test_disabled_cache_is_inert(self):
        cache = ReadCache(budget_bytes=0)
        uid = cache.allocate_uid()
        cache.put_block(uid, 0, _block(1, 100))
        assert cache.get_block(uid, 0) is None
        assert cache.entry_count == 0

    def test_invalidate_tablet_drops_its_blocks(self):
        metrics = MetricsRegistry()
        cache = ReadCache(budget_bytes=1 << 20, metrics=metrics)
        uid = cache.allocate_uid()
        other = cache.allocate_uid()
        cache.put_block(uid, 0, _block(1, 100))
        cache.put_block(uid, 1, _block(2, 100))
        cache.put_block(other, 0, _block(3, 100))
        dropped = cache.invalidate_tablet(uid)
        assert dropped == 2
        assert cache.get_block(uid, 0) is None
        assert cache.get_block(other, 0) is not None
        assert metrics.counter("readcache.invalidations").value == 2

    def test_resident_bytes_gauge_published(self):
        metrics = MetricsRegistry()
        cache = ReadCache(budget_bytes=1 << 20, metrics=metrics)
        uid = cache.allocate_uid()
        cache.put_block(uid, 0, _block(1, 100))
        snap = metrics.snapshot()
        assert snap["gauges"]["readcache.block.resident_bytes"] > 0
        assert snap["gauges"]["readcache.block.entries"] == 1

    def test_uids_are_unique(self):
        cache = ReadCache(budget_bytes=0)
        uids = {cache.allocate_uid() for _ in range(100)}
        assert len(uids) == 100


class TestTabletPruneIndex:
    def _descriptor(self, tablets):
        return TableDescriptor(name="t", schema=usage_schema(),
                               tablets=tablets, generation=1)

    def test_selects_only_overlapping(self):
        tablets = [_meta(i, i * 100, i * 100 + 99) for i in range(10)]
        descriptor = self._descriptor(tablets)
        index = TabletPruneIndex()
        selected, pruned = index.select(
            descriptor, TimeRange.between(250, 450))
        assert [t.tablet_id for t in selected] == [2, 3, 4]
        assert pruned == 7

    def test_unbounded_range_selects_all(self):
        tablets = [_meta(i, i * 100, i * 100 + 99) for i in range(5)]
        descriptor = self._descriptor(tablets)
        selected, pruned = TabletPruneIndex().select(
            descriptor, TimeRange.all())
        assert len(selected) == 5 and pruned == 0

    def test_overlapping_spans_behind_prefix_max(self):
        # One huge early tablet must not be hidden by later disjoint
        # ones: the prefix running-max keeps the backwards walk alive.
        tablets = [_meta(0, 0, 10_000)]
        tablets += [_meta(i, i * 100, i * 100 + 50) for i in range(1, 8)]
        descriptor = self._descriptor(tablets)
        selected, _pruned = TabletPruneIndex().select(
            descriptor, TimeRange.between(720, 730))
        assert 0 in {t.tablet_id for t in selected}
        assert 7 in {t.tablet_id for t in selected}

    def test_matches_linear_sweep(self):
        tablets = [
            _meta(i, (i * 37) % 500, (i * 37) % 500 + (i * 13) % 200)
            for i in range(30)
        ]
        descriptor = self._descriptor(tablets)
        index = TabletPruneIndex()
        for lo in range(0, 700, 55):
            time_range = TimeRange.between(lo, lo + 60)
            expected = {t.tablet_id for t in tablets
                        if time_range.overlaps(t.min_ts, t.max_ts)}
            selected, pruned = index.select(descriptor, time_range)
            assert {t.tablet_id for t in selected} == expected
            assert pruned == 30 - len(expected)

    def test_rebuilds_on_generation_change(self):
        tablets = [_meta(1, 0, 100)]
        descriptor = self._descriptor(tablets)
        index = TabletPruneIndex()
        selected, _ = index.select(descriptor, TimeRange.all())
        assert len(selected) == 1
        descriptor = dataclasses.replace(
            descriptor, tablets=descriptor.tablets + (_meta(2, 200, 300),),
            generation=descriptor.generation + 1)
        selected, _ = index.select(descriptor, TimeRange.all())
        assert len(selected) == 2

    def test_zone_map_prunes_key_range(self):
        tablets = [
            _meta(1, 0, 100, min_key=(1, 1, 0), max_key=(1, 9, 100)),
            _meta(2, 0, 100, min_key=(5, 1, 0), max_key=(5, 9, 100)),
        ]
        descriptor = self._descriptor(tablets)
        selected, pruned = TabletPruneIndex().select(
            descriptor, TimeRange.all(), KeyRange.prefix((5,)))
        assert [t.tablet_id for t in selected] == [2]
        assert pruned == 1

    def test_zone_map_none_never_prunes(self):
        meta = _meta(1, 0, 100)  # pre-zone-map descriptor
        assert not _zone_map_excludes(meta, KeyRange.prefix((99,)))


class TestLatestRowCache:
    def test_store_lookup_roundtrip(self):
        cache = LatestRowCache(capacity=8)
        row = (1, 2, 500, 0)
        cache.store((1, 2), generation=0, row=row, cutoff=None)
        got = cache.lookup((1, 2), 0, None, lambda r: r[2])
        assert got is row

    def test_generation_mismatch_misses(self):
        cache = LatestRowCache(capacity=8)
        cache.store((1,), generation=0, row=(1, 2, 3, 4), cutoff=None)
        assert cache.lookup((1,), 1, None, lambda r: r[2]) \
            is cache.miss_sentinel

    def test_cutoff_makes_stale_row_none(self):
        # The cached row is the global latest; if it predates the
        # caller's window, the correct answer is None (still a hit).
        cache = LatestRowCache(capacity=8)
        cache.store((1,), generation=0, row=(1, 2, 500, 0), cutoff=None)
        assert cache.lookup((1,), 0, 600, lambda r: r[2]) is None
        assert cache.lookup((1,), 0, 400, lambda r: r[2]) == (1, 2, 500, 0)

    def test_cached_none_window_semantics(self):
        cache = LatestRowCache(capacity=8)
        cache.store((1,), generation=0, row=None, cutoff=500)
        ts_of = lambda r: r[2]  # noqa: E731
        # Narrower (more recent cutoff) window: still provably empty.
        assert cache.lookup((1,), 0, 600, ts_of) is None
        # Wider window: the search never looked before 500 - miss.
        assert cache.lookup((1,), 0, 400, ts_of) is cache.miss_sentinel
        assert cache.lookup((1,), 0, None, ts_of) is cache.miss_sentinel

    def test_unbounded_none_valid_for_all_windows(self):
        cache = LatestRowCache(capacity=8)
        cache.store((1,), generation=0, row=None, cutoff=None)
        assert cache.lookup((1,), 0, 123, lambda r: r[2]) is None
        assert cache.lookup((1,), 0, None, lambda r: r[2]) is None

    def test_insert_invalidates_covering_prefixes(self):
        cache = LatestRowCache(capacity=8)
        cache.store((1,), 0, (1, 2, 3, 4), None)
        cache.store((1, 2), 0, (1, 2, 3, 4), None)
        cache.store((9,), 0, (9, 9, 9, 9), None)
        cache.invalidate_key((1, 2, 7))
        ts_of = lambda r: r[2]  # noqa: E731
        assert cache.lookup((1,), 0, None, ts_of) is cache.miss_sentinel
        assert cache.lookup((1, 2), 0, None, ts_of) is cache.miss_sentinel
        assert cache.lookup((9,), 0, None, ts_of) is not cache.miss_sentinel

    def test_capacity_evicts_lru(self):
        cache = LatestRowCache(capacity=2)
        cache.store((1,), 0, (1, 0, 0, 0), None)
        cache.store((2,), 0, (2, 0, 0, 0), None)
        cache.store((3,), 0, (3, 0, 0, 0), None)
        assert len(cache) == 2
        assert cache.lookup((1,), 0, None, lambda r: r[2]) \
            is cache.miss_sentinel

    def test_zero_capacity_disabled(self):
        cache = LatestRowCache(capacity=0)
        cache.store((1,), 0, (1, 0, 0, 0), None)
        assert len(cache) == 0
        assert cache.lookup((1,), 0, None, lambda r: r[2]) \
            is cache.miss_sentinel

    def test_metrics_counted(self):
        metrics = MetricsRegistry()
        cache = LatestRowCache(capacity=8, metrics=metrics)
        ts_of = lambda r: r[2]  # noqa: E731
        assert cache.lookup((1,), 0, None, ts_of) is cache.miss_sentinel
        cache.store((1,), 0, (1, 0, 5, 0), None)
        cache.lookup((1,), 0, None, ts_of)
        cache.invalidate_key((1, 9))
        snap = metrics.snapshot()["counters"]
        assert snap["readcache.latest.hits"] == 1
        assert snap["readcache.latest.misses"] == 1
        assert snap["readcache.latest.invalidations"] == 1
