"""The merge executor (``merge.merge_tablets``) over readers and a
writer alone: no table, no locks, no descriptor."""

import hashlib
import random
from itertools import accumulate

import pytest

from repro.core import LittleTable, Query
from repro.core.codec import SchemaCodec
from repro.core.merge import MergePlan, merge_tablets
from repro.core.periods import period_for
from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType
from repro.core.tablet import TabletReader, TabletWriter
from repro.disk import SimulatedDisk
from repro.obs.metrics import MetricsRegistry
from repro.util.clock import VirtualClock

from ..conftest import BASE_TIME, load_v2_datadir, usage_schema

NOW = 10_000 * 86_400_000_000


def usage_row(device, ts):
    return (1, device, ts, device, 0.5)


def write(disk, schema, tablet_id, rows, metrics=None):
    writer = TabletWriter(disk, schema, 256, "zlib", 10, metrics=metrics)
    return writer.write(f"t/tab-{tablet_id}.lt", rows, tablet_id, NOW)


def merge(disk, schema, metas, metrics=None):
    plan = MergePlan(list(metas), period_for(NOW, NOW, True))
    readers = [TabletReader(disk, meta.filename, metrics=metrics)
               for meta in metas]
    writer = TabletWriter(disk, schema, 256, "zlib", 10, metrics=metrics)
    return merge_tablets(plan, readers, writer, schema, "t/tab-9.lt", 9,
                         NOW + 5)


def rows_of(disk, meta):
    return list(TabletReader(disk, meta.filename).scan(KeyRange.all()))


class TestBlockwise:
    def test_disjoint_sources_pass_blocks_through(self):
        """Time-partitioned tablets rarely interleave: once each
        source's first block has fixed its lower bound, the blocks of
        key-disjoint sources move compressed-payload-verbatim."""
        schema, disk, metrics = usage_schema(), SimulatedDisk(), \
            MetricsRegistry()
        low = [usage_row(d, NOW + d) for d in range(0, 60)]
        high = [usage_row(d, NOW + d) for d in range(100, 160)]
        metas = [write(disk, schema, 1, low), write(disk, schema, 2, high)]
        meta = merge(disk, schema, metas, metrics)
        assert rows_of(disk, meta) == low + high
        assert meta.row_count == 120
        assert (meta.min_ts, meta.max_ts) == (NOW, NOW + 159)
        assert (meta.min_key, meta.max_key) == (
            schema.key_of(low[0]), schema.key_of(high[-1]))
        assert meta.created_at == NOW + 5
        decoded = metrics.snapshot()["counters"]["codec.rows_decoded"]
        assert 0 < decoded < 60

    def test_interleaved_sources_merge_row_exact(self):
        schema, disk = usage_schema(), SimulatedDisk()
        evens = [usage_row(d, NOW + d) for d in range(0, 120, 2)]
        odds = [usage_row(d, NOW + d) for d in range(1, 120, 2)]
        metas = [write(disk, schema, 1, evens), write(disk, schema, 2, odds)]
        meta = merge(disk, schema, metas)
        assert rows_of(disk, meta) == sorted(evens + odds,
                                             key=schema.key_of)
        # The merged tablet answers Bloom probes for both sources.
        reader = TabletReader(disk, meta.filename)
        assert reader.probe_key(schema.key_of(odds[7]))

    def test_single_source_is_rewritten_whole(self):
        schema, disk = usage_schema(), SimulatedDisk()
        one = write(disk, schema, 1, [usage_row(1, NOW)])
        meta = merge(disk, schema, [one])
        assert rows_of(disk, meta) == [usage_row(1, NOW)]


def _deal(pattern, rng, k, n):
    """Which of ``k`` sources holds each of ``n`` rows in key order."""
    if pattern == "interleaved":
        return [i % k for i in range(n)]
    if pattern == "random runs":
        owners = []
        while len(owners) < n:
            owners += [rng.randrange(k)] * rng.randint(1, 40)
        return owners[:n]
    if pattern == "disjoint":
        return [i * k // n for i in range(n)]
    if pattern == "nested":
        # Sources 1.. each hold one short window that falls inside a
        # single block of source 0 (a 256-byte block is ~18 rows).
        owners = [0] * n
        for source in range(1, k):
            at = source * n // k
            owners[at:at + 5] = [source] * 5
        return owners
    if pattern == "ends mid-stretch":
        # Source j > 0 interleaves with source 0 and stops part way.
        return [rng.randrange(1, k) if i < n * 2 // 3 and i % 3 == 0 else 0
                for i in range(n)]
    raise AssertionError(pattern)


class TestStretches:
    """The overlap loop moves one sorted stretch per iteration; over
    every shape of overlap the output is the sorted union, with the
    metadata and the Bloom filter a direct write of the union has."""

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("pattern, block_size", [
        ("interleaved", 256), ("random runs", 256), ("disjoint", 256),
        ("nested", 256), ("ends mid-stretch", 256),
        ("random runs", 1),     # one row per block
    ])
    def test_merge_is_the_sorted_union(self, pattern, block_size, k):
        rng = random.Random(f"{pattern}/{block_size}/{k}")
        schema, disk, metrics = usage_schema(), SimulatedDisk(), \
            MetricsRegistry()
        n = 400
        union = [usage_row(d // 8, NOW + d * 3 + rng.randrange(3))
                 for d in range(n)]
        assert union == sorted(union, key=schema.key_of)
        owners = _deal(pattern, rng, k, n)
        writer = TabletWriter(disk, schema, block_size, "zlib", 10,
                              metrics=metrics)
        metas = [writer.write(f"t/tab-{source}.lt",
                              [row for row, owner in zip(union, owners)
                               if owner == source], source, NOW)
                 for source in range(k)]
        metas = [meta for meta in metas if meta is not None]
        plan = MergePlan(metas, period_for(NOW, NOW, True))
        meta = merge_tablets(
            plan, [TabletReader(disk, m.filename, metrics=metrics)
                   for m in metas],
            writer, schema, "t/merged.lt", 9, NOW + 5)
        assert rows_of(disk, meta) == union
        assert meta.row_count == n
        timestamps = [schema.ts_of(row) for row in union]
        assert (meta.min_ts, meta.max_ts) == (min(timestamps),
                                              max(timestamps))
        assert (meta.min_key, meta.max_key) == (
            schema.key_of(union[0]), schema.key_of(union[-1]))
        reader = TabletReader(disk, meta.filename)
        entries = reader.block_entries()
        assert sum(entry.row_count for entry in entries) == n
        ends = list(accumulate(entry.row_count for entry in entries))
        assert [entry.last_key for entry in entries] \
            == [schema.key_of(union[end - 1]) for end in ends]
        assert all(reader.probe_key(schema.key_of(row))
                   for row in union[::7])
        # Same sizing, same set of prefixes: the filter answers every
        # probe, present or absent, as a direct write's does.
        direct = TabletReader(
            disk, writer.write("t/direct.lt", union, 10, NOW).filename)
        probes = [SchemaCodec(schema).encode_key_prefix((1, device))
                  for device in range(300)]
        answers = [reader.may_contain_prefix(probe) for probe in probes]
        assert answers == [direct.may_contain_prefix(probe)
                           for probe in probes]
        assert all(answers[:n // 8]) and not all(answers)
        if pattern == "disjoint":
            decoded = metrics.snapshot()["counters"]["codec.rows_decoded"]
            assert 0 < decoded < n // 2


class TestTranslating:
    def test_old_schema_source_is_upgraded_while_merging(self):
        """Mixed schema versions take the translate-while-merging
        path: the output is wholly at the writer's schema (§3.5)."""
        disk = SimulatedDisk()
        old_schema = usage_schema()
        new_schema = old_schema.with_appended_column(
            Column("errors", ColumnType.INT64))
        old_rows = [usage_row(d, NOW + d) for d in range(0, 40, 2)]
        new_rows = [usage_row(d, NOW + d) + (7,) for d in range(1, 40, 2)]
        metas = [write(disk, old_schema, 1, old_rows),
                 write(disk, new_schema, 2, new_rows)]
        meta = merge(disk, new_schema, metas)
        assert meta.schema_version == new_schema.version
        expected = sorted(
            [new_schema.translate_row(row, old_schema) for row in old_rows]
            + new_rows, key=new_schema.key_of)
        assert rows_of(disk, meta) == expected


class TestRecordedBytes:
    """Same bytes out.  The ``v2_datadir`` fixture's ``usage`` rows,
    written as 2,000-row tablets and merged, hash to what the last
    row-at-a-time sink (PR 19, d3ddd1f: ``TabletSink.add_row`` and the
    run-at-a-time overlap loop) produced for the same calls.  Block
    cuts, Bloom bits, footers and passthrough decisions all show in a
    file's bytes, so a batch sink or a merge loop that decides any of
    them differently fails here.  Nothing in the tree can regenerate
    the digests: they were recorded by running this test's body at that
    commit."""

    RECORDED = {
        "arrival": {
            "t/tab-1.lt": "b598a985e4b7a53619ca2fa8fc60b512"
                          "eae3668bba65122ed5852a51a2620ab0",
            "t/tab-2.lt": "bdc0e8f126ebada8a33020646edc927b"
                          "0647dc819862bf06e47bb25a9b6e4e47",
            "t/tab-3.lt": "5f5415fb4d7f2626dd913eed66463d47"
                          "716902cf18e8b84810c6b85173e51546",
            "t/tab-4.lt": "ccda428249a741d7be4a807d65ef720a"
                          "f0145059b3aade61a06891047426c2ba",
            "t/tab-11.lt": "7600048018feb1def45ada2fcabccbed"
                           "391cdd295d74842384ef3d0233ee6b6f",
            "t/tab-12.lt": "adbe2b2288b91bd0b916bc28e7c8b899"
                           "5b14e3edf6a42a3fa58f7c99cce4a991",
        },
        "sorted": {
            "t/tab-1.lt": "e170e36130bdd8c63650e3ee0960d130"
                          "7ef6d95d011d0c9c8b15b2c6fb6814d9",
            "t/tab-2.lt": "7012a5897f6b42970b28654440212a88"
                          "f8fa89923a73f9b199e3d3ff68e11088",
            "t/tab-3.lt": "54d082941bb5329659f099afd5e9b67e"
                          "ca81348202fbaea254d96e098f8c1a7e",
            "t/tab-4.lt": "5cd4a74aced8b744f2ab1c5878e580b2"
                          "1ebdc4cd71714ab95d5d354cb17e22fd",
            "t/tab-11.lt": "9be3f09c9d5542fe37282e4bfb74aeea"
                           "2fc2e45ea4481c18889e52030b758af7",
            "t/tab-12.lt": "238fa3f4aa120b0a331a26af9caf4280"
                           "7314172c628afe5823e422b90f29213a",
        },
    }

    @staticmethod
    def files(order):
        """``order`` is "arrival" - runs cut from timestamp order, so
        every tablet spans every device and the merges interleave - or
        "sorted" - runs cut from key order, so the merges move whole
        blocks - as ``{filename: sha256}``."""
        fixture, _rows, _manifest = load_v2_datadir()
        table = LittleTable(disk=fixture,
                            clock=VirtualClock(start=BASE_TIME)).table("usage")
        schema = table.schema
        rows = table.query(Query()).rows
        if order == "arrival":
            rows = sorted(rows, key=schema.ts_of)
        disk = SimulatedDisk()
        # Uncompressed, so the digests do not depend on the zlib build.
        writer = TabletWriter(disk, schema, 4096, "none", 10)
        metas = []
        for start in range(0, len(rows), 2000):
            run = sorted(rows[start:start + 2000], key=schema.key_of)
            tablet_id = len(metas) + 1
            metas.append(writer.write(f"t/tab-{tablet_id}.lt", run, tablet_id,
                                      NOW, expected_rows=len(run)))

        def merged(sources, tablet_id):
            plan = MergePlan(sources, period_for(NOW, NOW, True))
            meta = merge_tablets(
                plan, [TabletReader(disk, m.filename) for m in sources],
                writer, schema, f"t/tab-{tablet_id}.lt", tablet_id, NOW + 5)
            assert meta.row_count == sum(m.row_count for m in sources)
            return meta

        pair = merged(metas[:2], 11)
        whole = merged([pair] + metas[2:], 12)
        assert list(TabletReader(disk, whole.filename).scan(KeyRange.all())) \
            == sorted(rows, key=schema.key_of)
        return {name: hashlib.sha256(disk.storage.read_all(name)).hexdigest()
                for name in sorted(disk.storage.list())}

    @pytest.mark.parametrize("order", ["arrival", "sorted"])
    def test_flush_and_merge_bytes_are_the_recorded_ones(self, order):
        assert self.files(order) == self.RECORDED[order]
