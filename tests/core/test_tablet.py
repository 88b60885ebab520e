"""Tests for repro.core.tablet (on-disk tablet writer/reader)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import SchemaCodec
from repro.core.errors import CorruptTabletError
from repro.core.row import KeyRange
from repro.core.schema import Column, ColumnType, Schema
from repro.core.tablet import BlockRun, TabletReader, TabletWriter
from repro.disk import SimulatedDisk
from repro.obs.metrics import MetricsRegistry


def make_schema():
    return Schema(
        [Column("net", ColumnType.INT64),
         Column("dev", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("value", ColumnType.STRING)],
        key=["net", "dev", "ts"],
    )


def make_rows(networks=3, devices=4, samples=5):
    rows = []
    for net in range(networks):
        for dev in range(devices):
            for sample in range(samples):
                rows.append((net, dev, 1000 + sample, f"v{net}.{dev}.{sample}"))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


@pytest.fixture
def disk():
    return SimulatedDisk()


def write_tablet(disk, rows, schema=None, block_size=256, compression="zlib",
                 bloom=10, filename="t/tab-1.lt"):
    schema = schema or make_schema()
    writer = TabletWriter(disk, schema, block_size, compression, bloom)
    meta = writer.write(filename, rows, tablet_id=1, created_at=999)
    return meta


class TestWriter:
    def test_empty_rows_no_file(self, disk):
        meta = write_tablet(disk, [])
        assert meta is None
        assert disk.list() == []

    def test_an_iterator_is_consumed_in_bounded_runs(self, disk,
                                                     monkeypatch):
        """A streaming caller (the translating merge, the bulk-delete
        rewrite) stays streaming, and writes the bytes a list does."""
        from repro.core import tablet

        rows = make_rows()
        write_tablet(disk, rows, filename="t/list.lt")
        monkeypatch.setattr(tablet, "WRITE_RUN_ROWS", 7)
        taken = []

        class Sink(tablet.TabletSink):
            def add_rows(self, run, keys=None, sizes=None):
                taken.append(len(run))
                super().add_rows(run, keys, sizes)

        monkeypatch.setattr(tablet, "TabletSink", Sink)
        meta = write_tablet(disk, iter(rows), filename="t/iterator.lt")
        assert meta.row_count == len(rows) == 60
        assert taken == [7] * 8 + [4]
        assert disk.storage.read_all("t/iterator.lt") \
            == disk.storage.read_all("t/list.lt")
        assert write_tablet(disk, iter(()), filename="t/none.lt") is None

    def test_meta_fields(self, disk):
        rows = make_rows()
        meta = write_tablet(disk, rows)
        assert meta.row_count == len(rows)
        assert meta.min_ts == 1000
        assert meta.max_ts == 1004
        assert meta.created_at == 999
        assert meta.size_bytes == disk.size(meta.filename)
        assert meta.schema_version == 1

    def test_multiple_blocks_created(self, disk):
        rows = make_rows(networks=10)
        write_tablet(disk, rows, block_size=128)
        reader = TabletReader(disk, "t/tab-1.lt")
        assert reader.block_count > 3


class TestReaderRoundTrip:
    def test_full_scan(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        assert list(reader.scan(KeyRange.all())) == rows

    def test_full_scan_descending(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        assert list(reader.scan(KeyRange.all(), descending=True)) == rows[::-1]

    def test_prefix_scan(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        got = list(reader.scan(KeyRange.prefix((1,))))
        assert got == [r for r in rows if r[0] == 1]

    def test_two_column_prefix_scan(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        got = list(reader.scan(KeyRange.prefix((2, 3))))
        assert got == [r for r in rows if r[0] == 2 and r[1] == 3]

    def test_range_scan(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        kr = KeyRange(min_prefix=(1,), max_prefix=(2,))
        assert list(reader.scan(kr)) == [r for r in rows if 1 <= r[0] <= 2]

    def test_exclusive_bounds_scan(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        kr = KeyRange(min_prefix=(0,), min_inclusive=False,
                      max_prefix=(2,), max_inclusive=False)
        assert list(reader.scan(kr)) == [r for r in rows if r[0] == 1]

    def test_continuation_from_full_key(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        resume_after = rows[10]
        kr = KeyRange(min_prefix=(resume_after[0], resume_after[1],
                                  resume_after[2]), min_inclusive=False)
        assert list(reader.scan(kr)) == rows[11:]

    def test_descending_prefix_scan(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        got = list(reader.scan(KeyRange.prefix((1, 2)), descending=True))
        expected = [r for r in rows if r[0] == 1 and r[1] == 2][::-1]
        assert got == expected

    def test_no_compression_round_trip(self, disk):
        rows = make_rows()
        write_tablet(disk, rows, compression="none")
        reader = TabletReader(disk, "t/tab-1.lt")
        assert list(reader.scan(KeyRange.all())) == rows

    def test_no_bloom_round_trip(self, disk):
        rows = make_rows()
        write_tablet(disk, rows, bloom=0)
        reader = TabletReader(disk, "t/tab-1.lt")
        assert list(reader.scan(KeyRange.all())) == rows
        assert reader.may_contain_prefix([b"x"]) is None

    def test_footer_metadata(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        reader.ensure_loaded()
        assert reader.row_count == len(rows)
        assert reader.min_ts == 1000
        assert reader.max_ts == 1004
        assert reader.schema == make_schema()


class TestScanRuns:
    """``scan_runs``: the in-range slice of a block at a time."""

    def _reader(self, disk, cache=None):
        rows = make_rows(networks=4, devices=6, samples=8)
        write_tablet(disk, rows, block_size=128)
        self.metrics = MetricsRegistry()
        reader = TabletReader(disk, "t/tab-1.lt", self.metrics,
                              cache=cache)
        self.blocks_read = self.metrics.counter("tablet.blocks_read")
        assert reader.block_count > 8
        return reader, rows

    def test_runs_ascend_and_carry_no_keys(self, disk):
        """A tablet's run is a block's key span: no row or key tuple is
        built for it, and only the key columns the range bisects are
        decoded - its consumer builds what it takes."""
        from repro.core.readcache import ReadCache

        reader, rows = self._reader(disk, ReadCache(1 << 20))
        key_of = make_schema().key_of
        for descending in (False, True):
            runs = list(reader.scan_runs(KeyRange.prefix((2,)), descending))
            assert len(runs) > 2
            for run in runs:
                assert isinstance(run, BlockRun) and run.lo < run.hi
                # (descending reads the entries the first pass built)
                assert descending or not any(run.entry.rows)
                assert [column is not None for column in run.entry.columns
                        ] == [True, False, False, False]
            built = [run.rows(run.lo, run.hi) for run in runs]
            for run_rows in built:
                run_keys = [key_of(r) for r in run_rows]
                assert run_keys == sorted(run_keys)
            firsts = [key_of(run_rows[0]) for run_rows in built]
            assert firsts == sorted(firsts, reverse=descending)
            flat = [r for run_rows in built for r in run_rows]
            assert sorted(flat) == [r for r in rows if r[0] == 2]

    def test_only_blocks_that_may_hold_the_range_are_read(self, disk):
        reader, rows = self._reader(disk)
        reader.ensure_loaded()
        last_keys = reader.last_keys
        for key_range in (KeyRange.prefix((1, 3)),
                          KeyRange(min_prefix=(1,), min_inclusive=False,
                                   max_prefix=(3, 2), max_inclusive=False),
                          KeyRange(max_prefix=(0, 1)),
                          KeyRange(min_prefix=(9,))):
            may_hold = [
                index for index, last in enumerate(last_keys)
                if not key_range.before_range(last) and (
                    index == 0
                    or not key_range.after_range(last_keys[index - 1]))]
            before = self.blocks_read.value
            got = list(reader.scan(key_range))
            assert got == [r for r in rows if key_range.contains(r[:3])]
            assert self.blocks_read.value - before == len(may_hold)

    def test_a_block_is_read_when_the_run_before_it_is_taken(self, disk):
        reader, _rows = self._reader(disk)
        runs = reader.scan_runs(KeyRange.all())
        assert self.blocks_read.value == 0
        next(runs)
        assert self.blocks_read.value == 1
        next(runs)
        assert self.blocks_read.value == 2

    def test_a_block_is_one_run(self, disk):
        """A block's key span goes as one run, so a scan that takes a
        whole cold block decodes each of its columns once."""
        rows = make_rows(networks=4, devices=10, samples=25)
        write_tablet(disk, rows, block_size=1 << 20)
        reader = TabletReader(disk, "t/tab-1.lt")
        assert reader.block_count == 1
        for descending in (False, True):
            spans = [(run.offset, run.hi) for run in reader.scan_runs(
                KeyRange.all(), descending)]
            assert spans == [(0, 1000)]
            assert list(reader.scan(KeyRange.all(), descending)) == (
                rows[::-1] if descending else rows)

    def test_a_cold_block_read_whole_decodes_each_column_once(
            self, disk, monkeypatch):
        """One ``BlockBody.column`` call per column per block: a scan
        that takes every row of a cold block builds them in one go."""
        from repro.core.codec import BlockBody
        from repro.core.readcache import ReadCache

        calls = []
        column = BlockBody.column
        monkeypatch.setattr(BlockBody, "column", lambda body, *args: (
            calls.append(args[0]) or column(body, *args)))
        reader, rows = self._reader(disk, ReadCache(1 << 20))
        for key_range in (KeyRange.all(), KeyRange(min_prefix=(0,))):
            del calls[:]
            reader = TabletReader(disk, "t/tab-1.lt",
                                  cache=ReadCache(1 << 20))
            assert list(reader.scan(key_range)) == rows
            assert sorted(calls) == sorted(
                list(range(len(rows[0]))) * reader.block_count)

    def test_a_run_is_never_the_caches_list(self, disk):
        from repro.core.readcache import ReadCache

        cache = ReadCache(1 << 20)
        reader, rows = self._reader(disk, cache)
        for run in reader.scan_runs(KeyRange.all()):
            run.rows(run.lo, run.hi).clear()
        assert list(reader.scan(KeyRange.all())) == rows
        assert cache.get_block(reader.cache_uid, 0) is not None

    def test_rows_are_built_for_the_runs_taken_only(self, disk):
        """A cached block keeps its columns; a row tuple exists once a
        run handed it on - a ``LIMIT 1`` builds one short run, not the
        block - and a second scan over it builds nothing."""
        from repro.core.readcache import ReadCache

        rows = make_rows(networks=4, devices=10, samples=25)
        write_tablet(disk, rows, block_size=1 << 20)
        metrics = MetricsRegistry()
        cache = ReadCache(1 << 24)
        reader = TabletReader(disk, "t/tab-1.lt", metrics, cache=cache)
        built = metrics.counter("readcache.rows_built")
        first = next(reader.scan(KeyRange.prefix((1, 2)), descending=True))
        assert first == max(r for r in rows if r[:2] == (1, 2))
        assert built.value == 25            # the prefix's 25 rows, no more
        entry = cache.get_block(reader.cache_uid, 0)
        assert sum(row is not None for row in entry.rows) == 25
        assert [row for row in entry.rows if row is not None] == [
            r for r in rows if r[:2] == (1, 2)]
        assert list(reader.scan(KeyRange.prefix((1, 2)))) == [
            r for r in rows if r[:2] == (1, 2)]
        assert built.value == 25
        assert list(reader.scan(KeyRange.prefix((1,)))) == [
            r for r in rows if r[0] == 1]
        # Runs [250, 314), [314, 442) and [442, 500) each still held an
        # unbuilt row, so each was built whole: 64 + 128 + 58.
        assert built.value == 25 + 250
        assert all(entry.rows[250:500])
        assert not any(entry.rows[:250]) and not any(entry.rows[500:])
        # A run whose ends were built by two other scans but whose
        # middle was not: [50, 75) and [100, 125), then [50, 114).
        list(reader.scan(KeyRange.prefix((0, 2))))
        list(reader.scan(KeyRange.prefix((0, 4))))
        assert list(reader.scan(KeyRange(min_prefix=(0, 2),
                                         max_prefix=(0, 4)))) == rows[50:125]
        assert metrics.counter("block.decoded").value == 1

    def test_concurrent_scans_of_one_cold_block_agree(self, disk):
        """Eight threads scan overlapping ranges of one cached block
        while its rows are being built and, for half of them, its
        columns decoded whole: each gets exactly its rows."""
        import sys
        import threading

        from repro.core.readcache import ReadCache

        rows = make_rows(networks=4, devices=10, samples=25)
        write_tablet(disk, rows, block_size=1 << 20)
        ranges = [KeyRange.all(), KeyRange.prefix((1,)),
                  KeyRange(min_prefix=(0, 7), max_prefix=(2, 3)),
                  KeyRange(min_prefix=(1, 5), min_inclusive=False),
                  KeyRange(max_prefix=(2,), max_inclusive=False),
                  KeyRange.prefix((2, 4)), KeyRange.prefix((1, 9)),
                  KeyRange(min_prefix=(0,), max_prefix=(3, 0))]
        expected = [[r for r in rows if key_range.contains(r[:3])]
                    for key_range in ranges]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(20):
                reader = TabletReader(disk, "t/tab-1.lt",
                                      cache=ReadCache(1 << 24))
                reader.ensure_loaded()
                barrier = threading.Barrier(len(ranges), timeout=10)
                got = [None] * len(ranges)

                def scan(slot, key_range, descending, reader=reader):
                    barrier.wait()
                    if slot % 4 < 2:
                        found = list(reader.scan(key_range, descending))
                    else:       # a query page's way: columns, no rows
                        found = []
                        for run in reader.scan_runs(key_range, descending,
                                                    columnar=True):
                            taken = list(zip(*run.columns(0, run.hi)))
                            found += taken[::-1] if descending else taken
                    got[slot] = found[::-1] if descending else found

                threads = [threading.Thread(target=scan,
                                            args=(slot, key_range, slot % 2))
                           for slot, key_range in enumerate(ranges)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert got == expected
        finally:
            sys.setswitchinterval(interval)


    def test_an_entry_never_goes_back_to_a_form_it_left(self, disk):
        """Once a scan has built every row (and the body and columns
        went), a query page takes its columns from the rows and the
        rows stay; a page over an entry no scan has read decodes the
        columns from the body, and a scan then building every row from
        them drops the columns.  No value is decoded twice."""
        from repro.core.readcache import ReadCache

        rows = make_rows(networks=4, devices=10, samples=25)
        write_tablet(disk, rows, block_size=1 << 20)
        metrics = MetricsRegistry()
        cache = ReadCache(1 << 24)
        reader = TabletReader(disk, "t/tab-1.lt", metrics, cache=cache)
        built = metrics.counter("readcache.rows_built")
        decoded = metrics.counter("codec.rows_decoded")
        assert list(reader.scan(KeyRange.all())) == rows
        entry = cache.get_block(reader.cache_uid, 0)
        assert entry.body is None and all(entry.rows)
        assert decoded.value == len(rows)
        for key_range in (KeyRange.prefix((1,)), KeyRange.prefix((2, 3))):
            run, = reader.scan_runs(key_range, columnar=True)
            expected = [r for r in rows if key_range.contains(r[:3])]
            assert list(zip(*run.columns(0, run.hi))) == expected
            assert all(entry.rows) and None not in entry.columns
        assert list(reader.scan(KeyRange.all())) == rows
        assert built.value == decoded.value == len(rows)

        reader = TabletReader(disk, "t/tab-1.lt", metrics,
                              cache=ReadCache(1 << 24))
        run, = reader.scan_runs(KeyRange.prefix((3,)), columnar=True)
        assert list(zip(*run.columns(0, run.hi))) == [
            r for r in rows if r[0] == 3]
        entry = reader._cache.get_block(reader.cache_uid, 0)
        assert entry.body is None and not any(entry.rows)
        assert list(reader.scan(KeyRange.all())) == rows
        assert all(entry.rows) and entry.columns == [None] * len(rows[0])
        assert decoded.value == 2 * len(rows)


class TestProbeKey:
    """``probe_key`` bisects the one block's key columns."""

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.tuples(st.sampled_from(["", "a", "ab", "b"]),
                             st.integers(0, 3), st.integers(0, 6)),
                   min_size=1, max_size=60),
           st.lists(st.tuples(st.sampled_from(["", "a", "ab", "b", "c"]),
                              st.integers(-1, 4), st.integers(-1, 7)),
                    max_size=30))
    def test_probe_is_set_membership(self, held, probes):
        schema = Schema([Column("name", ColumnType.STRING),
                         Column("dev", ColumnType.INT64),
                         Column("ts", ColumnType.TIMESTAMP)],
                        key=["name", "dev", "ts"])
        disk = SimulatedDisk()
        # A few rows a block: probes land in first, middle, last blocks
        # and past the end.
        TabletWriter(disk, schema, 16, "zlib").write(
            "t/tab-1.lt", sorted(held), tablet_id=1, created_at=0)
        reader = TabletReader(disk, "t/tab-1.lt")
        for key in list(held) + probes:
            assert reader.probe_key(key) == (key in held)


class TestBloomIntegration:
    def test_present_prefix_probes_true(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        codec = SchemaCodec(make_schema())
        assert reader.may_contain_prefix(
            codec.encode_key_prefix((1,))) is True
        assert reader.may_contain_prefix(
            codec.encode_key_prefix((1, 2))) is True

    def test_absent_prefix_mostly_false(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        reader = TabletReader(disk, "t/tab-1.lt")
        codec = SchemaCodec(make_schema())
        hits = sum(
            bool(reader.may_contain_prefix(
                codec.encode_key_prefix((1000 + i,))))
            for i in range(100)
        )
        assert hits < 10


class TestSeekAccounting:
    def _realistic_tablet(self, disk):
        # Enough rows that the footer spans several pages and blocks
        # sit far from it, as with the paper's 16 MB tablets whose
        # footers are ~0.5% of the tablet (§3.2).
        rows = [
            (net, dev, 1000 + s, "v" * 100)
            for net in range(40)
            for dev in range(20)
            for s in range(8)
        ]
        return write_tablet(disk, rows, block_size=4096)

    def test_cold_footer_three_seeks(self, disk):
        self._realistic_tablet(disk)
        disk.drop_caches()
        before = disk.stats.seeks
        reader = TabletReader(disk, "t/tab-1.lt")
        reader.ensure_loaded()
        # §3.5: inode + trailer + footer = 3 seeks.
        assert disk.stats.seeks - before == 3

    def test_block_read_one_more_seek(self, disk):
        self._realistic_tablet(disk)
        disk.drop_caches()
        reader = TabletReader(disk, "t/tab-1.lt")
        reader.ensure_loaded()
        before = disk.stats.seeks
        next(reader.scan(KeyRange.all()))
        assert disk.stats.seeks - before == 1

    def test_warm_footer_free(self, disk):
        rows = make_rows()
        write_tablet(disk, rows)
        disk.drop_caches()
        reader = TabletReader(disk, "t/tab-1.lt")
        reader.ensure_loaded()
        before = disk.elapsed_s
        reader2 = TabletReader(disk, "t/tab-1.lt")
        reader2.ensure_loaded()  # footer pages are in the page cache
        assert disk.elapsed_s == before


class TestCorruption:
    def test_truncated_file(self, disk):
        disk.write_file("t/bad.lt", b"tiny")
        reader = TabletReader(disk, "t/bad.lt")
        with pytest.raises(CorruptTabletError):
            reader.ensure_loaded()

    def test_garbage_trailer(self, disk):
        disk.write_file("t/bad.lt", b"\xff" * 64)
        reader = TabletReader(disk, "t/bad.lt")
        with pytest.raises(CorruptTabletError):
            reader.ensure_loaded()


class TestLargeValues:
    def test_blob_rows_bigger_than_block(self, disk):
        schema = Schema(
            [Column("k", ColumnType.INT64),
             Column("ts", ColumnType.TIMESTAMP),
             Column("payload", ColumnType.BLOB)],
            key=["k", "ts"],
        )
        rows = [(i, 10 + i, bytes([i]) * 5000) for i in range(5)]
        writer = TabletWriter(disk, schema, 1024, "zlib", 10)
        writer.write("t/big.lt", rows, tablet_id=1, created_at=0)
        reader = TabletReader(disk, "t/big.lt")
        assert list(reader.scan(KeyRange.all())) == rows
        assert reader.block_count == 5  # one oversized row per block


class TestSharedCodec:
    def test_opening_tablets_of_one_table_compiles_once(self, disk,
                                                        monkeypatch):
        """Every footer parse builds a fresh ``Schema``; they all share
        the bundle compiled for that schema *value*."""
        from repro.core import codec

        rows = make_rows()
        for index in range(5):
            write_tablet(disk, rows, filename=f"t/tab-{index}.lt")
        compiled = []
        build = codec._CompiledOps.__init__

        def counting(self, schema):
            compiled.append(schema)
            build(self, schema)

        monkeypatch.setattr(codec._CompiledOps, "__init__", counting)
        readers = [TabletReader(disk, f"t/tab-{index}.lt")
                   for index in range(5)]
        for reader in readers:
            assert list(reader.scan(KeyRange.all())) == rows
        assert len({id(reader.schema) for reader in readers}) == 5
        assert len(compiled) <= 1   # 0 when the writer's is still alive
        other = Schema(list(make_schema().columns), key=["net", "dev", "ts"],
                       version=2)
        assert codec.compiled_ops(other) is not \
            codec.compiled_ops(readers[0].schema)
