"""Robustness against on-disk corruption.

The engine must turn damaged tablets and descriptors into
:class:`CorruptTabletError`, never into silent wrong answers or
uncontrolled exceptions.
"""

from dataclasses import replace

import pytest

from repro.core import CorruptTabletError, LittleTable, Query
from repro.core.descriptor import TableDescriptor
from repro.core.errors import SUPPORTED_FORMAT, UnsupportedFormatError
from repro.core.recovery import verify_tablet_file
from repro.core.row import KeyRange, TimeRange
from repro.core.tablet import (CHECKSUM_MAGIC, CHECKSUM_TRAILER_BYTES,
                               TabletReader)
from repro.disk import MemoryStorage, SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, VirtualClock
from repro.util.xorshift import Xorshift64Star

from ..conftest import usage_schema

BASE = 10_000 * MICROS_PER_DAY


def build_table(clock):
    db = LittleTable(disk=SimulatedDisk(), clock=clock)
    table = db.create_table("t", usage_schema())
    table.insert([
        {"network": 1, "device": d, "ts": clock.now() + d, "bytes": d,
         "rate": 0.0}
        for d in range(50)
    ])
    table.flush_all()
    return db, table


def corrupt_file(disk, name, offset, length=8):
    """Flip bits in a byte range of a stored file."""
    data = bytearray(disk.storage.read_all(name))
    for index in range(offset, min(offset + length, len(data))):
        data[index] ^= 0xFF
    disk.storage.delete(name)
    disk.storage.write_file(name, bytes(data))
    disk.model.release(name)
    disk.model.allocate(name, len(data))


class TestTabletCorruption:
    @pytest.fixture
    def world(self):
        clock = VirtualClock(start=BASE)
        return build_table(clock)

    def test_corrupt_trailer_detected(self, world):
        db, table = world
        filename = table.on_disk_tablets[0].filename
        size = db.disk.size(filename)
        corrupt_file(db.disk, filename, size - 16, 16)
        table.evict_reader_cache()
        reader = TabletReader(db.disk, filename)
        with pytest.raises(CorruptTabletError):
            reader.ensure_loaded()

    def test_corrupt_footer_detected(self, world):
        db, table = world
        filename = table.on_disk_tablets[0].filename
        size = db.disk.size(filename)
        corrupt_file(db.disk, filename, size - 64, 32)
        table.evict_reader_cache()
        reader = TabletReader(db.disk, filename)
        with pytest.raises(CorruptTabletError):
            reader.ensure_loaded()

    def test_corrupt_block_detected_with_compression(self, world):
        db, table = world
        filename = table.on_disk_tablets[0].filename
        corrupt_file(db.disk, filename, 4, 8)  # inside block 0
        table.evict_reader_cache()
        reader = TabletReader(db.disk, filename)
        reader.ensure_loaded()  # footer itself is fine
        with pytest.raises(CorruptTabletError):
            list(reader.scan(KeyRange.all()))

    def test_truncated_file_detected(self, world):
        db, table = world
        filename = table.on_disk_tablets[0].filename
        data = db.disk.storage.read_all(filename)
        db.disk.storage.delete(filename)
        db.disk.storage.write_file(filename, data[:10])
        db.disk.model.release(filename)
        db.disk.model.allocate(filename, 10)
        table.evict_reader_cache()
        reader = TabletReader(db.disk, filename)
        with pytest.raises(CorruptTabletError):
            reader.ensure_loaded()

    def test_many_random_corruptions_never_return_garbage(self):
        """Property: any single 8-byte corruption either leaves the
        data readable-and-identical or raises CorruptTabletError -
        never a silently different result set.

        Quarantine is disabled so each trial can restore the pristine
        file in place; with it on (the default) the first detection
        would move the file and drop it from the descriptor, which has
        its own tests in test_crash_recovery.py.
        """
        from repro.core import EngineConfig

        clock = VirtualClock(start=BASE)
        db = LittleTable(disk=SimulatedDisk(), clock=clock,
                         config=EngineConfig(quarantine_on_corruption=False))
        table = db.create_table("t", usage_schema())
        table.insert([
            {"network": 1, "device": d, "ts": clock.now() + d, "bytes": d,
             "rate": 0.0}
            for d in range(50)
        ])
        table.flush_all()
        filename = table.on_disk_tablets[0].filename
        pristine = db.disk.storage.read_all(filename)
        expected = table.query(Query()).rows
        rng = Xorshift64Star(seed=77)
        size = len(pristine)
        for _trial in range(25):
            offset = rng.next_below(size)
            corrupt_file(db.disk, filename, offset, 8)
            table.evict_reader_cache()
            try:
                got = table.query(Query()).rows
            except CorruptTabletError:
                got = None
            if got is not None:
                # Payload bytes may flip inside a 'bytes'/'rate' value
                # without structural damage; keys and row count must
                # still be intact or an error must have been raised.
                assert len(got) == len(expected)
                assert [r[:3] for r in got] == [r[:3] for r in expected] \
                    or got != expected
            # Restore the pristine file for the next trial.
            db.disk.storage.delete(filename)
            db.disk.storage.write_file(filename, pristine)
            db.disk.model.release(filename)
            db.disk.model.allocate(filename, size)
            table.evict_reader_cache()


def _with_trailer_word(data, index, value):
    """``data`` with one 8-byte word of its 24-byte trailer replaced."""
    at = len(data) - CHECKSUM_TRAILER_BYTES + 8 * index
    return data[:at] + value.to_bytes(8, "little") + data[at + 8:]


DAMAGED_TAILS = [
    ("intact", lambda data: data, None, None),
    # The shape every pre-v2.1 file has: refused, not damage.
    ("legacy 16-byte trailer", lambda data: data[:-8],
     f"pre-v2.1 16-byte trailer (no {CHECKSUM_MAGIC.decode()} magic); "
     f"{SUPPORTED_FORMAT}", UnsupportedFormatError),
    ("short file", lambda data: data[-10:], "too small (10 bytes)",
     CorruptTabletError),
    ("bad offset",
     lambda data: _with_trailer_word(data, 1, len(data) + 100),
     "bad trailer", CorruptTabletError),
    ("zero footer size", lambda data: _with_trailer_word(data, 0, 0),
     "bad trailer", CorruptTabletError),
    ("wrong footer CRC",
     lambda data: data[:-8] + bytes([data[-8] ^ 0xFF]) + data[-7:],
     "footer checksum mismatch", CorruptTabletError),
]


class TestOneFooterReader:
    """The read path and the startup scrub locate and check a footer
    with the same code, so they give the same verdict on every tail:
    a damaged tail is a problem the scrub reports, an old format one
    both refuse."""

    @pytest.mark.parametrize("damage,problem,error",
                             [case[1:] for case in DAMAGED_TAILS],
                             ids=[case[0] for case in DAMAGED_TAILS])
    def test_reader_and_scrub_agree(self, damage, problem, error):
        db, table = build_table(VirtualClock(start=BASE))
        meta = table.on_disk_tablets[0]
        data = db.disk.storage.read_all(meta.filename)
        assert data[-4:] == CHECKSUM_MAGIC
        damaged = damage(data)
        db.disk.write_file("damaged.lt", damaged)
        reader = TabletReader(db.disk, "damaged.lt")
        damaged_meta = replace(meta, filename="damaged.lt",
                               size_bytes=len(damaged))
        if problem is None:
            reader.ensure_loaded()
            assert reader.row_count == meta.row_count
        else:
            with pytest.raises(error) as caught:
                reader.ensure_loaded()
            assert str(caught.value) == f"damaged.lt: {problem}"
        if error is UnsupportedFormatError:
            with pytest.raises(UnsupportedFormatError) as scrubbed:
                verify_tablet_file(db.disk.storage, damaged_meta)
            assert str(scrubbed.value) == f"damaged.lt: {problem}"
        else:
            assert verify_tablet_file(db.disk.storage,
                                      damaged_meta) == problem


def _read_query(table):
    return table.query(Query()).rows


def _read_latest(table):
    return table.latest((1,))


def _read_aggregate(table):
    from repro.core.vector import AggregateSpec

    return table.aggregate_partials(AggregateSpec(
        key_range=KeyRange.all(), time_range=TimeRange.all(),
        group_indexes=(), bucket_width=None,
        aggregates=(("COUNT", None),), residuals=())).groups


def two_tablets(merge_policy="never", **config):
    """Two flushed tablets of 50 devices each, the newer one (the one
    ``latest()`` opens first) damaged inside block 0."""
    from repro.core import EngineConfig

    clock = VirtualClock(start=BASE)
    db = LittleTable(disk=SimulatedDisk(), clock=clock,
                     config=EngineConfig(merge_policy=merge_policy,
                                         **config))
    table = db.create_table("t", usage_schema())
    for batch in range(2):
        table.insert([
            {"network": 1, "device": d, "ts": clock.now() + d,
             "bytes": d, "rate": 0.0}
            for d in range(batch * 50, batch * 50 + 50)])
        table.flush_all()
    victim = table.on_disk_tablets[1].filename
    corrupt_file(db.disk, victim, 4, 8)
    table.evict_reader_cache()
    return db, table, victim


class TestReadPathIsolation:
    """Every read goes through the read plan's guard, so corruption
    met by any of them is isolated the same way."""

    @pytest.mark.parametrize("read", [_read_query, _read_latest,
                                      _read_aggregate])
    def test_first_read_quarantines_second_serves(self, read):
        db, table, victim = two_tablets()
        quarantined = db.metrics.counter("storage.quarantined_tablets")
        with pytest.raises(CorruptTabletError):
            read(table)
        assert quarantined.value == 1
        assert db.disk.exists(f"quarantine/{victim}")
        assert [t.filename for t in table.on_disk_tablets] != [victim]
        assert len(table.on_disk_tablets) == 1
        read(table)  # served from the remaining tablet
        assert quarantined.value == 1
        assert table._pending_deletes == []

    @pytest.mark.parametrize("read", [_read_query, _read_latest,
                                      _read_aggregate])
    def test_quarantine_disabled_raises_every_time(self, read):
        db, table, victim = two_tablets(quarantine_on_corruption=False)
        for _attempt in range(2):
            with pytest.raises(CorruptTabletError):
                read(table)
        assert db.metrics.counter("storage.quarantined_tablets").value == 0
        assert db.disk.exists(victim)
        assert len(table.on_disk_tablets) == 2


class TestMergeIsolation:
    """A merge reads its sources' blocks itself, around the read
    plan's guard.  It isolates a damaged source all the same: the
    policy chooses by size and age, so it would choose the same run
    on every tick and the table would never merge again."""

    MERGING = dict(merge_policy="adjacent-half", merge_min_age_micros=0,
                   merge_rollover_delay_fraction=0.0)

    def test_first_tick_quarantines_second_is_clean(self):
        db, table, victim = two_tablets(**self.MERGING)
        errors = db.metrics.counter("maintenance.errors")
        quarantined = db.metrics.counter("storage.quarantined_tablets")
        report = db.maintenance()
        assert report.errors == [
            f"t: merge: ChecksumError: {victim}: block 0 checksum mismatch"]
        assert (errors.value, quarantined.value) == (1, 1)
        assert db.disk.exists(f"quarantine/{victim}")
        assert not db.disk.exists(victim)
        assert db.maintenance().errors == []
        assert (errors.value, quarantined.value) == (1, 1)
        assert [row[1] for row in table.query(Query()).rows] \
            == list(range(50))

    def test_quarantine_disabled_raises_every_tick(self):
        db, table, victim = two_tablets(quarantine_on_corruption=False,
                                        **self.MERGING)
        for tick in range(1, 3):
            assert len(db.maintenance().errors) == 1
            assert db.metrics.counter("maintenance.errors").value == tick
        assert db.metrics.counter("storage.quarantined_tablets").value == 0
        assert db.disk.exists(victim)
        assert len(table.on_disk_tablets) == 2

    def test_vanished_source_is_isolated_too(self):
        db, table, victim = two_tablets(**self.MERGING)
        db.disk.delete(victim)
        assert len(db.maintenance().errors) == 1
        assert [t.filename for t in table.on_disk_tablets] != [victim]
        assert len(table.on_disk_tablets) == 1
        assert db.maintenance().errors == []


class TestDescriptorCorruption:
    def test_corrupt_descriptor_fails_loudly_on_reopen(self):
        clock = VirtualClock(start=BASE)
        db, table = build_table(clock)
        path = table.descriptor.path()
        corrupt_file(db.disk, path, 2, 16)
        with pytest.raises(CorruptTabletError):
            LittleTable(disk=db.disk, clock=clock)

    def test_missing_tablet_file_fails_on_read(self):
        clock = VirtualClock(start=BASE)
        db, table = build_table(clock)
        filename = table.on_disk_tablets[0].filename
        db.disk.delete(filename)
        table.evict_reader_cache()
        from repro.disk import StorageError

        with pytest.raises((CorruptTabletError, StorageError)):
            table.query(Query())
