"""Shared fixtures: schemas, clocks, and engine builders."""

import json
from pathlib import Path

import pytest

from repro.core import Column, ColumnType, EngineConfig, LittleTable, Schema
from repro.disk import SimulatedDisk
from repro.util.clock import MICROS_PER_DAY, VirtualClock

# A stable "now" far from the epoch: day 10,000 (2-Jan-1997), aligned to
# a week boundary plus a bit so period math is interesting.
BASE_TIME = 10_000 * MICROS_PER_DAY + 5 * 3_600_000_000


FIXTURES = Path(__file__).parent / "core" / "fixtures"


def _load_datadir(root):
    """A checked-in data directory on a fresh in-memory disk, plus the
    rows its ``rows.json`` records as ``{table: [dict, ...]}``."""
    disk = SimulatedDisk()
    for path in root.glob("tables/**/*"):
        if path.is_file():
            disk.write_file(path.relative_to(root).as_posix(),
                            path.read_bytes())
    recorded = json.loads((root / "rows.json").read_text())
    rows = {name: [dict(zip(recorded["columns"], row)) for row in table]
            for name, table in recorded["tables"].items()}
    return disk, rows


def load_v1_datadir():
    """The rows of the checked-in v1 data directory, as v3 tablets on a
    fresh in-memory disk, plus those rows as ``{table: [dict, ...]}``.

    ``fixtures/v1_datadir`` was written once by the last commit with a
    v1 block writer: table ``mixed`` two v1 tablets, table ``usage``
    the first third of ``test_vectorized_differential.build_mixed_db``'s
    seeded rows.  This engine refuses it (``test_old_formats.py``);
    ``fixtures/v3/v1_datadir`` is its copy, every tablet rewritten one
    for one as v3 by the last engine that still read v1 and checked row
    for row against ``rows.json``.
    """
    return _load_datadir(FIXTURES / "v3" / "v1_datadir")


def load_v2_datadir():
    """The rows of the checked-in v2 data directory, as v3 tablets on a
    fresh in-memory disk: ``(disk, rows, manifest)``.

    ``fixtures/v2_datadir`` was written by the last commit whose block
    writer emitted v2 (PR 18).  Table ``mixed`` (this file's
    ``usage_schema()``) is ``v1_datadir``'s two tablets plus two that
    engine flushed; ``rows`` holds all its rows.  Tables ``usage`` and
    ``events`` (``repro.dashboard.schemas``) are ten tablets each of
    the benchmark's preload for networks 0-3; ``manifest["tables"]``
    records their row count, the sum of ``crc32(repr(row))`` over their
    rows, and the raw v2 size of those rows as sorted 2,000-row blocks
    and as insertion-order (timestamp-order) batches.  This engine
    refuses the v2 bytes; ``fixtures/v3/v2_datadir`` is their copy,
    tablet for tablet, written once by the last engine that still read
    v2 and checked against ``rows.json`` and every ``row_crc_sum``.
    """
    root = FIXTURES / "v3" / "v2_datadir"
    disk, rows = _load_datadir(root)
    return disk, rows, json.loads((root / "manifest.json").read_text())


def usage_schema():
    """The paper's running example: (network, device, ts) -> counters."""
    return Schema(
        [
            Column("network", ColumnType.INT64),
            Column("device", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("bytes", ColumnType.INT64),
            Column("rate", ColumnType.DOUBLE),
        ],
        key=["network", "device", "ts"],
    )


def event_schema():
    """Event-log style schema with a string payload."""
    return Schema(
        [
            Column("network", ColumnType.INT64),
            Column("device", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("event_id", ColumnType.INT64),
            Column("contents", ColumnType.STRING),
        ],
        key=["network", "device", "ts"],
    )


def remote_table(client, name):
    """Table ``name``'s row operations over a bare client connection
    (the :class:`~repro.net.remote.RemoteTable` that ``repro.connect``
    hands out)."""
    from repro.net import RemoteDatabase

    return RemoteDatabase(client).table(name)


@pytest.fixture
def clock():
    return VirtualClock(start=BASE_TIME)


@pytest.fixture
def small_config():
    """Tiny flush/merge sizes so tests exercise multi-tablet paths."""
    return EngineConfig(
        block_size_bytes=1024,
        flush_size_bytes=16 * 1024,
        max_merged_tablet_bytes=256 * 1024,
        merge_min_age_micros=0,
        merge_rollover_delay_fraction=0.0,
        server_row_limit=100_000,
    )


@pytest.fixture
def db(clock, small_config):
    return LittleTable(disk=SimulatedDisk(), config=small_config, clock=clock)


@pytest.fixture
def usage_table(db):
    return db.create_table("usage", usage_schema())
