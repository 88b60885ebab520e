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
    """The checked-in block-format-v1 data directory, on a fresh
    in-memory disk, plus the rows it holds as ``{table: [dict, ...]}``.

    Written once by the last commit that still had a v1 block writer
    (``EngineConfig(block_format_version=1)``): table ``mixed`` is
    ``test_codec_roundtrip.TestMixedFormatMerge``'s two v1 tablets,
    table ``usage`` the v1 third of ``test_vectorized_differential
    .build_mixed_db``'s seeded rows.  Nothing in the tree can
    regenerate it; it is data the reader must keep opening.
    """
    return _load_datadir(FIXTURES / "v1_datadir")


def load_v2_datadir():
    """The checked-in data directory of the last commit whose block
    writer emitted format v2 (PR 18), on a fresh in-memory disk:
    ``(disk, rows, manifest)``.  Nothing in the tree can regenerate it.

    Table ``mixed`` (this file's ``usage_schema()``) is ``v1_datadir``'s
    two v1 tablets as that engine inherited them plus two v2 tablets it
    flushed; ``rows`` holds all its rows.  Tables ``usage`` and
    ``events`` (``repro.dashboard.schemas``) are ten v2 tablets each of
    the benchmark's preload for networks 0-3; ``manifest["tables"]``
    records their row count, the sum of ``crc32(repr(row))`` over their
    rows, and the raw v2 size of those rows as sorted 2,000-row blocks
    and as insertion-order (timestamp-order) batches.
    """
    root = FIXTURES / "v2_datadir"
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
