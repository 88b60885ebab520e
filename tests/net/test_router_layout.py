"""A router's data directory names its shard count and placement rule.

A row's shard is its first key value's CRC32 modulo the shard count
(``shard_of``), so a directory written with one count cannot be read
with another, and one written by a router that placed rows by another
rule cannot be read at all.  ``ShardRouter(data_dir=...)`` writes
``router.json`` before any ``shard-NN`` directory and refuses, before
it writes or opens anything, a directory whose manifest disagrees or
that has shard directories but no manifest - in process and through
``ltdb serve``.
"""

import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import serve_main
from repro.core import (Column, ColumnType, KeyRange, LittleTable, Query,
                        Schema, ShardLayoutError, UnsupportedFormatError)
from repro.net.shard import MANIFEST, PLACEMENT, ShardRouter, shard_of
from repro.util.clock import MICROS_PER_DAY, VirtualClock

from ..conftest import load_old_placement_datadir

BASE = 10_000 * MICROS_PER_DAY
SRC = Path(__file__).resolve().parents[2] / "src"


def make_schema():
    return Schema(
        [Column("network", ColumnType.INT64),
         Column("device", ColumnType.INT64),
         Column("ts", ColumnType.TIMESTAMP),
         Column("n", ColumnType.INT64)],
        key=["network", "device", "ts"])


ROWS = [(network, device, BASE + i, i) for network in range(4)
        for device in range(4) for i in range(2)]


def files(root):
    """Every file under ``root`` with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def open_router(root, shards):
    return ShardRouter(shards=shards, data_dir=str(root),
                       clock=VirtualClock(start=BASE))


@pytest.fixture
def four_shard_dir(tmp_path):
    """A 4-shard directory holding ``ROWS`` in table ``t``, flushed."""
    root = tmp_path / "db"
    with open_router(root, 4) as router:
        router.create_table("t", make_schema()).insert_tuples(ROWS)
        router.flush_all()
    return root


def test_the_manifest_is_written_before_any_shard(tmp_path, monkeypatch):
    root = tmp_path / "db"
    opened = []
    real_open = LittleTable.open

    def open_shard(path, **kwargs):
        opened.append((path, (root / MANIFEST).exists()))
        return real_open(path, **kwargs)

    monkeypatch.setattr(LittleTable, "open", open_shard)
    open_router(root, 3).close()
    assert opened == [(f"{root}/shard-{i:02d}", True) for i in range(3)]
    assert json.loads((root / MANIFEST).read_text()) == {
        "placement": PLACEMENT, "shards": 3}


def test_the_same_count_reopens_and_serves_every_row(four_shard_dir):
    with open_router(four_shard_dir, 4) as router:
        assert sorted(router.table("t").scan(Query())) == ROWS


@pytest.mark.parametrize("shards", [2, 8])
def test_another_shard_count_is_refused(four_shard_dir, shards):
    """Before the manifest, 2 shards served 16 of the 32 rows without
    an error, and 8 raised ``NoSuchTableError`` from the new shards."""
    before = files(four_shard_dir)
    with pytest.raises(ShardLayoutError,
                       match=f"holds 4 shard\\(s\\); opening it with "
                             f"{shards} "):
        open_router(four_shard_dir, shards)
    assert files(four_shard_dir) == before


def test_ltdb_serve_exits_2_naming_both_counts(four_shard_dir):
    before = files(four_shard_dir)
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--data",
         str(four_shard_dir), "--shards", "8", "--port", "0"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("serve: ")
    assert "holds 4 shard(s); opening it with 8 " in done.stderr
    assert files(four_shard_dir) == before


def test_a_directory_from_the_old_placement_is_refused(tmp_path, capsys):
    """The fixture's router hashed (network, device): each network's
    rows are split across both shards, which no first-column pin can
    read back."""
    root = tmp_path / "db"
    rows = load_old_placement_datadir(root)["usage"]
    holders = {}
    for index in range(2):
        with LittleTable.open(str(root / f"shard-{index:02d}")) as shard:
            for row in shard.table("usage").scan(Query()):
                holders.setdefault(row[0], set()).add(index)
    assert holders == {0: {0, 1}, 1: {0, 1}}
    assert len(rows) == 16
    before = files(root)
    with pytest.raises(UnsupportedFormatError, match=f"no {MANIFEST}"):
        open_router(root, 2)
    assert files(root) == before
    assert serve_main(["--data", str(root), "--shards", "2",
                       "--port", "0"]) == 2
    assert capsys.readouterr().err.startswith("serve: unsupported format: ")
    assert files(root) == before


def test_another_placement_rule_is_refused(four_shard_dir):
    manifest = four_shard_dir / MANIFEST
    manifest.write_text(json.dumps({"placement": "crc32-leading-columns",
                                    "shards": 4}))
    with pytest.raises(UnsupportedFormatError, match="crc32-leading"):
        open_router(four_shard_dir, 4)


class Network(enum.IntEnum):
    ONE = 1
    TWO = 2
    FOUR = 4


class Label(str):
    pass


def test_a_subclass_value_routes_with_its_plain_value():
    """Placement by ``repr`` sent a row keyed by ``Network.ONE`` to
    another shard than a read of ``1`` was pinned to, and the read
    found nothing."""
    for shards in range(1, 9):
        for member in Network:
            assert shard_of(member, shards) == shard_of(member.value, shards)
            assert shard_of(member, shards, by_time=True) == \
                shard_of(member.value, shards, by_time=True)
        assert shard_of(Label("hq"), shards) == shard_of("hq", shards)
    with ShardRouter(shards=4, clock=VirtualClock(start=BASE)) as router:
        table = router.create_table("t", make_schema())
        table.insert_tuples([(member, 1, BASE, member.value)
                             for member in Network])
        for member in Network:
            assert table.latest((member.value, 1))[3] == member.value
            assert table.query(Query(KeyRange.prefix(
                (member.value,)))).rows == [(member, 1, BASE, member.value)]
        counters = router.metrics.snapshot()["counters"]
        assert counters.get("shard.scatter_queries", 0) == 0
