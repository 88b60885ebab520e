"""Database-level catalog operations."""

import pytest

from repro.core import (
    LittleTable,
    NoSuchTableError,
    Query,
    TableExistsError,
)
from repro.disk import SimulatedDisk

from ..conftest import usage_schema


class TestCatalog:
    def test_create_and_lookup(self, db):
        table = db.create_table("t1", usage_schema())
        assert db.table("t1") is table
        assert db.has_table("t1")
        assert db.table_names() == ["t1"]

    def test_create_duplicate_rejected(self, db):
        db.create_table("t1", usage_schema())
        with pytest.raises(TableExistsError):
            db.create_table("t1", usage_schema())

    def test_bad_names_rejected(self, db):
        with pytest.raises(ValueError):
            db.create_table("", usage_schema())
        with pytest.raises(ValueError):
            db.create_table("a/b", usage_schema())

    def test_missing_table_raises(self, db):
        with pytest.raises(NoSuchTableError):
            db.table("ghost")

    def test_drop_missing_raises(self, db):
        with pytest.raises(NoSuchTableError):
            db.drop_table("ghost")

    def test_many_tables_isolated(self, db, clock):
        # The paper's shards hold ~270 tables; check a handful keep
        # their data separate.
        for index in range(10):
            table = db.create_table(f"t{index}", usage_schema())
            table.insert([{"network": index, "device": 0, "ts": clock.now(),
                           "bytes": index, "rate": 0.0}])
        for index in range(10):
            rows = db.table(f"t{index}").query(Query()).rows
            assert len(rows) == 1
            assert rows[0][0] == index

    def test_insert_helper(self, db, clock):
        db.create_table("t", usage_schema())
        db.table("t").insert([{"network": 1, "device": 1, "ts": clock.now(),
                               "bytes": 1, "rate": 0.0}])
        assert len(db.table("t").query(Query()).rows) == 1

    def test_reopen_discovers_tables(self, db, clock):
        table = db.create_table("persisted", usage_schema())
        table.insert([{"network": 1, "device": 1, "ts": clock.now(),
                       "bytes": 1, "rate": 0.0}])
        table.flush_all()
        reopened = LittleTable(disk=db.disk, config=db.config,
                               clock=db.clock)
        assert reopened.table_names() == ["persisted"]
        assert len(reopened.table("persisted").query(Query()).rows) == 1

    def test_flush_all_tables(self, db, clock):
        for index in range(3):
            table = db.create_table(f"t{index}", usage_schema())
            table.insert([{"network": 1, "device": 1, "ts": clock.now(),
                           "bytes": 1, "rate": 0.0}])
        db.flush_all()
        for index in range(3):
            assert db.table(f"t{index}").unflushed_memtable_count == 0
