"""Tests for the microbenchmark row generators (``benchmarks.rows``)."""

import pytest

from benchmarks.rows import (
    BenchRowGenerator,
    bench_schema,
    payload_size_for_row_size,
)
from repro.core.encoding import RowCodec


class TestBenchSchema:
    def test_six_key_columns(self):
        schema = bench_schema()
        assert schema.key_width == 6  # five ints + ts, as in §5.1.2
        assert schema.key[-1] == "ts"

    def test_payload_sizing(self):
        codec = RowCodec(bench_schema())
        for target in (64, 128, 512, 4096):
            generator = BenchRowGenerator(target, ts=1_000_000)
            row = generator.next_row()
            encoded = len(codec.encode_row(row))
            assert abs(encoded - target) <= 8, (target, encoded)

    def test_payload_size_minimum(self):
        assert payload_size_for_row_size(1) == 1


class TestGenerator:
    def test_deterministic(self):
        a = BenchRowGenerator(128, seed=5, ts=1).batch(10)
        b = BenchRowGenerator(128, seed=5, ts=1).batch(10)
        assert a == b

    def test_streams_do_not_collide(self):
        schema = bench_schema()
        a = BenchRowGenerator(128, seed=5, stream=0, ts=1).batch(50)
        b = BenchRowGenerator(128, seed=5, stream=1, ts=1).batch(50)
        keys_a = {schema.key_of(r) for r in a}
        keys_b = {schema.key_of(r) for r in b}
        assert not keys_a & keys_b

    def test_sequential_keys_ascend(self):
        schema = bench_schema()
        rows = BenchRowGenerator(128, ts=1).batch(100)
        keys = [schema.key_of(r) for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == 100

    def test_random_keys_are_not_sorted(self):
        schema = bench_schema()
        rows = BenchRowGenerator(128, ts=1, random_keys=True).batch(100)
        keys = [schema.key_of(r) for r in rows]
        assert keys != sorted(keys)
        assert len(set(keys)) == 100

    def test_rows_for_total_bytes(self):
        rows = list(BenchRowGenerator(128, ts=1).rows(1280))
        assert len(rows) == 10

    def test_rows_validate_against_schema(self):
        schema = bench_schema()
        for row in BenchRowGenerator(4096, ts=1).batch(5):
            schema.validate_row(row)

    def test_ts_override(self):
        generator = BenchRowGenerator(128, ts=100)
        assert generator.next_row()[5] == 100
        assert generator.next_row(ts=777)[5] == 777

    def test_payload_incompressible(self):
        import zlib

        rows = BenchRowGenerator(4096, ts=1).batch(16)
        blob = b"".join(r[6] for r in rows)
        assert len(zlib.compress(blob, 1)) > 0.99 * len(blob)
