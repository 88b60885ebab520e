"""Tests for the synthetic production fleet (§5.2 calibration,
``benchmarks.fleet``)."""

import pytest

from benchmarks.fleet import (
    GIB,
    MONTH_MICROS,
    TIB,
    FleetSynthesizer,
)
from benchmarks.harness import cdf_at
from repro.obs.metrics import percentile
from repro.util.clock import MICROS_PER_WEEK


@pytest.fixture(scope="module")
def synth():
    return FleetSynthesizer(seed=2017)


@pytest.fixture(scope="module")
def shards(synth):
    return synth.shards(count=220)


@pytest.fixture(scope="module")
def tables():
    return FleetSynthesizer(seed=2017).tables(count=2700)


class TestShards:
    def test_deterministic(self):
        a = FleetSynthesizer(seed=1).shards(10)
        b = FleetSynthesizer(seed=1).shards(10)
        assert [(s.littletable_bytes, s.postgres_bytes) for s in a] == \
            [(s.littletable_bytes, s.postgres_bytes) for s in b]

    def test_totals_near_paper(self, shards):
        total_lt = sum(s.littletable_bytes for s in shards)
        total_pg = sum(s.postgres_bytes for s in shards)
        assert 250 * TIB <= total_lt <= 400 * TIB  # paper: 320 TB
        assert 10 * TIB <= total_pg <= 22 * TIB    # paper: 14 TB

    def test_caps_respected(self, shards):
        assert max(s.littletable_bytes for s in shards) <= 6.7 * TIB
        assert max(s.postgres_bytes for s in shards) <= 341 * GIB

    def test_ratio_about_twenty(self, shards):
        total_lt = sum(s.littletable_bytes for s in shards)
        total_pg = sum(s.postgres_bytes for s in shards)
        assert 15 <= total_lt / total_pg <= 25


class TestTables:
    def test_key_sizes(self, tables):
        keys = sorted(t.key_bytes for t in tables)
        assert 35 <= percentile(keys, 0.5) <= 60  # paper: 45 B
        assert max(keys) < 128

    def test_value_sizes(self, tables):
        values = sorted(t.value_bytes for t in tables)
        assert 40 <= percentile(values, 0.5) <= 90  # paper: 61 B
        assert 0.85 <= cdf_at(values, 1024) <= 0.95  # paper: 91%
        assert max(values) <= 75 * 1024

    def test_table_sizes(self, tables):
        sizes = sorted(t.size_bytes for t in tables)
        median_mb = percentile(sizes, 0.5) / (1024 * 1024)
        assert 500 <= median_mb <= 1400  # paper: 875 MB
        assert max(sizes) <= 704 * GIB

    def test_ttls_mostly_a_year_or_more(self, tables):
        ttls = sorted(t.ttl_micros for t in tables)
        assert 1.0 - cdf_at(ttls, 12 * MONTH_MICROS) >= 0.5
        assert cdf_at(ttls, MICROS_PER_WEEK) <= 0.1

    def test_batch_row_mix(self, tables):
        batches = sorted(t.batch_rows for t in tables)
        assert 0.15 <= cdf_at(batches, 1) <= 0.25      # bottom 20%: 1 row
        assert 1.0 - cdf_at(batches, 127) >= 0.45      # half >= 128 rows
        assert 1.0 - cdf_at(batches, 6000) >= 0.15     # top 20% > 6000


class TestLookbacks:
    def test_mostly_within_a_week(self, synth):
        looks = synth.query_lookbacks(count=5000)
        assert cdf_at(looks, MICROS_PER_WEEK) >= 0.88  # paper: >90%

    def test_has_forensic_tail(self, synth):
        looks = synth.query_lookbacks(count=5000)
        assert max(looks) > 13 * MONTH_MICROS
