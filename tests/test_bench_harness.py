"""Tests for the benchmark harness and cost model (``benchmarks.harness``,
``benchmarks.costmodel``).

The figure benchmarks assert paper shapes; these tests pin down the
harness mechanics at small scale so benchmark regressions can be told
apart from engine regressions.
"""

import pytest

from benchmarks.costmodel import DEFAULT_COST_MODEL, ServerCostModel
from benchmarks.harness import (
    BENCH_EPOCH,
    bench_config,
    build_tabled_dataset,
    first_row_latency,
    first_row_latency_cold,
    format_table,
    run_insert_workload,
    run_merge_impact,
    run_multi_writer_workload,
    run_query_scan,
)
from repro.core import Query

KIB = 1024
MIB = 1024 * 1024


class TestCostModel:
    def test_insert_cpu_grows_with_each_dimension(self):
        model = ServerCostModel()
        base = model.insert_cpu_s(10, 1000, 128_000, 128)
        assert model.insert_cpu_s(20, 1000, 128_000, 128) > base
        assert model.insert_cpu_s(10, 2000, 128_000, 128) > base
        assert model.insert_cpu_s(10, 1000, 256_000, 128) > base

    def test_oversize_rows_cost_more(self):
        model = ServerCostModel()
        normal = model.insert_cpu_s(1, 10, 40_960, 4096)
        oversize = model.insert_cpu_s(1, 10, 40_960 * 8, 32_768) / 8
        assert oversize > normal

    def test_parallel_cpu_amdahl(self):
        model = ServerCostModel()
        serial = 10.0
        assert model.parallel_cpu_s(serial, 1) == serial
        two = model.parallel_cpu_s(serial, 2)
        many = model.parallel_cpu_s(serial, 32)
        assert many < two < serial
        # Bounded below by the serial fraction.
        assert many >= serial * model.multi_writer_serial_fraction

    def test_disk_interleave_factor(self):
        model = ServerCostModel()
        assert model.disk_interleave_factor(1) == 1.0
        assert model.disk_interleave_factor(32) > 1.0

    def test_query_cpu(self):
        model = ServerCostModel()
        assert model.query_cpu_s(0, 0) == 0.0
        assert model.query_cpu_s(1000, 128_000) > 0


class TestInsertRunner:
    def test_counts_and_bytes(self):
        result = run_insert_workload(128, 4 * KIB, 64 * KIB)
        assert result.rows == 512
        assert result.commands == 16
        assert result.data_bytes == 512 * 128
        assert result.disk_s > 0
        assert result.cpu_s > 0
        assert 0 < result.throughput_mbps < 120

    def test_bigger_batches_are_faster(self):
        small = run_insert_workload(128, 512, 64 * KIB)
        large = run_insert_workload(128, 16 * KIB, 64 * KIB)
        assert large.throughput_mbps > small.throughput_mbps

    def test_fraction_of_peak(self):
        result = run_insert_workload(128, 64 * KIB, 64 * KIB)
        assert result.fraction_of_peak() == pytest.approx(
            result.throughput_mbps / 120)


class TestMultiWriter:
    def test_more_writers_more_throughput(self):
        one, _cpu, _disk = run_multi_writer_workload(1, 128, 32, 128 * KIB)
        four, _cpu, _disk = run_multi_writer_workload(4, 128, 32, 128 * KIB)
        assert four > one


class TestDatasetBuilder:
    def test_exact_tablet_count(self):
        db, table = build_tabled_dataset(5, 64 * KIB, 128)
        assert len(table.on_disk_tablets) == 5

    def test_tablets_have_distinct_timespans(self):
        db, table = build_tabled_dataset(4, 32 * KIB, 128)
        spans = {(t.min_ts, t.max_ts) for t in table.on_disk_tablets}
        assert len(spans) == 4


class TestQueryRunner:
    def test_scan_counts_all_rows(self):
        db, table = build_tabled_dataset(2, 64 * KIB, 128)
        result = run_query_scan(table, Query())
        assert result.rows == table.row_count_estimate()
        assert result.total_s > 0

    def test_stop_after_rows(self):
        db, table = build_tabled_dataset(2, 64 * KIB, 128)
        result = run_query_scan(table, Query(), stop_after_rows=10)
        assert result.rows == 10

    def test_first_row_latency_cold_exceeds_warm(self):
        db, table = build_tabled_dataset(4, 256 * KIB, 128)
        cold = first_row_latency_cold(table, 4, probe_seed=1)
        warm = first_row_latency(table, 4, probe_seed=2)
        assert cold > warm > 0


class TestMergeImpact:
    def test_small_run_has_all_phases(self):
        result = run_merge_impact(
            total_bytes=24 * MIB, flush_bytes=256 * KIB,
            max_merged_bytes=2 * MIB, backlog_limit=10,
            merge_delay_s=0.1, window_s=0.1)
        assert result.samples
        assert result.merge_events  # merging did happen
        assert result.write_amplification > 1.0
        assert result.backlog_peak >= 10
        assert result.duration_s > 0
        # Time axis is increasing and bytes conserved.
        times = [t for t, _m in result.samples]
        assert times == sorted(times)
        assert result.total_bytes == 24 * MIB


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1
