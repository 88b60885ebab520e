"""Workload runners, statistics and printers behind the figure
benchmarks.

Each runner drives the *real* engine (real encoding, tablets, merges)
against the simulated disk, then combines the disk model's time with
the calibrated server cost model to produce paper-comparable numbers.
See DESIGN.md §2 for why benchmark time is modeled rather than
wall-clock: the shapes are the engine's own behaviour; only the price
per seek/byte/row comes from the model.  Figures 7-10 are CDFs
(:func:`cdf_at`) and Figure 6 is a slope (:func:`linear_regression`);
percentiles come from the engine's own :func:`repro.obs.metrics.percentile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.config import EngineConfig
from repro.core.database import LittleTable
from repro.core.row import KeyRange, Query, TimeRange
from repro.core.table import Table
from repro.disk.model import DiskParameters, MIB
from repro.disk.vfs import SimulatedDisk
from repro.util.clock import MICROS_PER_SECOND, VirtualClock
from repro.util.xorshift import Xorshift64Star

from .costmodel import DEFAULT_COST_MODEL, ServerCostModel
from .rows import BenchRowGenerator, bench_schema

BENCH_EPOCH = 10_000 * 86_400_000_000  # a stable simulated "now"


def bench_config(**overrides) -> EngineConfig:
    """Engine config for microbenchmarks: no compression (input data
    is incompressible anyway, §5.1.1), no surprise merging."""
    defaults = dict(
        compression="none",
        merge_min_age_micros=90 * MICROS_PER_SECOND,
        bloom_filters=True,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_bench_db(config: Optional[EngineConfig] = None,
                  disk_params: Optional[DiskParameters] = None,
                  start: int = BENCH_EPOCH
                  ) -> Tuple[LittleTable, VirtualClock]:
    clock = VirtualClock(start=start)
    disk = SimulatedDisk(params=disk_params)
    db = LittleTable(disk=disk, config=config or bench_config(), clock=clock)
    return db, clock


# ------------------------------------------------------------- inserts

@dataclass
class InsertRunResult:
    """Modeled outcome of one insert workload."""

    row_size: int
    batch_bytes: int
    rows: int
    commands: int
    data_bytes: int
    cpu_s: float
    disk_s: float

    @property
    def total_s(self) -> float:
        return self.cpu_s + self.disk_s

    @property
    def throughput_mbps(self) -> float:
        return self.data_bytes / MIB / self.total_s

    def fraction_of_peak(self, peak_mbps: float = 120.0) -> float:
        return self.throughput_mbps / peak_mbps


def run_insert_workload(row_size: int, batch_bytes: int, total_bytes: int,
                        cost_model: ServerCostModel = DEFAULT_COST_MODEL,
                        config: Optional[EngineConfig] = None,
                        seed: int = 1) -> InsertRunResult:
    """Insert ~``total_bytes`` of ``row_size`` rows in batches.

    Reproduces the §5.1.2 single-writer setup: one client, one table,
    timestamps set to "now", data from a PRNG.
    """
    db, clock = make_bench_db(config)
    table = db.create_table("bench", bench_schema())
    generator = BenchRowGenerator(row_size, seed=seed, ts=clock.now())
    rows_per_batch = max(1, batch_bytes // row_size)
    rows_needed = max(1, total_bytes // row_size)
    disk_before = db.disk.stats.snapshot()
    commands = 0
    inserted = 0
    while inserted < rows_needed:
        count = min(rows_per_batch, rows_needed - inserted)
        table.insert_tuples(generator.batch(count))
        commands += 1
        inserted += count
        for memtable_id in list(table._flush_pending):
            table.flush_memtable(memtable_id)
    table.flush_all()
    disk_delta = db.disk.stats.delta_since(disk_before)
    data_bytes = inserted * row_size
    cpu_s = cost_model.insert_cpu_s(commands, inserted, data_bytes, row_size)
    return InsertRunResult(
        row_size=row_size, batch_bytes=batch_bytes, rows=inserted,
        commands=commands, data_bytes=data_bytes, cpu_s=cpu_s,
        disk_s=disk_delta.write_time_s,
    )


def run_multi_writer_workload(writers: int, row_size: int, batch_rows: int,
                              bytes_per_writer: int,
                              cost_model: ServerCostModel = DEFAULT_COST_MODEL
                              ) -> Tuple[float, float, float]:
    """§5.1.4: N writers, each into its own table.

    Returns (aggregate_mbps, cpu_s, disk_s).  CPU parallelizes across
    cores per the cost model's Amdahl fraction; disk time serializes
    with an interleave penalty.
    """
    db, clock = make_bench_db()
    disk_before = db.disk.stats.snapshot()
    total_rows = 0
    total_commands = 0
    for writer in range(writers):
        table = db.create_table(f"w{writer}", bench_schema())
        generator = BenchRowGenerator(row_size, seed=7, stream=writer,
                                      ts=clock.now())
        rows_needed = max(1, bytes_per_writer // row_size)
        inserted = 0
        while inserted < rows_needed:
            count = min(batch_rows, rows_needed - inserted)
            table.insert_tuples(generator.batch(count))
            total_commands += 1
            inserted += count
        table.flush_all()
        total_rows += inserted
    disk_delta = db.disk.stats.delta_since(disk_before)
    data_bytes = total_rows * row_size
    serial_cpu = cost_model.insert_cpu_s(total_commands, total_rows,
                                         data_bytes, row_size)
    cpu_s = cost_model.parallel_cpu_s(serial_cpu, writers)
    disk_s = (disk_delta.write_time_s
              * cost_model.disk_interleave_factor(writers))
    total_s = max(cpu_s, disk_s)  # CPU and disk overlap across writers
    return data_bytes / MIB / total_s, cpu_s, disk_s


# -------------------------------------------------------------- tables

def build_tabled_dataset(n_tablets: int, tablet_bytes: int, row_size: int,
                         config: Optional[EngineConfig] = None,
                         disk_params: Optional[DiskParameters] = None,
                         random_keys: bool = True,
                         seed: int = 3) -> Tuple[LittleTable, Table]:
    """Build a table with exactly ``n_tablets`` on-disk tablets.

    Each tablet gets its own timestamp instant so a query's ts bounds
    select any count of tablets (§5.1.6), and random keys interleave
    across tablets so full scans alternate between them (§5.1.5).
    """
    db, clock = make_bench_db(
        config or bench_config(flush_size_bytes=1 << 40,
                               max_merged_tablet_bytes=1 << 40,
                               merge_policy="never"),
        disk_params,
    )
    table = db.create_table("bench", bench_schema())
    rows_per_tablet = max(1, tablet_bytes // row_size)
    for index in range(n_tablets):
        ts = BENCH_EPOCH + index
        generator = BenchRowGenerator(row_size, seed=seed, stream=index,
                                      ts=ts, random_keys=random_keys)
        table.insert_tuples(generator.batch(rows_per_tablet))
        table.flush_all()
    assert len(table.on_disk_tablets) == n_tablets
    return db, table


# -------------------------------------------------------------- queries

@dataclass
class QueryRunResult:
    """Modeled outcome of one query scan."""

    rows: int
    bytes_read: int
    cpu_s: float
    disk_s: float
    first_row_disk_s: float

    @property
    def total_s(self) -> float:
        return self.cpu_s + self.disk_s

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.total_s if self.total_s else float("inf")

    def throughput_mbps(self, data_bytes: int) -> float:
        return data_bytes / MIB / self.total_s if self.total_s else 0.0


def run_query_scan(table: Table, query: Query,
                   cost_model: ServerCostModel = DEFAULT_COST_MODEL,
                   stop_after_rows: Optional[int] = None) -> QueryRunResult:
    """Scan a query, charging modeled disk + CPU time."""
    disk = table.disk
    before = disk.stats.snapshot()
    first_row_disk = 0.0
    rows = 0
    for _row in table.scan(query):
        if rows == 0:
            first_row_disk = disk.stats.delta_since(before).read_time_s
        rows += 1
        if stop_after_rows is not None and rows >= stop_after_rows:
            break
    delta = disk.stats.delta_since(before)
    cpu_s = cost_model.query_cpu_s(rows, delta.bytes_read)
    return QueryRunResult(rows=rows, bytes_read=delta.bytes_read,
                          cpu_s=cpu_s, disk_s=delta.read_time_s,
                          first_row_disk_s=first_row_disk)


def first_row_latency(table: Table, n_tablets: int, probe_seed: int,
                      cost_model: ServerCostModel = DEFAULT_COST_MODEL
                      ) -> float:
    """§5.1.6: latency to the first row of a random-key query whose ts
    bounds cover ``n_tablets`` tablets.  Returns modeled seconds."""
    return _probe_first_row(table, n_tablets, probe_seed, cost_model)


def first_row_latency_cold(table: Table, n_tablets: int, probe_seed: int,
                           cost_model: ServerCostModel = DEFAULT_COST_MODEL
                           ) -> float:
    """Like :func:`first_row_latency` after a full cold start: page
    cache dropped AND in-memory footers evicted (a server restart).
    This is Figure 6's "first query"; re-probing the same table with
    :func:`first_row_latency` is its "second query"."""
    table.disk.drop_caches()
    table.evict_reader_cache()
    return _probe_first_row(table, n_tablets, probe_seed, cost_model)


def _probe_first_row(table: Table, n_tablets: int, probe_seed: int,
                     cost_model: ServerCostModel) -> float:
    rng = Xorshift64Star(seed=probe_seed)
    probe_key = (rng.next_u32() & 0x7FFFFFFF,)
    query = Query(
        KeyRange(min_prefix=probe_key),
        TimeRange.between(BENCH_EPOCH, BENCH_EPOCH + n_tablets - 1),
    )
    disk = table.disk
    before = disk.stats.snapshot()
    for _row in table.scan(query):
        break
    delta = disk.stats.delta_since(before)
    return delta.read_time_s + cost_model.query_cpu_s(1, delta.bytes_read)


# ---------------------------------------------------------- statistics

def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of ``values`` that are <= ``threshold``."""
    if not values:
        raise ValueError("cdf of empty sequence")
    return sum(1 for v in values if v <= threshold) / len(values)


def linear_regression(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y = slope * x + intercept``.

    Returns ``(slope, intercept)``.  Used to reproduce Figure 6's
    ms-per-tablet slopes.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ValueError("regression needs at least two points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise ValueError("regression undefined for constant x")
    slope = cov / var
    return slope, mean_y - slope * mean_x


# ------------------------------------------------------------ printing

def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table for benchmark stdout."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def print_figure(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> None:
    print()
    print(f"=== {title} ===")
    print(format_table(headers, rows))


# ----------------------------------------------- Figure 3: merge impact

@dataclass
class MergeImpactResult:
    """Outcome of the §5.1.3 insert-throughput-under-merging run.

    ``samples`` are (modeled_time_s, window_throughput_MBps) points;
    ``merge_events`` are the modeled times at which merges ran - the
    impulses along Figure 3's x-axis.
    """

    samples: List[Tuple[float, float]]
    merge_events: List[float]
    total_bytes: int
    duration_s: float
    write_amplification: float
    backlog_peak: int

    def mean_mbps(self, t0: float, t1: float) -> float:
        """Average throughput over the window [t0, t1)."""
        chosen = [mbps for t, mbps in self.samples if t0 <= t < t1]
        if not chosen:
            return 0.0
        return sum(chosen) / len(chosen)


def run_merge_impact(total_bytes: int = 192 * MIB,
                     row_size: int = 4096,
                     batch_bytes: int = 64 * 1024,
                     flush_bytes: int = 1 * MIB,
                     max_merged_bytes: int = 8 * MIB,
                     backlog_limit: int = 100,
                     merge_delay_s: float = 1.5,
                     window_s: float = 0.25,
                     cost_model: ServerCostModel = DEFAULT_COST_MODEL
                     ) -> MergeImpactResult:
    """Reproduce Figure 3 on a two-resource modeled timeline.

    The paper inserts 16 GB with 16 MB flushes, a 128 MB merged-tablet
    cap, a 100-tablet flush backlog limit, and a 90 s merge delay; we
    scale bytes and the delay down together (DESIGN.md §2) so the same
    dynamics - CPU-bound burst, backlog-limited disk-bound phase,
    merge onset, equilibrium - play out in a tractable run.  The
    engine does the real inserts, flushes, and merges; the timeline
    prices them: insert CPU advances simulated time, flush and merge
    I/O occupy a single disk resource, and inserts stall when the
    flush backlog hits the limit.
    """
    import heapq

    config = bench_config(
        flush_size_bytes=flush_bytes,
        max_merged_tablet_bytes=max_merged_bytes,
        merge_min_age_micros=int(merge_delay_s * MICROS_PER_SECOND),
    )
    db, clock = make_bench_db(config)
    table = db.create_table("bench", bench_schema())
    generator = BenchRowGenerator(row_size, seed=5, ts=clock.now())
    rows_per_batch = max(1, batch_bytes // row_size)
    rows_needed = max(1, total_bytes // row_size)
    batch_cpu_s = cost_model.insert_cpu_s(
        1, rows_per_batch, rows_per_batch * row_size, row_size)

    sim_t = 0.0
    disk_free = 0.0
    flush_finish_heap: List[float] = []
    backlog_peak = 0
    merge_events: List[float] = []
    progress: List[Tuple[float, int]] = [(0.0, 0)]
    inserted = 0

    def set_engine_clock() -> None:
        clock.set(BENCH_EPOCH + int(sim_t * MICROS_PER_SECOND))

    def drain_backlog(now_s: float) -> int:
        while flush_finish_heap and flush_finish_heap[0] <= now_s:
            heapq.heappop(flush_finish_heap)
        return len(flush_finish_heap)

    def run_disk_jobs() -> None:
        """Schedule pending flushes; run merges while the disk idles."""
        nonlocal disk_free, backlog_peak
        set_engine_clock()
        while table.flush_pending_count:
            memtable_id = table._flush_pending[0]
            io_before = db.disk.stats.snapshot()
            table.flush_memtable(memtable_id)
            io_s = db.disk.stats.delta_since(io_before).write_time_s
            start = max(sim_t, disk_free)
            disk_free = start + io_s
            heapq.heappush(flush_finish_heap, disk_free)
        backlog_peak = max(backlog_peak, drain_backlog(sim_t))
        # The merge thread's I/O queues on the same disk as flushes -
        # the §5.1.3 competition that slows inserts down.
        while True:
            io_before = db.disk.stats.snapshot()
            plan = table.maybe_merge()
            if plan is None:
                break
            delta = db.disk.stats.delta_since(io_before)
            merge_io_s = delta.write_time_s + delta.read_time_s
            start = max(sim_t, disk_free)
            merge_events.append(start)
            disk_free = start + merge_io_s

    while inserted < rows_needed:
        count = min(rows_per_batch, rows_needed - inserted)
        set_engine_clock()
        table.insert_tuples(generator.batch(count))
        inserted += count
        sim_t += batch_cpu_s * (count / rows_per_batch)
        run_disk_jobs()
        # Backlog limit: block inserts until flushes complete (§5.1.3).
        while drain_backlog(sim_t) >= backlog_limit:
            sim_t = flush_finish_heap[0]
            run_disk_jobs()
        progress.append((sim_t, inserted * row_size))

    duration = max(sim_t, disk_free)
    samples: List[Tuple[float, float]] = []
    window_start = 0.0
    window_bytes_start = 0
    for t, total in progress:
        while t >= window_start + window_s:
            window_end = window_start + window_s
            samples.append((
                window_start,
                (total - window_bytes_start) / MIB / window_s,
            ))
            window_start = window_end
            window_bytes_start = total
    flushed = table.counters.bytes_flushed
    merged = table.counters.bytes_merge_written
    amplification = (flushed + merged) / flushed if flushed else 0.0
    return MergeImpactResult(
        samples=samples, merge_events=merge_events,
        total_bytes=inserted * row_size, duration_s=duration,
        write_amplification=amplification, backlog_peak=backlog_peak,
    )
