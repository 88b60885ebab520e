"""The four workloads: set-up, measured ops, checks.

Op counts are fixed by ``--seconds`` (so many per second of budget, at
rates sized on a 2-core box to fill it) and never by a deadline, so
with no threads in play the counts of bytes, flushes and merges repeat
exactly.  Set-up runs several times and the last one is measured on;
``setup_s`` is the median.

Every workload runs every op class, because the result schema is the
same for all four; they differ in where the time goes.  The first two
are listed in ``BENCHMARK.json``:

``ingest-wire``      closed loop over TCP into the 4-shard WAL server;
                     SIGKILL and recovery; page loads over the same wire
``dashboard-read``   embedded page loads over a preloaded, merged,
                     8-day history; then poll cycles with maintenance
                     inline; crash and prefix check
``ingest-embedded``  the same cycles straight into an empty
                     ``LittleTable`` (none tier, memory disk),
                     maintenance inline; crash and recovery; page loads
``mixed-wire``       open loop: a writer and a reader on two
                     connections, each op timed from its due time
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.core.database import LittleTable
from repro.core.row import KeyRange, Query, TimeRange
from repro.dashboard import views
from repro.dashboard.schemas import events_schema, usage_schema
from repro.disk.vfs import SimulatedDisk
from repro.sqlapi.executor import SqlSession
from repro.util.clock import (MICROS_PER_DAY, MICROS_PER_HOUR,
                              MICROS_PER_MINUTE, VirtualClock)

from . import config, gen, layers, trace

_clock = time.perf_counter
DEVICE_IDS = tuple(range(config.DEVICES))
CHECK_EVERY = 50            # every 50th read is compared with the oracle
SAMPLED_KEYS = 64           # point reads checked per run


class HostSpeed:
    """How fast the host lets this CPU run, probed between ops.

    The sandbox has a few cores of a shared host.  When a neighbour is
    busy, everything here takes 1.3 to 1.8 times as long, for seconds or
    minutes at a time, in CPU time as much as in wall time: a fixed
    Python loop took 0.38 to 0.70 s from one moment to the next, and a
    scan over the wire 9.6 or 16.5 ms.  ``probe`` times such a loop (a
    sixth of a millisecond, at most once in 5 ms, between ops and never
    inside one) in CPU time of its own thread, which neither the
    program's threads nor the child server can take from it.

    Every duration the end-to-end metrics are made of is divided by the
    slowdown around it: what the probes next to it cost, over
    ``REFERENCE_S``, what one costs on this sandbox left alone.  The
    numbers are therefore milliseconds at that speed, on any host;
    ``host.slowdown`` says how far this run's host was from it.
    """

    KERNEL = 1500
    GAP_S = 0.005
    REFERENCE_S = 82e-6

    def __init__(self) -> None:
        self.costs: List[float] = []
        self._next = 0.0

    def probe(self, now: bool = False) -> int:
        """Probe unless one ran in the last 5 ms (or ``now``); returns
        how many probes there have been."""
        if now or _clock() >= self._next:
            for _ in range(2):  # the first pass refills the loop's caches
                started = time.thread_time()
                x = 0
                for i in range(self.KERNEL):
                    x += i * i % 7
                cost = time.thread_time() - started
            self.costs.append(cost)
            self._next = _clock() + self.GAP_S
        return len(self.costs)

    def slowdown(self, first: int, last: Optional[int] = None) -> float:
        """Of the stretch that began after ``first`` probes and ended
        after ``last``: the mean cost of the probes around and inside
        it, over the reference."""
        near = self.costs[max(first - 1, 0):(first if last is None
                                             else last) + 1]
        return sum(near) / len(near) / self.REFERENCE_S if near else 1.0

    def fast(self) -> List[bool]:
        """Per probe: within a tenth of the run's best speed (its first
        decile), or at least among the fastest quarter of the run."""
        if not self.costs:
            return []
        ordered = sorted(self.costs)
        limit = max(ordered[len(ordered) // 10] * 1.1,
                    ordered[len(ordered) // 4])
        return [cost <= limit for cost in self.costs]


@dataclass
class Samples:
    """One op class: a value per op, and how many probes of the host's
    speed came before it (there is none inside an op)."""

    values: List[Any] = field(default_factory=list)
    probes: List[int] = field(default_factory=list)


@dataclass
class Tally:
    """Everything measured in one pass over a workload."""

    setup_s: List[float] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    # ms per op
    insert_ms: Samples = field(default_factory=Samples)
    latest_ms: Samples = field(default_factory=Samples)
    scan_ms: Samples = field(default_factory=Samples)
    agg_ms: Samples = field(default_factory=Samples)
    # (rows acked, seconds until the next cycle starts) per cycle and
    # (rows returned, seconds) per cold scan
    cycle_rate: Samples = field(default_factory=Samples)
    cold: Samples = field(default_factory=Samples)
    lag_ms: List[float] = field(default_factory=list)
    rows_acked: int = 0
    ingest_s: float = 0.0
    measured_s: float = 0.0
    op_seconds: float = 0.0         # sum of timed op latencies
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    slo_ops: int = 0
    slo_missed: int = 0
    user_bytes: int = 0             # sent, for write_amp
    written_bytes: int = 0
    stored_user_bytes: int = 0      # what the measured disk bytes hold
    disk_bytes: int = 0
    peak_rss_kb: int = 0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    tablets_final: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    disk: Dict[str, float] = field(default_factory=dict)
    records: List[tuple] = field(default_factory=list)
    cycle_intervals: List[Tuple[float, float]] = field(default_factory=list)
    read_intervals: List[Tuple[float, float]] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    # The open-loop workload updates these from two threads.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def sample(self, series: Samples, value: Any) -> None:
        series.values.append(value)
        series.probes.append(len(self.speed.costs))

    def set_up_took(self, seconds: float, first_probe: int) -> None:
        self.setup_s.append(seconds / self.speed.slowdown(
            first_probe, self.speed.probe(now=True)))

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """One correctness check; a failure counts as a failed op."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(what)

    def op(self, seconds: float, late: Optional[bool] = None) -> None:
        """One completed op; ``late`` says whether it missed its limit."""
        with self._lock:
            self.attempted += 1
            self.ops += 1
            self.op_seconds += seconds
            if late is not None:
                self.slo_ops += 1
                self.slo_missed += late

    def op_failed(self, what: str, open_loop: bool = False) -> None:
        """A failed or refused op also misses any latency limit."""
        with self._lock:
            self.attempted += 1
            self.slo_ops += open_loop
            self.slo_missed += open_loop
        self.fail(what)

    def keep_spans(self, records: List[Any]) -> None:
        """Keep the spans that ran inside a measured phase: the child
        server traces from its start, set-up and checks included."""
        self.records += [tuple(r) for r in records
                         if any(lo <= r[3] and r[4] <= hi
                                for lo, hi in self.windows)]

    def add_counters(self, counters: Dict[str, float],
                     disk: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in disk.items():
            self.disk[name] = self.disk.get(name, 0) + value


# ------------------------------------------------------------------ targets

CPUS = sorted(os.sched_getaffinity(0))


def pin() -> None:
    """Keep the run, and the child server it starts, on one CPU.

    Unpinned, the processes migrate and the same commit reads 18k or
    26k rows/s from one run to the next.  One CPU, not one each: with
    closed-loop clients the two sides alternate rather than overlap, a
    wake-up across CPUs on every round trip costs more than the second
    CPU gives (a wire ``device_status`` took 2.9 ms sharing a CPU and
    4.1 to 6.5 ms split), and the other CPU absorbs the rest of the box.
    """
    try:
        os.sched_setaffinity(0, {CPUS[-1]})
    except OSError:
        pass    # a sandbox that forbids it: run unpinned, and noisier


class Embedded:
    """One ``LittleTable`` on a memory-backed simulated disk."""

    wire = False

    def __init__(self) -> None:
        self.db = LittleTable(
            disk=SimulatedDisk(), config=config.engine_config(),
            clock=VirtualClock(start=config.TIMELINE_END))
        self.usage = self.db.create_table("usage", usage_schema())
        self.events = self.db.create_table("events", events_schema())
        self.sql = SqlSession(self.db)

    def between_cycles(self, index: int) -> None:
        # no timers and no threads: maintenance runs inline, so counts
        # and modeled-disk time repeat exactly
        if index % 16 == 15:
            self.db.maintenance()

    def server_cpu(self) -> float:
        return 0.0      # there is no other process

    def snapshot(self) -> Dict[str, Any]:
        return layers.engine_snapshot([self.db], self.db.metrics)


class Wire:
    """A child ``bench/serve.py`` and a client connection to it."""

    wire = True

    def __init__(self, workdir: Path, traced: bool, span_id_base: int):
        self.workdir = workdir
        self.traced = traced
        self.span_id_base = span_id_base
        self.data_dir = workdir / "data"
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)
        self.extra: List[Any] = []
        self.start()
        try:
            self.db = repro.connect(self.address)
            self.usage = self.db.create_table("usage", usage_schema())
            self.events = self.db.create_table("events", events_schema())
            self.sql = SqlSession(self.db)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._close_pipes()
            raise

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(config.ROOT / "bench" / "serve.py"),
             "--data-dir", str(self.data_dir),
             "--trace", str(int(self.traced)),
             "--span-id-base", str(self.span_id_base)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(config.ROOT))
        ready = self.proc.stdout.readline().split()
        if len(ready) != 3 or ready[0] != "READY":
            self.stop()
            raise RuntimeError(f"server did not start: {ready!r}")
        self.address = (ready[1], int(ready[2]))

    def reconnect(self) -> None:
        self.db = repro.connect(self.address)
        self.usage = self.db.table("usage")
        self.events = self.db.table("events")
        self.sql = SqlSession(self.db)

    def between_cycles(self, index: int) -> None:
        pass    # the child's per-engine schedulers run in the background

    def reader(self) -> "WireReader":
        reader = WireReader(self.address)
        self.extra.append(reader.db)
        return reader

    def command(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def dump(self) -> Dict[str, Any]:
        path = self.workdir / "dump.json"
        if self.command(f"dump {path}") != "DUMPED":
            raise RuntimeError("server did not dump")
        return json.loads(path.read_text())

    def digest(self) -> Dict[str, List[int]]:
        reply = self.command("digest")
        if not reply.startswith("DIGEST "):
            raise RuntimeError(f"server did not digest: {reply!r}")
        return json.loads(reply[len("DIGEST "):])

    def server_cpu(self) -> float:
        return self.proc_usage()[0]

    def proc_usage(self) -> Tuple[float, int]:
        """(CPU seconds, peak RSS KiB) of the child, from /proc."""
        pid = self.proc.pid
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        parts = fields.split()
        ticks = int(parts[11]) + int(parts[12])      # utime + stime
        peak = 0
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1])
        return ticks / os.sysconf("SC_CLK_TCK"), peak

    def kill(self) -> None:
        """SIGKILL the child: nothing it buffered in user space survives."""
        self.close_clients()
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close_pipes()
        self.proc = None

    def close_clients(self) -> None:
        for db in [self.db] + self.extra:
            db.close()
        self.extra = []

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def stop(self) -> None:
        """End of input is the child's signal to shut down cleanly."""
        if self.proc is None:
            return
        self.close_clients()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class WireReader:
    """A second connection, for the open-loop reader thread."""

    def __init__(self, address: Tuple[str, int]):
        self.db = repro.connect(address)
        self.usage = self.db.table("usage")
        self.sql = SqlSession(self.db)


# ---------------------------------------------------------------------- ops

def insert_cycle(target: Any, cycle: gen.Cycle, tally: Tally) -> int:
    usage, events = cycle
    acked = target.usage.insert_tuples(usage)
    acked += target.events.insert_tuples(events)
    if acked != len(usage) + len(events):
        tally.fail(f"insert acked {acked} of {len(usage) + len(events)} rows")
    return acked


def _cold_query(op: gen.ReadOp) -> Query:
    return Query(KeyRange.prefix((op.network,)),
                 TimeRange(min_ts=op.ts_min, max_ts=op.ts_max,
                           max_inclusive=False))


def _agg_sql(op: gen.ReadOp) -> str:
    width = 10 * MICROS_PER_MINUTE
    return (f"SELECT TIME_BUCKET(ts, {width}), COUNT(*), SUM(counter) "
            f"FROM usage WHERE network = {op.network} "
            f"AND ts >= {op.ts_min} AND ts < {op.ts_max} "
            f"GROUP BY TIME_BUCKET(ts, {width})")


def read_op(target: Any, op: gen.ReadOp) -> int:
    """Run one page-load op to completion; returns rows it consumed."""
    if op.kind == gen.LATEST:
        return len(views.device_status(
            target.usage, op.network, DEVICE_IDS, config.TIMELINE_END,
            offline_after_micros=config.LOOKBACK_MICROS))
    if op.kind == gen.SCAN:
        return len(views.usage_graph(target.usage, op.network,
                                     op.ts_min, op.ts_max))
    if op.kind == gen.AGG:
        return len(target.sql.execute(_agg_sql(op)).rows)
    return sum(1 for _ in target.usage.scan(_cold_query(op)))


def check_read(target: Any, op: gen.ReadOp, inputs: gen.Inputs,
               tally: Tally, acked: Callable[[], int],
               sent: Callable[[], int]) -> None:
    """Repeat ``op`` as a raw read and compare it with a pure-Python
    filter over the generated rows.  ``acked()`` usage rows were acked
    before the read begins and ``sent()`` have been sent once it ends;
    with a concurrent writer the answer may fall anywhere between."""
    sent_lo = acked()
    if op.kind == gen.LATEST:
        device = op.network % config.DEVICES
        row = target.usage.latest((op.network, device))
        sent_hi = sent()
        low = inputs.expected_latest(op.network, device, sent_lo)
        high = inputs.expected_latest(op.network, device, sent_hi)
        ok = (row == low or row == high or
              (row is not None and low is not None and high is not None
               and low[2] <= row[2] <= high[2]))
        tally.check(ok, f"latest({op.network},{device}) = {row!r}")
        return
    rows = list(target.usage.scan(_cold_query(op)))
    sent_hi = sent()
    need = inputs.expected_scan(op, sent_lo)
    if sent_lo == sent_hi:
        ok = rows == need
    else:
        allowed = set(inputs.expected_scan(op, sent_hi))
        got = set(rows)
        ok = set(need) <= got <= allowed and len(got) == len(rows)
    tally.check(ok, f"{op.kind} scan of network {op.network}: "
                    f"{len(rows)} rows, oracle {len(need)}")


def check_sampled_keys(target: Any, inputs: gen.Inputs, tally: Tally,
                       usage_rows: int, event_rows: int) -> None:
    """Point reads of evenly spaced sent rows, through the public API."""
    for table, oracle, count in ((target.usage, inputs.usage, usage_rows),
                                 (target.events, inputs.events, event_rows)):
        for i in range(SAMPLED_KEYS // 2 if count else 0):
            row = oracle.rows[(i * 7919 + inputs.seed) % count]
            found = table.query(Query(
                KeyRange.prefix(row[:2]),
                TimeRange(min_ts=row[2], max_ts=row[2]))).rows
            tally.check(found == [row], f"point read of {row[:3]!r}")


# -------------------------------------------------------------------- phases

PRELOAD_BATCH = 4           # cycles per insert call while preloading


def preload(target: Any, inputs: gen.Inputs, tally: Tally) -> None:
    """Set-up, not a measurement: larger batches than a poll cycle."""
    for first in range(0, len(inputs.preload), PRELOAD_BATCH):
        group = inputs.preload[first:first + PRELOAD_BATCH]
        insert_cycle(target, ([row for usage, _ in group for row in usage],
                              [row for _, events in group for row in events]),
                     tally)
        for index in range(first, first + len(group)):
            target.between_cycles(index)
        tally.speed.probe()


def warm_up(target: Any) -> None:
    """Fill lazy state (schema caches, compiled codecs, SQL parser) with
    reads that change nothing."""
    for _ in range(3):
        for kind in (gen.LATEST, gen.SCAN, gen.AGG):
            read_op(target, gen.ReadOp(kind, 0, 0, config.TIMELINE_END))


def ingest_closed(target: Any, inputs: gen.Inputs, tally: Tally) -> None:
    """Closed loop: the next cycle starts when the last one is acked."""
    started = _clock()
    for index, cycle in enumerate(inputs.cycles):
        t0 = _clock()
        acked = insert_cycle(target, cycle, tally)
        t1 = _clock()
        # Inline maintenance (embedded only) counts into the phase's
        # wall time, hence into rows per second, but is not part of any
        # one cycle: a caller would run it on a thread of its own.
        target.between_cycles(index)
        tally.rows_acked += acked
        tally.sample(tally.cycle_rate, (acked, _clock() - t0))
        tally.sample(tally.insert_ms, (t1 - t0) * 1e3)
        tally.cycle_intervals.append((t0, t1))
        tally.op(t1 - t0)
        tally.speed.probe()
    elapsed = _clock() - started
    tally.ingest_s += elapsed
    tally.measured_s += elapsed


def _record_read(tally: Tally, op: gen.ReadOp, rows: int,
                 seconds: float) -> None:
    if op.kind == gen.LATEST:
        tally.sample(tally.latest_ms, seconds * 1e3)
    elif op.kind == gen.SCAN:
        tally.sample(tally.scan_ms, seconds * 1e3)
    elif op.kind == gen.AGG:
        tally.sample(tally.agg_ms, seconds * 1e3)
    else:
        tally.sample(tally.cold, (rows, seconds))


def warm_reads(target: Any, inputs: gen.Inputs) -> None:
    """Touch what the page loads will touch, so that the timed loads
    find caches as a dashboard that has been open for a while does."""
    seen = set()
    for op in inputs.loads:
        if op.kind != gen.COLD and (op.kind, op.network) not in seen:
            seen.add((op.kind, op.network))
            read_op(target, op)


def reads_closed(target: Any, inputs: gen.Inputs, tally: Tally,
                 sent: int) -> None:
    """Closed-loop page loads; ``sent`` usage rows are in the table."""
    started = _clock()
    unchecked = 0.0
    for index, op in enumerate(inputs.loads):
        tally.speed.probe()
        t0 = _clock()
        try:
            rows = read_op(target, op)
        except Exception as exc:        # a failed op is a result, not a crash
            tally.op_failed(f"{op.kind} read raised {exc!r}")
            continue
        t1 = _clock()
        _record_read(tally, op, rows, t1 - t0)
        tally.read_intervals.append((t0, t1))
        tally.op(t1 - t0)
        if index % CHECK_EVERY == 0:
            check_read(target, op, inputs, tally, lambda: sent, lambda: sent)
            unchecked += _clock() - t1
    tally.measured_s += _clock() - started - unchecked


def mixed_open(target: Any, inputs: gen.Inputs, tally: Tally) -> None:
    """Open loop: each op has a due time (independent arrivals, from the
    seed) and its latency counts from then, so a stall also delays what
    queues behind it.  One writer thread, one reader thread, two
    connections."""
    base_rows = inputs.preload_usage_rows
    progress = {"sent": base_rows, "acked": base_rows}
    reader_target = target.reader()
    start = _clock() + 0.05
    errors: List[BaseException] = []

    def pace(due: float) -> None:
        delay = due - _clock()
        if delay > 0:
            time.sleep(delay)
        tally.lag_ms.append(max(_clock() - due, 0.0) * 1e3)

    def writer() -> None:
        for index, cycle in enumerate(inputs.cycles):
            due = start + inputs.cycle_due[index]
            pace(due)
            t0 = _clock()
            progress["sent"] += config.USAGE_ROWS_PER_CYCLE
            try:
                tally.rows_acked += insert_cycle(target, cycle, tally)
            except Exception as exc:
                tally.op_failed(f"cycle {index} raised {exc!r}", True)
                continue
            progress["acked"] += config.USAGE_ROWS_PER_CYCLE
            t1 = _clock()
            latency = (t1 - due) * 1e3
            tally.sample(tally.insert_ms, latency)
            tally.cycle_intervals.append((t0, t1))
            tally.op(t1 - t0, latency > config.CYCLE_LIMIT_MS)
            tally.speed.probe()

    def reader() -> None:
        for index, op in enumerate(inputs.loads):
            due = start + inputs.load_due[index]
            pace(due)
            t0 = _clock()
            try:
                rows = read_op(reader_target, op)
            except Exception as exc:
                tally.op_failed(f"{op.kind} read raised {exc!r}", True)
                continue
            t1 = _clock()
            # latency counts from the due time; the rows-per-second of a
            # cold scan counts the scan alone, not its wait in the queue
            _record_read(tally, op, rows,
                         t1 - (t0 if op.kind == gen.COLD else due))
            tally.read_intervals.append((t0, t1))
            tally.op(t1 - t0, (t1 - due) * 1e3 > config.READ_LIMIT_MS)
            tally.speed.probe()
            if index % CHECK_EVERY == 0:
                check_read(reader_target, op, inputs, tally,
                           lambda: progress["acked"],
                           lambda: progress["sent"])

    def guarded(body: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                body()
            except BaseException as exc:    # re-raised on the main thread
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guarded(writer), name="bench-writer"),
               threading.Thread(target=guarded(reader), name="bench-reader")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    elapsed = _clock() - start
    tally.ingest_s += elapsed
    tally.measured_s += elapsed


# ------------------------------------------------- crash, recovery, closing

def _rss_self_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _user_bytes(inputs: gen.Inputs, usage_rows: int, event_rows: int) -> int:
    return (inputs.usage.user_bytes(usage_rows)
            + inputs.events.user_bytes(event_rows))


def _check_digests(tally: Tally, inputs: gen.Inputs, digests: Dict[str, Any],
                   usage_rows: int, event_rows: int, when: str) -> None:
    for name, oracle, count in (("usage", inputs.usage, usage_rows),
                                ("events", inputs.events, event_rows)):
        tally.check(tuple(digests.get(name, ())) == oracle.digest(count),
                    f"{name}: rows {when} differ from the oracle")


def _quiesce(target: "Wire") -> None:
    if target.command("quiesce") != "QUIET":
        raise RuntimeError("server did not quiesce")


def crash_embedded(target: Embedded, inputs: gen.Inputs,
                   tally: Tally) -> Tuple[int, int]:
    """Lose the memtables (none tier).  The survivors of each table must
    be an insertion-order prefix of what was sent; returns their counts.
    Recovery then merges until quiet."""
    before = target.snapshot()
    tally.add_counters(before["counters"], {})
    db = target.db = target.db.simulate_crash()
    target.usage, target.events = db.table("usage"), db.table("events")
    target.sql = SqlSession(db)
    kept = []
    for name, oracle in (("usage", inputs.usage), ("events", inputs.events)):
        rows = sorted(db.table(name).scan(Query()),
                      key=lambda row: row[oracle.ts_index])
        kept.append(len(rows))
        tally.check(rows == oracle.rows[:len(rows)],
                    f"{name}: survivors of a crash are not a prefix")
    db.maintenance_until_quiet()
    return kept[0], kept[1]


def crash_wire(target: "Wire", inputs: gen.Inputs,
               tally: Tally) -> Tuple[int, int]:
    """SIGKILL the server with acked rows that only the WAL holds,
    restart it on the same directory and require every acked row back.

    The server is quiesced before the WAL-only tail is sent, because
    replaying WAL records whose rows are already in tablets costs about
    a millisecond per row (bench/README.md, "Findings"): a SIGKILL
    straight after the measured ingest took 30 to 80 s to restart from.
    """
    _quiesce(target)
    for cycle in inputs.tail:
        insert_cycle(target, cycle, tally)
    first = target.dump()
    tally.add_counters(first["counters"], first["disk"])
    tally.keep_spans(first["spans"])
    tally.peak_rss_kb = target.proc_usage()[1]
    target.kill()
    target.span_id_base += 1 << 36
    target.start()
    target.reconnect()
    sent = inputs.rows_sent(with_tail=True)
    _check_digests(tally, inputs, target.digest(), *sent,
                   "after SIGKILL and restart")
    _quiesce(target)
    return sent


def finish(target: Any, inputs: gen.Inputs, tally: Tally,
           kept: Tuple[int, int], sent: Tuple[int, int]) -> None:
    """Final checks and byte accounting, once maintenance is quiet.
    ``sent`` rows went in; the engine still holds ``kept`` of them."""
    check_sampled_keys(target, inputs, tally, *kept)
    if target.wire:
        _check_digests(tally, inputs, target.digest(), *kept, "at the end")
        _quiesce(target)
        last = target.dump()
        tally.keep_spans(last["spans"])
        rss = target.proc_usage()[1]
    else:
        target.db.flush_all()
        target.db.maintenance_until_quiet()
        _check_digests(tally, inputs, {
            name: gen.digest_rows(list(target.db.table(name).scan(Query())))
            for name in ("usage", "events")}, *kept, "at the end")
        last = target.snapshot()
        rss = _rss_self_kb()
    tally.add_counters(last["counters"], last["disk"])
    tally.user_bytes = _user_bytes(inputs, *sent)
    tally.stored_user_bytes = _user_bytes(inputs, *kept)
    tally.written_bytes = tally.counters.get("disk.write_bytes", 0)
    tally.disk_bytes = last["disk_bytes"]
    tally.tablets_final = last["tablets"]
    tally.peak_rss_kb = max(tally.peak_rss_kb, rss)


# ---------------------------------------------------------------- workloads

@dataclass
class Workload:
    name: str
    why: str
    wire: bool
    # per second of --seconds
    cycles_per_s: float
    loads_per_s: float
    # fixed
    history_cycles: int = 0
    recent_cycles: int = 0
    hot_networks: int = config.NETWORKS
    agg_every: int = 4
    cold_every: int = 8
    cold_last: bool = False
    wide_micros: int = MICROS_PER_DAY   # window of an aggregate, a cold scan
    reads_first: bool = False
    reads_per_s: float = 0.0        # open loop when set: read ops per second
    crash: bool = False
    setups: int = 3                 # set-ups per run; setup_s is their median
    gated: bool = True              # listed in BENCHMARK.json

    def shape(self, seconds: float, smoke: bool = False) -> gen.Shape:
        shrink = 8 if smoke else 1
        return gen.Shape(
            history_cycles=self.history_cycles // shrink,
            history_micros=8 * MICROS_PER_DAY,
            recent_cycles=self.recent_cycles // shrink,
            # a crash loses what no flush has written: at any size,
            # send enough for one (45 cycles fill a usage memtable)
            cycles=max(int(self.cycles_per_s * seconds),
                       50 if self.crash else 4),
            tail_cycles=8 if self.crash and self.wire else 0,
            loads=max(int(self.loads_per_s * seconds), 2 * self.cold_every),
            hot_networks=self.hot_networks,
            agg_every=self.agg_every, cold_every=self.cold_every,
            cold_last=self.cold_last, reads_first=self.reads_first,
            cold_micros=self.wide_micros, agg_micros=self.wide_micros,
            cycle_rate=self.cycles_per_s if self.reads_per_s else 0.0,
            load_rate=self.reads_per_s)

    def set_up(self, inputs: gen.Inputs, tally: Tally, traced: bool,
               workdir: Path) -> Any:
        """Server start, table create, preload, warm-up: timed whole."""
        first_probe = tally.speed.probe(now=True)
        t0 = _clock()
        if self.wire:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            target: Any = Wire(workdir, traced, trace.SERVER_SPAN_BASE)
        else:
            target = Embedded()
        try:
            preload(target, inputs, tally)
            if inputs.preload and not self.wire:
                target.db.flush_all()
                target.db.maintenance_until_quiet()
            warm_up(target)
            if inputs.preload:
                warm_reads(target, inputs)
        except BaseException:
            self.tear_down(target, workdir)
            raise
        tally.set_up_took(_clock() - t0, first_probe)
        return target

    def tear_down(self, target: Any, workdir: Path) -> None:
        if self.wire:
            target.stop()
            shutil.rmtree(workdir, ignore_errors=True)

    def measure(self, inputs: gen.Inputs, traced: bool, workdir: Path,
                setups: int) -> Tally:
        """One pass: set up (``setups`` times), measure, check, tear down."""
        pin()
        tally = Tally()
        for _ in range(setups - 1):
            self.tear_down(self.set_up(inputs, tally, traced, workdir),
                           workdir)
        recorder = trace.Recorder()
        target = self.set_up(inputs, tally, traced, workdir)

        @contextmanager
        def measuring() -> Iterator[None]:
            cpu = time.process_time(), target.server_cpu()
            if traced:
                recorder.install(trace.program_sites())
            started = _clock()
            try:
                yield
            finally:
                recorder.uninstall()
                tally.windows.append((started, _clock()))
                tally.client_cpu_s += time.process_time() - cpu[0]
                tally.server_cpu_s += target.server_cpu() - cpu[1]

        try:
            sent = kept = inputs.rows_sent()
            if self.reads_per_s:
                with measuring():
                    mixed_open(target, inputs, tally)
            elif self.reads_first:
                with measuring():
                    reads_closed(target, inputs, tally,
                                 inputs.preload_usage_rows)
                    ingest_closed(target, inputs, tally)
                if self.crash:
                    kept = crash_embedded(target, inputs, tally)
            else:
                with measuring():
                    ingest_closed(target, inputs, tally)
                if self.crash and self.wire:
                    sent = kept = crash_wire(target, inputs, tally)
                elif self.crash:
                    kept = crash_embedded(target, inputs, tally)
                if self.crash:
                    warm_reads(target, inputs)
                with measuring():
                    reads_closed(target, inputs, tally, kept[0])
            tally.records += recorder.records
            finish(target, inputs, tally, kept, sent)
        finally:
            self.tear_down(target, workdir)
        return tally


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "ingest-wire",
        "closed-loop poll cycles, then page loads, over TCP to the 4-shard "
        "WAL server: the production path, where the net layers and the WAL "
        "do most of the work",
        wire=True, cycles_per_s=42.0, loads_per_s=27.0, hot_networks=8,
        agg_every=2, cold_every=3, cold_last=True,
        # the ingest spans 3 hours at 25 s: two thirds of a network's rows
        wide_micros=2 * MICROS_PER_HOUR, crash=True, setups=5),
    Workload(
        "dashboard-read",
        "embedded page loads over a preloaded, merged 8-day history larger "
        "than the read cache, then poll cycles with inline maintenance: no "
        "net and no threads, so a wire-only change reads no change",
        wire=False, cycles_per_s=33.0, loads_per_s=350.0,
        history_cycles=512, recent_cycles=64, cold_every=10,
        reads_first=True, crash=True),
    # Runnable by name, not listed in BENCHMARK.json (bench/README.md,
    # "Two workloads gate"): with two more the time cap on all runs
    # leaves 15 s each, too short to be steady on a shared host.
    Workload(
        "ingest-embedded",
        "the same cycles straight into LittleTable with inline maintenance: "
        "bypasses net, so a wire-only change reads no change here and exact "
        "counts repeat",
        wire=False, cycles_per_s=60.0, loads_per_s=45.0, hot_networks=8,
        agg_every=2, cold_every=6, cold_last=True, crash=True, gated=False),
    Workload(
        "mixed-wire",
        "open-loop writer and reader on two connections to the 4-shard WAL "
        "server: reads queue behind inserts in the server's interpreter and "
        "on the WAL, each op timed from its due time",
        wire=True, cycles_per_s=10.0, reads_per_s=45.0,
        loads_per_s=45.0 / 2.1,     # a load is 2.1 read ops on average
        recent_cycles=180, agg_every=3, cold_every=5, gated=False),
)}
