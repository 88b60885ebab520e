"""Seeded workload inputs and the oracle their outputs are checked against.

Everything a run feeds the program is built here, from ``--seed``,
before any clock starts: the poll cycles (one 192-row ``usage`` batch
plus one 64-row ``events`` batch each) and the dashboard page loads.
The program under test sees only these inputs.

Timestamps are strictly increasing in arrival order.  Real pollers
stamp each device at its own instant; a batch that shares one ``ts``
falls off the engine's uniqueness fast path (paper section 3.4.4) and
would measure the slow path instead of the insert path.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Tuple

from . import config

Row = Tuple[Any, ...]
Cycle = Tuple[List[Row], List[Row]]         # (usage rows, event rows)

EVENT_KINDS = ("assoc", "disassoc", "dhcp_lease", "auth_fail", "roam")

# Page-load op kinds.
LATEST, SCAN, AGG, COLD = "latest", "scan", "agg", "cold"


@dataclass
class ReadOp:
    kind: str
    network: int
    ts_min: int
    ts_max: int


@dataclass
class Shape:
    """How much of each input a run uses."""

    history_cycles: int = 0     # coarse, spread over history_micros
    history_micros: int = 0
    recent_cycles: int = 0      # preloaded at the poll rate
    cycles: int = 0             # measured inserts
    tail_cycles: int = 0        # sent just before a SIGKILL, never timed
    loads: int = 0              # measured page loads
    hot_networks: int = config.NETWORKS     # page loads go to this many
    agg_every: int = 4
    cold_every: int = 20
    cold_last: bool = False     # cold scans after the loads, not among them
    reads_first: bool = False   # page loads run before the measured cycles
    cold_micros: int = config.MICROS_PER_DAY     # window of a cold scan
    agg_micros: int = config.MICROS_PER_DAY      # window of an aggregate
    # open loop: arrivals per second; 0 means closed loop
    cycle_rate: float = 0.0
    load_rate: float = 0.0


def row_crc(row: Row) -> int:
    return zlib.crc32(repr(row).encode("utf-8"))


def user_bytes(row: Row) -> int:
    """Bytes of user data in a row: 8 per number, UTF-8 length per string."""
    return sum(len(v.encode("utf-8")) if isinstance(v, str) else 8
               for v in row)


class TableOracle:
    """The rows one table was sent, in arrival (= timestamp) order."""

    def __init__(self, ts_index: int):
        self.ts_index = ts_index
        self.rows: List[Row] = []
        self._crc_prefix: List[int] = [0]
        self._bytes_prefix: List[int] = [0]

    def seal(self) -> None:
        self._crc_prefix = [0] + list(accumulate(map(row_crc, self.rows)))
        self._bytes_prefix = [0] + list(
            accumulate(map(user_bytes, self.rows)))

    def digest(self, count: int) -> Tuple[int, int]:
        """(row count, sum of row CRCs) of the first ``count`` rows."""
        return count, self._crc_prefix[count]

    def user_bytes(self, count: int) -> int:
        return self._bytes_prefix[count]


def digest_rows(rows: Sequence[Row]) -> Tuple[int, int]:
    return len(rows), sum(map(row_crc, rows))


@dataclass
class Inputs:
    """One run's inputs."""

    seed: int
    preload: List[Cycle]
    cycles: List[Cycle]
    tail: List[Cycle]
    loads: List[ReadOp]
    usage: TableOracle
    events: TableOracle
    # usage rows per network as (arrival index, row), for read checks
    usage_by_net: Dict[int, List[Tuple[int, Row]]] = field(
        default_factory=dict)
    # open loop only: when each cycle and each read op is due, in
    # seconds from the start of the measured phase
    cycle_due: List[float] = field(default_factory=list)
    load_due: List[float] = field(default_factory=list)

    @property
    def preload_usage_rows(self) -> int:
        return len(self.preload) * config.USAGE_ROWS_PER_CYCLE

    def rows_sent(self, with_tail: bool = False) -> Tuple[int, int]:
        """(usage rows, event rows) sent once the measured cycles are
        done, or once the tail is done too."""
        cycles = len(self.preload) + len(self.cycles)
        if with_tail:
            cycles += len(self.tail)
        return (cycles * config.USAGE_ROWS_PER_CYCLE,
                cycles * config.EVENT_ROWS_PER_CYCLE)

    def op_counts(self) -> Dict[str, int]:
        counts = {"cycles": len(self.cycles), "preload": len(self.preload),
                  "tail": len(self.tail)}
        for op in self.loads:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def expected_scan(self, op: ReadOp, sent_before: int) -> List[Row]:
        """Pure-Python filter: usage rows of ``op.network`` with
        ``ts_min <= ts < ts_max`` among the first ``sent_before`` sent."""
        rows = [row for index, row in self.usage_by_net[op.network]
                if index < sent_before and op.ts_min <= row[2] < op.ts_max]
        rows.sort(key=lambda row: (row[0], row[1], row[2]))
        return rows

    def expected_latest(self, network: int, device: int,
                        sent_before: int) -> Row:
        best = None
        for index, row in self.usage_by_net[network]:
            if index < sent_before and row[1] == device:
                best = row
        return best


class _Fleet:
    """Generator state carried across cycles: the clock, per-device
    counters and the event id."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.poll_position = 0
        self.event_id = 0
        self.counter: Dict[int, int] = {}
        self.prev_ts: Dict[int, int] = {}

    def cycle(self, start: int, slot: int) -> Cycle:
        rng = self.rng
        step = slot // config.ROWS_PER_CYCLE
        jitter = max(step // 2, 1)
        ts = start
        usage: List[Row] = []
        for _ in range(config.USAGE_ROWS_PER_CYCLE):
            dev = self.poll_position
            self.poll_position = (dev + 1) % (config.NETWORKS * config.DEVICES)
            network, device = divmod(dev, config.DEVICES)
            stamp = ts + rng.randrange(jitter)
            ts += step
            prev = self.prev_ts.get(dev, stamp - 60_000_000)
            delta = rng.randrange(1, 50_000_000)
            total = self.counter.get(dev, 0) + delta
            self.counter[dev] = total
            self.prev_ts[dev] = stamp
            usage.append((network, device, stamp, prev, total,
                          delta / ((stamp - prev) / 1e6)))
        events: List[Row] = []
        for _ in range(config.EVENT_ROWS_PER_CYCLE):
            network = rng.randrange(config.NETWORKS)
            device = rng.randrange(config.DEVICES)
            stamp = ts + rng.randrange(jitter)
            ts += step
            self.event_id += 1
            kind = rng.choice(EVENT_KINDS)
            events.append((network, device, stamp, self.event_id, kind,
                           f"client {rng.randrange(1 << 24):06x} {kind} "
                           f"on ssid corp-{network:02d}"))
        return usage, events


# The seed decides the rows: counters, rates, timestamp jitter, which
# device logs which event.  It does not decide the shape of the load:
# which networks are popular, which network each page load asks for and
# when each open-loop op is due come from this constant, so that runs
# with different seeds keep the same working set and the same collisions
# between reader and writer, and differ by the data alone.
SHAPE_SEED = 0xF1EE7


def hot_networks(count: int) -> List[int]:
    """The ``count`` most popular networks, most popular first."""
    networks = list(range(config.NETWORKS))
    random.Random(SHAPE_SEED).shuffle(networks)
    return networks[:count]


def _arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    """Due times of ``count`` independent arrivals at ``rate`` per second:
    exponential gaps, scaled so that the last is due at ``count / rate``
    and every seed offers the same load over the same time."""
    if not count or not rate:
        return []
    due = list(accumulate(rng.expovariate(rate) for _ in range(count)))
    scale = (count / rate) / due[-1]
    return [t * scale for t in due]


def make_inputs(seed: int, shape: Shape) -> Inputs:
    rng = random.Random(seed)
    fleet = _Fleet(rng)
    end = config.TIMELINE_END
    fine = ((shape.recent_cycles + shape.cycles + shape.tail_cycles)
            * config.CYCLE_MICROS)
    fine_start = end - fine
    preload: List[Cycle] = []
    if shape.history_cycles:
        slot = shape.history_micros // shape.history_cycles
        start = fine_start - shape.history_micros
        preload += [fleet.cycle(start + i * slot, slot)
                    for i in range(shape.history_cycles)]
    preload += [fleet.cycle(fine_start + i * config.CYCLE_MICROS,
                            config.CYCLE_MICROS)
                for i in range(shape.recent_cycles)]
    measured_start = fine_start + shape.recent_cycles * config.CYCLE_MICROS
    cycles = [fleet.cycle(measured_start + i * config.CYCLE_MICROS,
                          config.CYCLE_MICROS)
              for i in range(shape.cycles + shape.tail_cycles)]
    cycles, tail = cycles[:shape.cycles], cycles[shape.cycles:]

    usage, events = TableOracle(2), TableOracle(2)
    for batch_usage, batch_events in preload + cycles + tail:
        usage.rows += batch_usage
        events.rows += batch_events
    usage.seal()
    events.seal()
    by_net: Dict[int, List[Tuple[int, Row]]] = {
        n: [] for n in range(config.NETWORKS)}
    for index, row in enumerate(usage.rows):
        by_net[row[0]].append((index, row))

    networks = hot_networks(shape.hot_networks)
    weights = list(accumulate(1.0 / rank      # Zipf(1.0)
                              for rank in range(1, len(networks) + 1)))
    timeline_start = usage.rows[0][2] if usage.rows else end
    if shape.reads_first:
        # the loads see the preload alone: their "now" is where it ends,
        # whatever the number of cycles that follow
        end = measured_start
    loads: List[ReadOp] = []
    cold: List[ReadOp] = []
    shape_rng = random.Random(SHAPE_SEED)
    for i in range(shape.loads):
        network = networks[bisect_left(weights,
                                       shape_rng.random() * weights[-1])]
        if shape.cold_every and i % shape.cold_every == shape.cold_every - 1:
            # a uniformly random network and window: cold by design
            network = shape_rng.randrange(config.NETWORKS)
            span = max(end - timeline_start - shape.cold_micros, 1)
            lo = timeline_start + shape_rng.randrange(span)
            (cold if shape.cold_last else loads).append(
                ReadOp(COLD, network, lo, lo + shape.cold_micros))
            continue
        loads.append(ReadOp(LATEST, network, 0, end))
        loads.append(ReadOp(SCAN, network,
                            end - config.HOT_WINDOW_MICROS, end))
        if shape.agg_every and i % shape.agg_every == shape.agg_every - 1:
            loads.append(ReadOp(AGG, network,
                                end - shape.agg_micros, end))
    return Inputs(
        seed=seed, preload=preload, cycles=cycles, tail=tail,
        loads=loads + cold,
        cycle_due=_arrivals(shape_rng, len(cycles), shape.cycle_rate),
        load_due=_arrivals(shape_rng, len(loads + cold), shape.load_rate),
        usage=usage, events=events, usage_by_net=by_net)
