"""The metric catalogue, and how each value is derived.

End-to-end metrics come from an untraced run; per-layer metrics come
from a traced run and three sources, all outside ``src/``:

S  boundary spans recorded by ``bench/trace.py``
C  the engine's own public counters (``stats()``, ``disk.stats``)
P  replay probes: a per-row public function timed in isolation over
   the workload's own rows

A layer is a module of the program, and a metric's name starts with
its layer.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.memtable import MemTable
from repro.core.periods import period_for
from repro.dashboard.schemas import usage_schema
from repro.net import protocol

from . import config, gen, trace

# (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ingest_rows_per_s", "1/s", "higher", 0.25),
    ("insert_p50_ms", "ms", "lower", 0.25),
    ("latest_p50_ms", "ms", "lower", 0.25),
    ("scan_p50_ms", "ms", "lower", 0.25),
    ("scan_rows_per_s", "1/s", "higher", 0.25),
    ("agg_p50_ms", "ms", "lower", 0.25),
    ("write_amp", "ratio", "lower", 0.05),
    ("space_amp", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

# (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("net.client.insert_self_s", "s", "lower"),
    ("net.client.read_self_s", "s", "lower"),
    ("net.client.insert_p99_ms", "ms", "lower"),
    ("net.client.read_p99_ms", "ms", "lower"),
    ("net.protocol.encode_s", "s", "lower"),
    ("net.protocol.decode_s", "s", "lower"),
    ("net.protocol.recv_wait_s", "s", "lower"),
    ("net.protocol.frames", "count", "lower"),
    ("net.protocol.bytes_per_row", "bytes", "lower"),
    ("net.protocol.row_marshal_ns_per_row", "ns", "lower"),
    ("net.server.dispatch_self_s", "s", "lower"),
    ("net.server.loop_wait_s", "s", "lower"),
    ("net.server.requests", "count", "lower"),
    ("net.server.errors", "count", "lower"),
    ("net.server.pipelined_share", "ratio", "higher"),
    ("net.shard.route_self_s", "s", "lower"),
    ("net.shard.rows_routed", "count", "lower"),
    ("net.shard.scatter_queries", "count", "lower"),
    ("net.shard.single_shard_queries", "count", "higher"),
    ("core.table.insert_self_s", "s", "lower"),
    ("core.table.slow_path_share", "ratio", "lower"),
    ("core.table.backpressure_wait_s", "s", "lower"),
    ("core.table.backpressure_stalls", "count", "lower"),
    ("core.table.scan_self_s", "s", "lower"),
    ("core.table.latest_self_s", "s", "lower"),
    ("core.table.rows_scanned_per_returned", "ratio", "lower"),
    ("core.table.tablets_pruned_per_query", "ratio", "higher"),
    ("core.memtable.insert_ns_per_row", "ns", "lower"),
    ("core.codec.encode_ns_per_row", "ns", "lower"),
    ("core.codec.decode_ns_per_row", "ns", "lower"),
    ("core.codec.rows_decoded_per_returned", "ratio", "lower"),
    ("core.wal.append_s", "s", "lower"),
    ("core.wal.commit_wait_s", "s", "lower"),
    ("core.wal.bytes_per_user_byte", "ratio", "lower"),
    ("core.wal.group_size", "ratio", "higher"),
    ("core.tablet.read_s", "s", "lower"),
    ("core.tablet.blocks_read", "count", "lower"),
    ("core.tablet.block_bytes_read", "bytes", "lower"),
    ("core.tablet.footer_loads", "count", "lower"),
    ("core.tablet.write_s", "s", "lower"),
    ("core.readcache.block_hit_rate", "ratio", "higher"),
    ("core.readcache.footer_hit_rate", "ratio", "higher"),
    ("core.readcache.latest_hit_rate", "ratio", "higher"),
    ("core.readcache.evictions", "count", "lower"),
    ("core.vector.agg_self_s", "s", "lower"),
    ("core.vector.columnar_block_share", "ratio", "higher"),
    ("core.vector.fallback_queries", "count", "lower"),
    ("sqlapi.execute_self_s", "s", "lower"),
    ("sqlapi.statements", "count", "lower"),
    ("core.maintenance.flush_s", "s", "lower"),
    ("core.maintenance.flush_count", "count", "lower"),
    ("core.maintenance.merge_s", "s", "lower"),
    ("core.maintenance.merge_count", "count", "lower"),
    ("core.maintenance.bytes_rewritten", "bytes", "lower"),
    ("core.maintenance.rewrites_per_row", "ratio", "lower"),
    ("core.maintenance.tablets_final", "count", "lower"),
    ("core.maintenance.errors", "count", "lower"),
    ("core.maintenance.stall_overlap_share", "ratio", "lower"),
    ("disk.modeled_write_s", "s", "lower"),
    ("disk.modeled_read_s", "s", "lower"),
    ("disk.seeks", "count", "lower"),
    ("disk.writes", "count", "lower"),
    ("disk.reads", "count", "lower"),
    ("disk.fsyncs", "count", "lower"),
    ("disk.write_wall_s", "s", "lower"),
    ("disk.read_wall_s", "s", "lower"),
    ("dashboard.views_self_s", "s", "lower"),
    ("proc.client_cpu_s", "s", "lower"),
    ("proc.server_cpu_s", "s", "lower"),
    ("proc.server_cpu_ms_per_krow", "ms", "lower"),
    ("gen.lag_p95_ms", "ms", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("host.slow_share", "ratio", "lower"),
    ("run.insert_p95_ms", "ms", "lower"),
    ("run.latest_p95_ms", "ms", "lower"),
    ("run.scan_p95_ms", "ms", "lower"),
    ("run.slo_miss_share", "ratio", "lower"),
    ("run.failed_op_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.budget_gap_share", "ratio", "lower"),
    ("trace.orphan_share", "ratio", "lower"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------- C: counters

def engine_snapshot(engines: Iterable[Any], metrics: Any) -> Dict[str, Any]:
    """Public counters of one database (or of every shard's engine):
    the registry's counters, histogram sums as ``<name>.sum``, the
    modeled-disk totals, and what is on disk right now."""
    stats = metrics.snapshot()
    counters = dict(stats["counters"])
    for name, summary in stats["histograms"].items():
        counters[name + ".sum"] = summary.get("sum", 0.0)
    disk = {"seeks": 0, "read_time_s": 0.0, "write_time_s": 0.0}
    disk_bytes = tablets = 0
    for engine in engines:
        io = engine.disk.stats
        disk["seeks"] += io.seeks
        disk["read_time_s"] += io.read_time_s
        disk["write_time_s"] += io.write_time_s
        disk_bytes += sum(engine.disk.size(name)
                          for name in engine.disk.list())
        tablets += sum(len(engine.table(name).on_disk_tablets)
                       for name in engine.table_names())
    return {"counters": counters, "disk": disk, "disk_bytes": disk_bytes,
            "tablets": tablets}


# ----------------------------------------------------------------- P: probes

def replay_probes(inputs: gen.Inputs, limit: int = 20_000) -> Dict[str, float]:
    """Time per-row public functions over the workload's own rows."""
    rows = inputs.usage.rows[:limit]
    events = inputs.events.rows[:limit // 3]
    schema = usage_schema()
    now = config.TIMELINE_END
    memtable = MemTable(1, schema, period_for(rows[0][2], now))
    t0 = time.perf_counter()
    for row in rows:
        memtable.insert(row, now)
    insert_ns = (time.perf_counter() - t0) * 1e9 / len(rows)
    both = rows + events
    t0 = time.perf_counter()
    for row in both:
        protocol.decode_row(protocol.encode_row(row))
    marshal_ns = (time.perf_counter() - t0) * 1e9 / len(both)
    return {"core.memtable.insert_ns_per_row": insert_ns,
            "net.protocol.row_marshal_ns_per_row": marshal_ns}


# -------------------------------------------------------------------- values

def at_reference_speed(series: Any, speed: Any,
                       full_speed_only: bool = False) -> List[Any]:
    """The samples of one op class with their seconds (or milliseconds)
    divided by the host's slowdown around them (see ``HostSpeed``).

    ``full_speed_only`` keeps the ops whose probes before and after
    both ran at the run's best speed, if there are any.  The correction
    falls short when the host is far off its speed (a wire scan of
    8.0 ms read 9.1 corrected from 14.6), so the medians leave those
    stretches out; a rate cannot, because most of its time is in a few
    flushes and merges, and which of those were left out would decide it.
    """
    pairs = list(zip(series.values, series.probes))
    if full_speed_only:
        fast = speed.fast()
        pairs = [(value, after) for value, after in pairs
                 if all(fast[max(after - 1, 0):after + 1])] or pairs
    return [(value[0], value[1] / speed.slowdown(after))
            if isinstance(value, tuple) else value / speed.slowdown(after)
            for value, after in pairs]


def rate(samples: Sequence[Tuple[int, float]]) -> float:
    """Units per second over (units, seconds) samples."""
    return ratio(sum(units for units, _ in samples),
                 sum(seconds for _, seconds in samples))


def end_to_end(tally: Any) -> Dict[str, float]:
    speed = tally.speed

    def p50(series: Any) -> float:
        return percentile(at_reference_speed(series, speed, True), 0.50)

    return {
        "setup_s": statistics.median(tally.setup_s),
        # an open loop has no per-cycle cost: its rate is the offered one
        "ingest_rows_per_s": rate(at_reference_speed(tally.cycle_rate, speed))
        or ratio(tally.rows_acked, tally.ingest_s),
        "insert_p50_ms": p50(tally.insert_ms),
        "latest_p50_ms": p50(tally.latest_ms),
        "scan_p50_ms": p50(tally.scan_ms),
        "scan_rows_per_s": rate(at_reference_speed(tally.cold, speed)),
        "agg_p50_ms": p50(tally.agg_ms),
        "write_amp": ratio(tally.written_bytes, tally.user_bytes),
        "space_amp": ratio(tally.disk_bytes, tally.stored_user_bytes),
        "peak_rss_mb": tally.peak_rss_kb / 1024.0,
    }


def sample_counts(tally: Any) -> Dict[str, int]:
    counts = {name: len(series.values) for name, series in (
        ("insert", tally.insert_ms), ("latest", tally.latest_ms),
        ("scan", tally.scan_ms), ("agg", tally.agg_ms),
        ("cold", tally.cold))}
    counts["setups"] = len(tally.setup_s)
    return counts


def _timed_roots(spans: trace.SpanSet, tally: Any) -> List[trace.Span]:
    """Parentless spans that ran inside a timed op of the runner."""
    ops = sorted(tally.cycle_intervals + tally.read_intervals)
    starts = [start for start, _ in ops]
    roots = []
    for span in spans.spans:
        if span.parent or span.sid >= trace.SERVER_SPAN_BASE:
            continue
        at = bisect_right(starts, span.t0) - 1
        # two threads interleave their ops; look a few intervals back
        for start, end in ops[max(at - 3, 0):at + 1]:
            if start <= span.t0 and span.t1 <= end:
                roots.append(span)
                break
    return roots


def stage_table(spans: trace.SpanSet, root_names: Iterable[str]
                ) -> Tuple[Dict[str, float], float, int]:
    """Blocking-path seconds per stage under the named client spans."""
    wanted = set(root_names)
    roots = [s for s in spans.spans if s.name in wanted]
    stages, wall = spans.budget(roots)
    return stages, wall, len(roots)


def host_slowdown(tally: Any) -> float:
    """The pass's median probe cost over the reference."""
    costs = tally.speed.costs
    return statistics.median(costs) / tally.speed.REFERENCE_S if costs else 1.0


def per_layer(tally: Any, reference: Any, spans: trace.SpanSet,
              probes: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.  ``reference`` is the
    untraced round the tracing overhead is measured against."""
    c = tally.counters

    def count(name: str) -> float:
        return c.get(name, 0)

    self_s = spans.self_times()
    span_counts = spans.counts()
    busy_s: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    insert_frame_bytes = 0
    for span in spans.spans:
        busy_s[span.name] = busy_s.get(span.name, 0.0) + span.busy
        if span.name.startswith("net.client."):
            durations.setdefault(span.name, []).append(span.busy * 1e3)
        if span.name == trace.CLIENT_ENCODE and span.lout is not None:
            parent = spans.by_id.get(span.parent)
            if parent is not None and parent.name == "net.client.insert":
                insert_frame_bytes += span.lout[1]

    def own(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    reads = ("net.client.latest", "net.client.scan", "net.client.query")
    read_ms = [ms for name in reads for ms in durations.get(name, [])]
    roots = _timed_roots(spans, tally)
    stages, _wall = spans.budget(roots)
    slow = sorted(tally.cycle_intervals + tally.read_intervals,
                  key=lambda op: op[1] - op[0])
    slow = slow[int(len(slow) * 0.95):]
    maintenance = spans.intervals(("core.maintenance.flush",
                                   "core.maintenance.merge"))
    # mean op time of each pass at the reference speed: the host may
    # have slowed one pass and not the other
    per_op = ratio(tally.op_seconds, tally.ops) / host_slowdown(tally)
    per_op_reference = (ratio(reference.op_seconds, reference.ops)
                        / host_slowdown(reference))
    values = {
        "net.client.insert_self_s": own("net.client.insert"),
        "net.client.read_self_s": own(*reads),
        "net.client.insert_p99_ms": percentile(
            durations.get("net.client.insert", []), 0.99),
        "net.client.read_p99_ms": percentile(read_ms, 0.99),
        "net.protocol.encode_s": own(trace.CLIENT_ENCODE),
        "net.protocol.decode_s": own("net.protocol.decode_payload"),
        "net.protocol.recv_wait_s": own(trace.CLIENT_RECV),
        "net.protocol.frames": span_counts.get(trace.CLIENT_ENCODE, 0),
        "net.protocol.bytes_per_row": ratio(insert_frame_bytes,
                                            tally.rows_acked),
        "net.server.dispatch_self_s": own("net.server.dispatch"),
        "net.server.loop_wait_s": own(trace.SERVER_RESIDENCE),
        "net.server.requests": count("server.requests"),
        "net.server.errors": count("server.errors"),
        "net.server.pipelined_share": ratio(
            c.get("server.pipelined_requests", 0),
            c.get("server.pipelined_requests", 0)
            + c.get("server.sequential_requests", 0)),
        "net.shard.route_self_s": own("net.shard.insert", "net.shard.query",
                                      "net.shard.latest"),
        "net.shard.rows_routed": count("shard.rows_routed"),
        "net.shard.scatter_queries": count("shard.scatter_queries"),
        "net.shard.single_shard_queries": count("shard.single_shard_queries"),
        "core.table.insert_self_s": own("core.table.insert"),
        "core.table.slow_path_share": ratio(
            c.get("insert.uniqueness.slow_path", 0), c.get("insert.rows", 0)),
        "core.table.backpressure_wait_s":
            count("insert.backpressure_wait_us.sum") / 1e6,
        "core.table.backpressure_stalls": count("insert.backpressure_stalls"),
        "core.table.scan_self_s": own("core.table.scan", "core.table.query"),
        "core.table.latest_self_s": own("core.table.latest"),
        "core.table.rows_scanned_per_returned": ratio(
            c.get("query.rows_scanned", 0), c.get("query.rows_returned", 0)),
        "core.table.tablets_pruned_per_query": ratio(
            c.get("query.tablets_pruned", 0), c.get("query.count", 0)),
        "core.codec.encode_ns_per_row": ratio(
            c.get("codec.encode_ns", 0), c.get("codec.rows_encoded", 0)),
        "core.codec.decode_ns_per_row": ratio(
            c.get("codec.decode_ns", 0), c.get("codec.rows_decoded", 0)),
        "core.codec.rows_decoded_per_returned": ratio(
            c.get("codec.rows_decoded", 0), c.get("query.rows_returned", 0)),
        "core.wal.append_s": own("core.wal.append"),
        "core.wal.commit_wait_s": busy_s.get("core.wal.commit", 0.0),
        "core.wal.bytes_per_user_byte": ratio(
            c.get("wal.bytes_appended", 0), tally.user_bytes),
        "core.wal.group_size": ratio(c.get("wal.records", 0),
                                     c.get("wal.appends", 0)),
        "core.tablet.read_s": own("core.tablet.read"),
        "core.tablet.blocks_read": count("tablet.blocks_read"),
        "core.tablet.block_bytes_read": count("tablet.block_bytes_read"),
        "core.tablet.footer_loads": count("tablet.footer_loads"),
        "core.tablet.write_s": own("core.tablet.write"),
        "core.readcache.block_hit_rate": ratio(
            c.get("readcache.block.hits", 0),
            c.get("readcache.block.hits", 0)
            + c.get("readcache.block.misses", 0)),
        "core.readcache.footer_hit_rate": ratio(
            c.get("readcache.footer.hits", 0),
            c.get("readcache.footer.hits", 0)
            + c.get("readcache.footer.misses", 0)),
        "core.readcache.latest_hit_rate": ratio(
            c.get("readcache.latest.hits", 0),
            c.get("readcache.latest.hits", 0)
            + c.get("readcache.latest.misses", 0)),
        "core.readcache.evictions": count("readcache.block.evictions"),
        "core.vector.agg_self_s": own("core.vector.aggregate"),
        "core.vector.columnar_block_share": ratio(
            c.get("query.pushdown.blocks_columnar", 0),
            c.get("query.pushdown.blocks_columnar", 0)
            + c.get("query.pushdown.blocks_fallback", 0)),
        "core.vector.fallback_queries":
            count("query.pushdown.fallback_queries"),
        "sqlapi.execute_self_s": own("sqlapi.execute"),
        "sqlapi.statements": span_counts.get("sqlapi.execute", 0),
        "core.maintenance.flush_s": busy_s.get("core.maintenance.flush", 0.0),
        "core.maintenance.flush_count": count("flush.count"),
        "core.maintenance.merge_s": busy_s.get("core.maintenance.merge", 0.0),
        "core.maintenance.merge_count": count("merge.count"),
        "core.maintenance.bytes_rewritten": count("merge.bytes_written"),
        "core.maintenance.rewrites_per_row": ratio(
            c.get("merge.rows_rewritten", 0), c.get("insert.rows", 0)),
        "core.maintenance.tablets_final": tally.tablets_final,
        "core.maintenance.errors": count("maintenance.errors"),
        "core.maintenance.stall_overlap_share": trace.overlap_share(
            slow, maintenance),
        "disk.modeled_write_s": tally.disk.get("write_time_s", 0.0),
        "disk.modeled_read_s": tally.disk.get("read_time_s", 0.0),
        "disk.seeks": tally.disk.get("seeks", 0),
        "disk.writes": count("disk.writes"),
        "disk.reads": count("disk.reads"),
        "disk.fsyncs": count("disk.fsyncs"),
        "disk.write_wall_s": own("disk.write"),
        "disk.read_wall_s": own("disk.read"),
        "dashboard.views_self_s": own("dashboard.device_status",
                                      "dashboard.usage_graph"),
        "proc.client_cpu_s": tally.client_cpu_s,
        "proc.server_cpu_s": tally.server_cpu_s,
        "proc.server_cpu_ms_per_krow": ratio(
            tally.server_cpu_s * 1e3, tally.rows_acked / 1e3),
        "gen.lag_p95_ms": percentile(tally.lag_ms, 0.95),
        "host.slowdown": host_slowdown(tally),
        "host.slow_share": 1.0 - ratio(sum(tally.speed.fast()),
                                       len(tally.speed.costs)),
        "run.insert_p95_ms": percentile(
            at_reference_speed(tally.insert_ms, tally.speed), 0.95),
        "run.latest_p95_ms": percentile(
            at_reference_speed(tally.latest_ms, tally.speed), 0.95),
        "run.scan_p95_ms": percentile(
            at_reference_speed(tally.scan_ms, tally.speed), 0.95),
        "run.slo_miss_share": ratio(tally.slo_missed, tally.slo_ops),
        "run.failed_op_share": ratio(tally.failed, tally.attempted),
        "trace.overhead_share": ratio(per_op, per_op_reference) - 1.0
        if per_op_reference else 0.0,
        "trace.budget_gap_share": ratio(
            abs(sum(stages.values()) - tally.op_seconds), tally.op_seconds),
        "trace.orphan_share": ratio(spans.orphans,
                                    spans.orphans + spans.linked),
    }
    values.update(probes)
    return values
