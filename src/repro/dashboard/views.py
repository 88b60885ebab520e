"""Dashboard page queries (§2.1): "customers connect ... to view these
statistics".

These are the read paths the whole design optimizes for - each view is
one rectangle of (key range x time range), served by a single
clustered scan (Figure 1).  They are used by the production-rates
benchmark and the examples, and they document how a webapp is meant to
consume the tables the grabbers and aggregators maintain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.row import DESCENDING, KeyRange, Query, TimeRange
from ..core.table import Table
from ..util.clock import MICROS_PER_MINUTE


@dataclass
class GraphPoint:
    """One point of a usage graph: [bucket_start, bucket_start+width)."""

    bucket_start: int
    value: float


def usage_graph(usage_table: Table, network_id: int, ts_min: int,
                ts_max: int, bucket_micros: int = 10 * MICROS_PER_MINUTE,
                device_id: Optional[int] = None) -> List[GraphPoint]:
    """Bytes transferred over time for a network (or one device).

    Reads the raw per-minute samples - the §4.1.2 motivation notes
    this is fine for short windows but that month-long graphs should
    read the rollup table instead (see :func:`rollup_graph`).
    """
    if bucket_micros <= 0:
        raise ValueError("bucket width must be positive")
    prefix = ((network_id,) if device_id is None
              else (network_id, device_id))
    buckets: Dict[int, float] = {}
    query = Query(KeyRange.prefix(prefix),
                  TimeRange(min_ts=ts_min, max_ts=ts_max,
                            max_inclusive=False))
    for _network, _device, ts, prev_ts, _counter, rate in \
            usage_table.scan(query):
        transferred = rate * ((ts - prev_ts) / 1_000_000.0)
        bucket = (ts // bucket_micros) * bucket_micros
        buckets[bucket] = buckets.get(bucket, 0.0) + transferred
    return [GraphPoint(start, buckets[start])
            for start in sorted(buckets)]


def rollup_graph(rollup_table: Table, network_id: int,
                 ts_min: Optional[int] = None,
                 ts_max: Optional[int] = None) -> List[GraphPoint]:
    """The same graph from the 10-minute rollup table (§4.1.2).

    "Rendering the same graph from this derived table yields only a
    few thousand points, and it reduces resource usage across the
    stack."
    """
    query = Query(KeyRange.prefix((network_id,)),
                  TimeRange.between(ts_min, ts_max))
    return [GraphPoint(row[1], float(row[2]))
            for row in rollup_table.scan(query)]


def top_clients(client_usage_table: Table, network_id: int, ts_min: int,
                ts_max: Optional[int] = None, limit: int = 10
                ) -> List[Tuple[str, int]]:
    """The per-client leaderboard ("bytes transferred per client in
    the last hour", §1).  Returns (mac, bytes) pairs, biggest first."""
    totals: Dict[str, int] = {}
    query = Query(KeyRange.prefix((network_id,)),
                  TimeRange.between(ts_min, ts_max))
    for _network, client, _ts, transferred in \
            client_usage_table.scan(query):
        totals[client] = totals.get(client, 0) + transferred
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:limit]


def device_status(usage_table: Table, network_id: int,
                  device_ids: Sequence[int], now: int,
                  offline_after_micros: int = 5 * MICROS_PER_MINUTE
                  ) -> Dict[int, str]:
    """Online/offline per device, from the age of its latest sample.

    Uses latest-row-for-prefix (§3.4.5) with a bounded lookback: a
    device without a recent row is shown offline rather than searched
    for arbitrarily far into the past.  The whole page is one
    ``latest_many`` call - over the wire, one round trip.
    """
    rows = usage_table.latest_many(
        [(network_id, device_id) for device_id in device_ids],
        max_lookback_micros=offline_after_micros)
    return {device_id: "online" if row is not None else "offline"
            for device_id, row in zip(device_ids, rows)}


def event_page(events_table: Table, network_id: int,
               ts_min: Optional[int] = None,
               ts_max: Optional[int] = None,
               kind: Optional[str] = None,
               contains: Optional[str] = None,
               limit: int = 50) -> List[Tuple]:
    """One page of the event log, newest first (§4.2: "particularly
    useful for diagnosing network connectivity issues or performing
    forensic analysis")."""
    query = Query(KeyRange.prefix((network_id,)),
                  TimeRange.between(ts_min, ts_max), DESCENDING)
    page: List[Tuple] = []
    for row in events_table.scan(query):
        _network, _device, _ts, _event_id, row_kind, detail = row
        if kind is not None and row_kind != kind:
            continue
        if contains is not None and contains not in detail:
            continue
        page.append(row)
        if len(page) >= limit:
            break
    return page


def tag_usage_report(tag_rollup_table: Table, customer_id: int,
                     ts_min: Optional[int] = None,
                     ts_max: Optional[int] = None) -> Dict[str, int]:
    """Total bytes per user-defined tag (§4.1.2's school example)."""
    totals: Dict[str, int] = {}
    query = Query(KeyRange.prefix((customer_id,)),
                  TimeRange.between(ts_min, ts_max))
    for _customer, tag, _ts, transferred in tag_rollup_table.scan(query):
        totals[tag] = totals.get(tag, 0) + transferred
    return totals
