"""UsageGrabber (paper §4.1.1).

Every minute, fetch from each device a cumulative byte counter, turn
consecutive fetches into average-rate samples, and store them in
LittleTable keyed (network, device, t2) with value (t1, c2, r).

The §4.1.1 rules reproduced here:

* the very first response from a device produces no row (there is no
  interval yet) - the counter is only cached;
* if the gap t2 - t1 exceeds the threshold T (Dashboard uses an hour),
  no row is inserted either - users see a gap - and the cache restarts
  from (t2, c2);
* after a LittleTable crash, the in-memory cache is rebuilt by querying
  the last sample per device no older than T, after which operation
  resumes; the crash appears to users as at most a brief device
  unreachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.row import KeyRange, Query, TimeRange
from ..core.table import Table
from ..util.clock import Clock, MICROS_PER_HOUR
from .configstore import ConfigStore
from .mtunnel import DeviceUnreachable, MTunnel


@dataclass
class UsagePollStats:
    """What one poll round did (for tests and the shard driver)."""

    devices_polled: int = 0
    devices_unreachable: int = 0
    rows_inserted: int = 0
    gaps: int = 0
    first_contacts: int = 0


class UsageGrabber:
    """The per-device byte-counter grabber."""

    def __init__(self, table: Table, mtunnel: MTunnel, config: ConfigStore,
                 clock: Clock, threshold_micros: int = MICROS_PER_HOUR,
                 client_table: Optional[Table] = None):
        self.table = table
        self.client_table = client_table
        self.mtunnel = mtunnel
        self.config = config
        self.clock = clock
        self.threshold_micros = threshold_micros
        # device_id -> (t1, c1): the previous fetch.
        self._cache: Dict[int, Tuple[int, int]] = {}
        # (device_id, mac) -> previous cumulative counter value.
        self._client_cache: Dict[Tuple[int, str], int] = {}

    def cached_entry(self, device_id: int) -> Optional[Tuple[int, int]]:
        return self._cache.get(device_id)

    # -------------------------------------------------------------- poll

    def poll(self) -> UsagePollStats:
        """One fetch round over every registered device."""
        stats = UsagePollStats()
        self._expire_stale_entries()
        for device_id in self.mtunnel.device_ids():
            stats.devices_polled += 1
            try:
                device = self.mtunnel.reach(device_id)
            except DeviceUnreachable:
                stats.devices_unreachable += 1
                continue
            self._handle_response(device, stats)
        return stats

    def _expire_stale_entries(self) -> None:
        # §4.1.1: entries older than T behave identically to first
        # contact, so they can be dropped to bound the cache.
        cutoff = self.clock.now() - self.threshold_micros
        stale = [device_id for device_id, (t1, _c1) in self._cache.items()
                 if t1 < cutoff]
        for device_id in stale:
            del self._cache[device_id]
            self._client_cache = {
                key: value for key, value in self._client_cache.items()
                if key[0] != device_id
            }

    def _handle_response(self, device, stats: UsagePollStats) -> None:
        t2, c2 = device.read_counter()
        cached = self._cache.get(device.device_id)
        self._cache[device.device_id] = (t2, c2)
        if cached is None:
            stats.first_contacts += 1
            self._cache_clients(device)
            return
        t1, c1 = cached
        if t2 <= t1:
            return
        if t2 - t1 > self.threshold_micros:
            # Too long a gap to honestly claim a steady rate (§4.1.1).
            stats.gaps += 1
            self._cache_clients(device)
            return
        rate = (c2 - c1) / ((t2 - t1) / 1_000_000.0)  # bytes/second
        self.table.insert_tuples([
            (device.network_id, device.device_id, t2, t1, c2, rate)
        ])
        stats.rows_inserted += 1
        if self.client_table is not None:
            stats.rows_inserted += self._insert_client_rows(device, t1, t2)

    def _cache_clients(self, device) -> None:
        if self.client_table is None:
            return
        _t, counters = device.read_client_counters()
        for mac, value in counters.items():
            self._client_cache[(device.device_id, mac)] = value

    def _insert_client_rows(self, device, t1: int, t2: int) -> int:
        _t, counters = device.read_client_counters()
        rows = []
        for mac in sorted(counters):
            value = counters[mac]
            previous = self._client_cache.get((device.device_id, mac))
            self._client_cache[(device.device_id, mac)] = value
            if previous is None:
                continue
            delta = value - previous
            if delta < 0:
                continue
            rows.append((device.network_id, mac, t2, delta))
        if rows:
            self.client_table.insert_tuples(rows)
        return len(rows)

    # ---------------------------------------------------------- recovery

    def rebuild_cache(self, table: Optional[Table] = None) -> int:
        """Rebuild the in-memory cache after a LittleTable crash.

        §4.1.1: "UsageGrabber can rebuild its in-memory cache by
        querying LittleTable for the maximum timestamp and associated
        counter value for each device from the current time minus T
        forward."  One scan of the last T of data suffices.  Returns
        the number of devices recovered.
        """
        if table is not None:
            self.table = table
        self._cache.clear()
        self._client_cache.clear()
        now = self.clock.now()
        query = Query(KeyRange.all(),
                      TimeRange.between(now - self.threshold_micros, None))
        latest: Dict[int, Tuple[int, int]] = {}
        for row in self.table.scan(query):
            _network, device_id, ts, _prev_ts, counter, _rate = row
            held = latest.get(device_id)
            if held is None or ts > held[0]:
                latest[device_id] = (ts, counter)
        self._cache.update(latest)
        return len(latest)
