"""Primary-key uniqueness: the §3.4.4 check and its fast paths.

"LittleTable enforces the uniqueness of primary keys ... most inserts
are of rows with timestamps newer than any other in their table, and
checking for uniqueness in this case requires only a comparison
against cached metadata."  Three tiers, cheapest first:

1. the timestamp is newer than any row the table ever stored;
2. the key is larger than any other key in its time period, checkable
   from tablet zone maps and memtable maxima;
3. a point query, possibly touching disk, with Bloom filters skipping
   most tablets (§3.4.5): ``TabletReader.probe_key`` bisects the keys
   of the one block that could hold the row, read through the same
   cached decode a scan uses, so a run of late rows (a WAL replay over
   flushed rows) reads a block once for as long as the cache holds it.

The checker owns only what the fast paths cache (the newest timestamp
and the per-period maximum key); the memtables and the tablet list
are the table's, passed in under its state lock, which also
serializes the check against publishes.
"""

from __future__ import annotations

from typing import (Any, Callable, Collection, Dict, List, Optional,
                    Sequence, Tuple)

from .config import EngineConfig
from .descriptor import TableDescriptor
from .memtable import MemTable
from .periods import Period, period_for
from .tablet import TabletMeta, TabletReader

Key = Tuple[Any, ...]


class KeyUniqueness:
    """Decides whether a key is new to one table."""

    def __init__(self, config: EngineConfig, metrics,
                 open_reader: Callable[[TabletMeta], TabletReader],
                 bloom_prefix: Callable[[Sequence[Any]],
                                        Optional[List[bytes]]],
                 tablets: Sequence[TabletMeta]):
        self._config = config
        self._open_reader = open_reader
        self._bloom_prefix = bloom_prefix
        self._m_fast_ts = metrics.counter("insert.uniqueness.fast_path_ts")
        self._m_fast_max = metrics.counter(
            "insert.uniqueness.fast_path_period_max")
        self._m_slow = metrics.counter("insert.uniqueness.slow_path")
        #: Newest timestamp ever stored; the admit loop writes it
        #: through after each accepted row.
        self.max_ts_ever: Optional[int] = max(
            (t.max_ts for t in tablets), default=None)
        # (period.start, level) -> (descriptor generation, max key).
        self._period_max: Dict[Tuple[int, int], Tuple[int, Any]] = {}

    def forget(self) -> None:
        """Drop cached tablet maxima (a simulated restart)."""
        self._period_max.clear()

    def is_unique(self, key: Key, ts: int, now: int,
                  memtables: Collection[MemTable],
                  descriptor: TableDescriptor) -> bool:
        if self.max_ts_ever is None or ts > self.max_ts_ever:
            self._m_fast_ts.inc()
            return True
        period = period_for(ts, now, self._config.time_partitioning)
        if self._above_period_max(key, period, memtables, descriptor):
            self._m_fast_max.inc()
            return True
        self._m_slow.inc()
        return not self._exists(key, ts, memtables, descriptor.tablets)

    def _above_period_max(self, key: Key, period: Period,
                          memtables: Collection[MemTable],
                          descriptor: TableDescriptor) -> bool:
        for memtable in memtables:
            if memtable.empty:
                continue
            if (memtable.max_ts < period.start
                    or memtable.min_ts >= period.end):
                continue
            last = memtable.last_key()
            if last is not None and key <= last:
                return False
        tablet_max = self._tablet_period_max(period, descriptor)
        return tablet_max is None or key > tablet_max

    def _tablet_period_max(self, period: Period,
                           descriptor: TableDescriptor) -> Optional[Key]:
        """Largest on-disk key among tablets overlapping ``period``.

        Cached per period and invalidated whenever the tablet set
        changes (descriptor generation bump) - the check runs for
        every inserted row, so it must not rescan tablet indexes.
        """
        cache_key = (period.start, int(period.level))
        cached = self._period_max.get(cache_key)
        if cached is not None and cached[0] == descriptor.generation:
            return cached[1]
        maximum: Optional[Key] = None
        for meta in descriptor.tablets:
            if meta.max_ts < period.start or meta.min_ts >= period.end:
                continue
            if meta.max_key is not None:
                # Zone map recorded by the writer: the tablet's last
                # key, no reader needed.
                if maximum is None or meta.max_key > maximum:
                    maximum = meta.max_key
                continue
            last_keys = self._open_reader(meta).last_keys
            if last_keys and (maximum is None or last_keys[-1] > maximum):
                maximum = last_keys[-1]
        self._period_max[cache_key] = (descriptor.generation, maximum)
        return maximum

    def _exists(self, key: Key, ts: int, memtables: Collection[MemTable],
                tablets: Sequence[TabletMeta]) -> bool:
        for memtable in memtables:
            if memtable.contains_key(key):
                return True
        candidates = [meta for meta in tablets
                      if meta.min_ts <= ts <= meta.max_ts]
        if not candidates:
            return False
        # Encode the bloom probe only once a tablet actually overlaps
        # the row's timestamp (most point checks stop at the ts test).
        encoded_prefix = self._bloom_prefix(key[:-1])
        for meta in candidates:
            reader = self._open_reader(meta)
            if (encoded_prefix is not None
                    and reader.may_contain_prefix(encoded_prefix) is False):
                continue
            if reader.probe_key(key):
                return True
        return False
