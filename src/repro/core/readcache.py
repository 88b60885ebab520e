"""The read-path cache subsystem: decoded blocks, tablet pruning,
and hot latest-row lookups.

The paper's two-dimensional clustering (§3) exists so a dashboard's
read rectangles touch few tablets and few blocks - but without a
cache, *repeated* rectangles pay the full decompress+decode cost every
time, and every query still sweeps the whole tablet list to find the
overlapping ones.  This module removes both costs:

* :class:`ReadCache` - one engine-wide, byte-budgeted LRU over
  **opened blocks** (:class:`CachedBlock`), shared by every table of
  a database.  A warm query never touches the disk model or zlib, and
  decodes only what no reader of the block has decoded yet.
  (A parsed footer lives on its tablet's
  :class:`~repro.core.tablet.TabletReader`, §3.2, not here.)
* :class:`TabletPruneIndex` - a per-table interval index over tablet
  timespans (sorted by ``min_ts`` with a running ``max_ts`` prefix
  maximum), plus per-tablet key-range zone maps, so query planning is
  O(log n + answer) instead of a linear sweep of ``on_disk_tablets``.
* :class:`LatestRowCache` - a tiny per-table LRU for ``latest(prefix)``
  hot lookups (the §3.4.5 dashboard pattern), invalidated by inserts
  that cover the prefix and by a table-level generation counter.

Invalidation model
------------------

Tablet files are immutable, so a cached block can only go stale by
*identity* confusion, never by content change.  The cache therefore
never trusts caller-supplied tablet ids (which recur across
drop/recreate): each tablet reader takes a process-unique **uid**
when it is built, and all cache keys embed that uid.  Every mutation
that removes or replaces a tablet (merge, TTL expiry, bulk-delete
rewrite, cold migration, drop) drops the reader and invalidates its
uid; a new tablet - even one reusing a tablet id or filename - gets a
new reader with a fresh uid and can never alias the old entries.

The latest-row cache has real content staleness (a newer row can
arrive), so it carries a per-table **generation counter**: bumped by
every mutation path, observable via the ``readcache.generation``
counter and ``stats_summary()["cache_generation"]``, and checked on
every lookup, so a stale entry can never be served.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.metrics import NULL_REGISTRY
from .row import KeyRange, TimeRange

# Rough per-row Python object overhead charged on top of the decoded
# payload bytes, so the byte budget tracks resident size rather than
# just on-disk size.
ROW_OVERHEAD_BYTES = 56


class CachedBlock:
    """One cached block: its walked v3 body
    (:class:`~repro.core.codec.BlockBody`, checked end to end on
    admission, when nothing is decoded), the columns decoded from it,
    and its rows as scans take them.

    ``columns`` has a slot per schema column, None until a reader needs
    the column whole: a key column when a scan first bisects it, a
    column an aggregate or a query page reads.  ``rows`` starts as
    Nones; a scan fills the stretch it takes with row tuples
    (``TabletReader._built_rows``), decoding the other columns for that
    stretch alone.  Once every column is decoded from the body, the
    body and the rows built so far are dropped; once every row exists,
    ``body`` and the columns are, and a column asked for later is taken
    from the rows, which stay.  An entry never goes back to a form it
    has left, so a block that scans and pages both read is decoded
    once.  Those changes, and every build or decode into the entry,
    happen under ``lock``; a reader that finds what it wants takes
    none.  No key tuples are kept.  ``nbytes`` is the budget's charge,
    fixed at admission: the raw length plus ``ROW_OVERHEAD_BYTES`` a
    row.
    """

    __slots__ = ("body", "columns", "rows", "nbytes", "lock")

    def __init__(self, body):
        self.lock = threading.Lock()
        self.body = body
        self.columns: List[Optional[List[Any]]] = [None] * len(body.types)
        self.rows: List[Optional[Tuple[Any, ...]]] = [None] * body.count
        self.nbytes = len(body.view) + ROW_OVERHEAD_BYTES * body.count


class ReadCache:
    """Engine-wide byte-budgeted LRU over decoded blocks.

    One instance is shared by every table of a :class:`LittleTable`
    (the budget is global, like an OS page cache); a standalone
    :class:`~repro.core.table.Table` gets a private one.  All methods
    are thread-safe: the network server runs tables on separate
    connection threads, and they share this cache.

    ``budget_bytes <= 0`` disables caching entirely (gets miss, puts
    drop); uids are still handed out.
    """

    def __init__(self, budget_bytes: int, metrics=None):
        self.budget_bytes = budget_bytes
        m = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = m.counter("readcache.block.hits")
        self._m_misses = m.counter("readcache.block.misses")
        self._m_evictions = m.counter("readcache.block.evictions")
        self._m_invalidations = m.counter("readcache.invalidations")
        self._g_resident = m.gauge("readcache.block.resident_bytes")
        self._g_entries = m.gauge("readcache.block.entries")
        self._lock = threading.Lock()
        self._uids = itertools.count(1)
        self._blocks: "OrderedDict[Tuple[int, int], CachedBlock]" = \
            OrderedDict()
        # uid -> block indexes currently cached, for O(entries-of-uid)
        # invalidation instead of a full-cache sweep.
        self._uid_blocks: Dict[int, Set[int]] = {}
        self._resident_bytes = 0

    # -------------------------------------------------------------- uids

    def allocate_uid(self) -> int:
        """A process-unique identity for one live tablet file."""
        return next(self._uids)

    # ------------------------------------------------------------ blocks

    def get_block(self, uid: int, index: int) -> Optional[CachedBlock]:
        """The cached decode of block ``index``, or None (a miss)."""
        if self.budget_bytes <= 0:
            return None
        with self._lock:
            entry = self._blocks.get((uid, index))
            if entry is None:
                self._m_misses.inc()
                return None
            self._blocks.move_to_end((uid, index))
            self._m_hits.inc()
            return entry

    def put_block(self, uid: int, index: int, entry: CachedBlock) -> None:
        """Admit one decoded block; evicts LRU entries past the budget.

        An entry whose charge alone exceeds the budget is not admitted
        (and evicts nothing): it could only push everything else out
        and then itself."""
        if self.budget_bytes <= 0 or entry.nbytes > self.budget_bytes:
            return
        with self._lock:
            key = (uid, index)
            old = self._blocks.pop(key, None)
            if old is not None:
                self._resident_bytes -= old.nbytes
            self._blocks[key] = entry
            self._uid_blocks.setdefault(uid, set()).add(index)
            self._resident_bytes += entry.nbytes
            while self._resident_bytes > self.budget_bytes and self._blocks:
                evicted_key, evicted = self._blocks.popitem(last=False)
                self._resident_bytes -= evicted.nbytes
                self._uid_blocks.get(evicted_key[0], set()).discard(
                    evicted_key[1])
                self._m_evictions.inc()
            self._publish_gauges()

    def _publish_gauges(self) -> None:
        self._g_resident.set(self._resident_bytes)
        self._g_entries.set(len(self._blocks))

    # ------------------------------------------------------ invalidation

    def invalidate_tablet(self, uid: int) -> int:
        """Drop every cached block of one tablet uid.

        Called whenever the tablet's file is deleted or replaced;
        returns the number of entries dropped.
        """
        dropped = 0
        with self._lock:
            for index in self._uid_blocks.pop(uid, ()):  # noqa: B020
                entry = self._blocks.pop((uid, index), None)
                if entry is not None:
                    self._resident_bytes -= entry.nbytes
                    dropped += 1
            self._publish_gauges()
        if dropped:
            self._m_invalidations.inc(dropped)
        return dropped

    def invalidate_tablets(self, uids: Iterable[int]) -> int:
        return sum(self.invalidate_tablet(uid) for uid in list(uids))

    # -------------------------------------------------------------- stats

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def entry_count(self) -> int:
        return len(self._blocks)


#: Cache used when none is supplied: uids are process-unique but
#: nothing is ever stored.
NULL_READ_CACHE = ReadCache(budget_bytes=0)


class TabletPruneIndex:
    """Interval index + zone maps over a table's on-disk tablets.

    Rebuilt lazily whenever the descriptor generation changes (every
    publish advances it).  Tablets are sorted by ``min_ts``; ``select``
    binary-searches the sorted order and walks backwards until a
    running prefix-maximum of ``max_ts`` proves no earlier tablet can
    overlap - O(log n + k) for the mostly-disjoint timespans
    two-dimensional clustering produces (§3.4), against O(n) for the
    old linear sweep.

    Key-dimension pruning uses per-tablet zone maps: the first and
    last primary key each tablet holds (recorded by the writer,
    persisted in the descriptor).  A tablet whose whole key interval
    falls outside the query's key range is skipped without opening its
    reader.  Tablets from pre-zone-map descriptors (``min_key`` is
    None) are never key-pruned.

    Concurrency: the built index lives in one immutable state tuple
    bound to a single attribute, so concurrent off-lock readers either
    see a complete prior build or trigger a (idempotent) rebuild of
    their own - never a half-written index.  A query passes the
    version its read pinned, so a publish racing it cannot pair a new
    generation with an old tablet list.
    """

    # One immutable tuple: (generation, tablets_by_min_ts, min_ts list,
    # prefix-max-ts list).  Rebuilds replace the whole binding.
    _EMPTY = (None, [], [], [])

    def __init__(self):
        self._state: Tuple[Optional[int], List[Any], List[int],
                           List[int]] = self._EMPTY

    @staticmethod
    def _build(generation: int, source: List[Any]):
        tablets = sorted(source, key=lambda t: (t.min_ts, t.tablet_id))
        min_ts = [t.min_ts for t in tablets]
        prefix_max: List[int] = []
        running = None
        for meta in tablets:
            running = meta.max_ts if running is None else max(
                running, meta.max_ts)
            prefix_max.append(running)
        return (generation, tablets, min_ts, prefix_max)

    def select(self, version, time_range: TimeRange,
               key_range: Optional[KeyRange] = None
               ) -> Tuple[List[Any], int]:
        """Tablets of ``version`` (a frozen table version) that may
        hold rows in the query rectangle.  Returns ``(selected,
        pruned_count)`` where ``selected`` is in ``min_ts`` order and
        ``pruned_count`` is how many on-disk tablets were skipped
        without opening a reader.
        """
        generation = version.generation
        state = self._state
        if state[0] != generation:
            state = self._build(generation, version.tablets)
            self._state = state
        _generation, tablets, min_ts_list, prefix_max_ts = state
        total = len(tablets)
        if not total:
            return [], 0
        ts_min = time_range.min_ts
        ts_max = time_range.max_ts
        # Tablets with min_ts > ts_max cannot overlap.
        high = (bisect.bisect_right(min_ts_list, ts_max)
                if ts_max is not None else total)
        selected: List[Any] = []
        for index in range(high - 1, -1, -1):
            if ts_min is not None:
                # No tablet at or before ``index`` reaches ts_min:
                # the prefix maximum bounds every earlier max_ts.
                if prefix_max_ts[index] < ts_min:
                    break
                if tablets[index].max_ts < ts_min:
                    continue
            if key_range is not None and _zone_map_excludes(
                    tablets[index], key_range):
                continue
            selected.append(tablets[index])
        selected.reverse()
        return selected, total - len(selected)


def _zone_map_excludes(meta, key_range: KeyRange) -> bool:
    """True when the tablet's key interval cannot intersect the range.

    Uses the monotone :meth:`KeyRange.before_range` /
    :meth:`KeyRange.after_range` predicates: if the tablet's *largest*
    key is still below the range, or its *smallest* key already above
    it, no row can qualify.
    """
    if meta.min_key is None or meta.max_key is None:
        return False
    return (key_range.before_range(tuple(meta.max_key))
            or key_range.after_range(tuple(meta.min_key)))


class LatestEntry:
    """One cached ``latest(prefix)`` answer.

    ``row`` is the table's *global* latest row for the prefix (the
    search walks timespan groups newest-first, so a non-None result is
    always the overall newest).  ``none_cutoff`` records, for a None
    answer, the oldest timestamp the search was allowed to consider:
    "no row at or after ``none_cutoff``".  ``generation`` pins the
    entry to the table's cache generation.
    """

    __slots__ = ("generation", "row", "none_cutoff")

    def __init__(self, generation: int, row: Optional[Tuple[Any, ...]],
                 none_cutoff: Optional[int]):
        self.generation = generation
        self.row = row
        self.none_cutoff = none_cutoff


_MISS = object()


class LatestRowCache:
    """Per-table LRU for hot ``latest(prefix)`` lookups (§3.4.5).

    The Dashboard's front page asks for the newest status row of the
    same devices over and over; each answer here saves a descending
    multi-tablet merge.  Correctness:

    * any insert whose key starts with a cached prefix drops that
      entry (:meth:`invalidate_key`);
    * every table mutation (merge, TTL, bulk delete, migration,
      schema change) bumps the table's generation, orphaning all
      entries at once;
    * TTL / lookback windows are re-checked at lookup time against the
      entry's timestamp, so a cached row is never served from beyond
      the caller's window - and because the cached row is the global
      latest, a row older than the window proves the answer is None.

    Thread safety: lookups run off the table's state lock (the read
    path is non-blocking), inserts invalidate under it, so every
    method takes the cache's own small lock; holds are O(1)-ish and
    never nest inside another lock acquisition.
    """

    def __init__(self, capacity: int, metrics=None):
        self.capacity = capacity
        m = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = m.counter("readcache.latest.hits")
        self._m_misses = m.counter("readcache.latest.misses")
        self._m_invalidations = m.counter("readcache.latest.invalidations")
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Any, ...], LatestEntry]" = \
            OrderedDict()
        # Lengths of prefixes currently cached -> entry count, so
        # insert-time invalidation probes one dict key per distinct
        # length instead of scanning the cache.
        self._lengths: Dict[int, int] = {}

    def lookup(self, prefix: Tuple[Any, ...], generation: int,
               cutoff: Optional[int], ts_of) -> Any:
        """A cached answer (row or None), or the ``MISS`` sentinel.

        ``cutoff`` is the effective lower timestamp bound (TTL and/or
        max-lookback) for *this* lookup; ``ts_of`` extracts a row's
        timestamp.
        """
        if self.capacity <= 0:
            return _MISS
        with self._lock:
            entry = self._entries.get(prefix)
            if entry is None or entry.generation != generation:
                self._m_misses.inc()
                return _MISS
            if entry.row is not None:
                self._entries.move_to_end(prefix)
                self._m_hits.inc()
                if cutoff is not None and ts_of(entry.row) < cutoff:
                    # The global latest is older than the caller's
                    # window, so nothing qualifies.
                    return None
                return entry.row
            # Cached None: valid only if this lookup's window is no
            # wider (its cutoff is at least as recent) than the one
            # that proved emptiness.  none_cutoff None means "table
            # had no such row at all", valid for every window.
            if entry.none_cutoff is None or (
                    cutoff is not None and cutoff >= entry.none_cutoff):
                self._entries.move_to_end(prefix)
                self._m_hits.inc()
                return None
            self._m_misses.inc()
            return _MISS

    @property
    def miss_sentinel(self) -> Any:
        return _MISS

    def store(self, prefix: Tuple[Any, ...], generation: int,
              row: Optional[Tuple[Any, ...]],
              cutoff: Optional[int]) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            old = self._entries.pop(prefix, None)
            if old is not None:
                self._dec_length(len(prefix))
            self._entries[prefix] = LatestEntry(
                generation, row, cutoff if row is None else None)
            self._lengths[len(prefix)] = \
                self._lengths.get(len(prefix), 0) + 1
            while len(self._entries) > self.capacity:
                evicted_prefix, _entry = self._entries.popitem(last=False)
                self._dec_length(len(evicted_prefix))

    def _dec_length(self, length: int) -> None:
        count = self._lengths.get(length, 0) - 1
        if count <= 0:
            self._lengths.pop(length, None)
        else:
            self._lengths[length] = count

    def invalidate_key(self, key: Tuple[Any, ...]) -> None:
        """Drop entries whose prefix covers an inserted row's key."""
        # Unlocked emptiness probe: this runs once per inserted row,
        # and an insert-heavy table with no latest() traffic should
        # not pay a lock round-trip per row.  A racing put() after the
        # probe is benign - the entry it caches already reflects the
        # row being inserted or loses to the insert's generation bump.
        if not self._entries:
            return
        with self._lock:
            if not self._entries:
                return
            for length in list(self._lengths):
                entry = self._entries.pop(key[:length], None)
                if entry is not None:
                    self._dec_length(length)
                    self._m_invalidations.inc()

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            if dropped:
                self._m_invalidations.inc(dropped)
            self._entries.clear()
            self._lengths.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
