"""In-memory tablets.

Paper §3.2: "It places newly inserted rows into an in-memory tablet,
implemented as a balanced binary tree.  When an in-memory tablet
reaches a configurable maximum size or age, LittleTable marks it as
read-only, adds it to a list of tablets to flush to disk, and allocates
another in-memory tablet to receive new rows."

§3.4.3 adds that several in-memory tablets fill at once, one per time
period, to keep tablets' timespans mostly disjoint when clients insert
rows with timestamps other than "now".

Each memtable remembers, alongside the row, its encoded *size* (not the
bytes): size accounting still matches on-disk v1 bytes (the 16 MB
flush threshold is about disk write efficiency, §3.3), but rows are
not serialized until flush, which takes the memtable as one sorted
run (:meth:`MemTable.sorted_run`: the rows and their sizes) and
batch-encodes it through the block codec (``core/codec.py``).

Not a tree: the paper's in-memory tablet is "a balanced binary tree",
whose jobs are to refuse a duplicate key, to answer ordered range
reads and to hand the flusher one sorted run.  Here a ``dict`` keyed by
primary key does the first in O(1), and the order lives in a few
sorted key lists ("runs") consolidated by the paper's own merge rule
(§3.4.1, in memory: merge while the older run is at most twice the
newer), so there are O(log n) of them and a key is re-sorted O(log n)
times, each time by one C ``sorted()`` over presorted stretches.  Poll
cycles arrive as batches that are sorted or nearly so; a per-row
ordered insert pays for an order nobody reads until the batch is in.

Concurrency: a memtable has no lock of its own.  Inserts are
serialized by the owning table's state lock; scans run off-lock
concurrently with an insert.  What a reader sees is the one published
state ``(runs, tail)``: ``runs`` a tuple of sorted key lists never
mutated once published, ``tail`` the keys of the batch in flight in
arrival order, only ever appended to.  The table's admit loop *seals*
every memtable it touched before it lets go of the lock
(:meth:`MemTable.seal`: sort the tail, add it as a run, consolidate,
publish the new tuple with one attribute store).  A reader loads the
attribute once and copies the tail in one C call, so it sees every
sealed batch whole and a prefix of the one in flight - "some, all, or
none" of it, §3.1 - and a later reader sees at least as much.  The
dict is written before the tail and never shrinks, so a key a reader
holds resolves however late it is looked up (a scan merges and looks
up only as far as it is read).  Once marked read-only (flush-pending)
a memtable is immutable: the off-lock flush writer and any number of
readers can use it freely.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .codec import compiled_ops
from .periods import Period
from .row import FIRST_RUN_ROWS, KeyRange, Run, rows_of
from .schema import Schema

Key = Tuple[Any, ...]
Row = Tuple[Any, ...]
#: What a reader works from: sorted runs, oldest and longest first, and
#: the unsorted keys of the batch in flight.
State = Tuple[Tuple[List[Key], ...], List[Key]]

_row_of = itemgetter(0)
_size_of = itemgetter(1)


def _merged(parts) -> List[Key]:
    """One sorted list out of several (sorted parts are only merged)."""
    keys: List[Key] = []
    for part in parts:
        keys += part
    keys.sort()
    return keys


def _chunks(spans: List[list], descending: bool,
            step: int = FIRST_RUN_ROWS) -> Iterator[List[Key]]:
    """Several sorted spans ``[run, start, stop]`` as one walk, up or
    down, in chunks that each ascend.  While some span is longer than
    ``step``, a round takes from every span the keys not past the
    nearest of those spans' ``step``-th keys - at most ``step`` each,
    and nothing left behind comes before them - and ``step`` doubles;
    then the rest goes as one chunk.  The first row costs a small sort
    however long the spans are, a whole walk about one sort of
    everything."""
    while spans:
        longer = [span for span in spans if span[2] - span[1] > step]
        chunk: List[Key] = []
        if not longer:
            for run, start, stop in spans:
                chunk += run[start:stop]
            spans = []
        elif descending:
            edge = max(run[stop - step] for run, _, stop in longer)
            for span in spans:
                run, start, stop = span
                span[2] = bisect_left(run, edge, start, stop)
                chunk += run[span[2]:stop]
        else:
            edge = min(run[start + step - 1] for run, start, _ in longer)
            for span in spans:
                run, start, stop = span
                span[1] = bisect_right(run, edge, start, stop)
                chunk += run[start:span[1]]
        chunk.sort()
        yield chunk
        step *= 2


class MemTable:
    """One filling (or flush-pending) in-memory tablet."""

    def __init__(self, memtable_id: int, schema: Schema, period: Period):
        self.memtable_id = memtable_id
        self.schema = schema
        self.period = period
        # key -> (row, encoded size): the uniqueness probe, and where
        # a reader turns the keys it selected into rows.
        self._index: Dict[Key, Tuple[Row, int]] = {}
        self._state: State = ((), [])
        self.size_bytes = 0
        self.min_ts: Optional[int] = None
        self.max_ts: Optional[int] = None
        self.first_insert_at: Optional[int] = None
        self.read_only = False
        self._ops = compiled_ops(schema)
        self._max_key: Optional[Key] = None
        # WAL bookkeeping (durability tiers): the lowest LSN of the log
        # records whose rows live here.  None until the first logged
        # batch touches this memtable; once every memtable at or below
        # an LSN is flushed the table advances the WAL low-water mark
        # past it and recycles covered segments.
        self.min_wal_lsn: Optional[int] = None

    def note_wal_lsn(self, lsn: int) -> None:
        """Record that log record ``lsn`` put rows into this memtable."""
        if self.min_wal_lsn is None or lsn < self.min_wal_lsn:
            self.min_wal_lsn = lsn

    def __len__(self) -> int:
        return len(self._index)

    @property
    def empty(self) -> bool:
        return not self._index

    def insert(self, row: Row, now: int) -> bool:
        """Add a validated row.  Returns False on duplicate key."""
        ops = self._ops
        return self.insert_sized(ops.key_of(row), row, ops.size_of(row),
                                 now)

    def insert_sized(self, key: Key, row: Row, size: int, now: int) -> bool:
        """Fast-path insert: key and encoded size already computed.

        The table's batch insert path validates and sizes each row once
        through the compiled codec and hands the results straight here,
        so nothing on the insert path walks the schema twice.  The row
        is readable at once (it is in the tail); :meth:`seal` at the
        end of the batch gives it its place in a run.
        """
        if self.read_only:
            raise RuntimeError("insert into a read-only memtable")
        pair = (row, size)
        if self._index.setdefault(key, pair) is not pair:
            return False
        self._state[1].append(key)
        self.size_bytes += size
        ts = row[self.schema.ts_index]
        if self.min_ts is None or ts < self.min_ts:
            self.min_ts = ts
        if self.max_ts is None or ts > self.max_ts:
            self.max_ts = ts
        if self._max_key is None or key > self._max_key:
            self._max_key = key
        if self.first_insert_at is None:
            self.first_insert_at = now
        return True

    def seal(self) -> None:
        """End of a batch: the tail becomes the newest run, merged with
        the runs before it while the older is at most twice the newer
        (§3.4.1's rule, so run lengths more than double from newest to
        oldest), and the result is published in one store.  Caller
        holds the table's state lock."""
        runs, tail = self._state
        if not tail:
            return
        keep, total = len(runs), len(tail)
        while keep and len(runs[keep - 1]) <= 2 * total:
            keep -= 1
            total += len(runs[keep])
        self._state = (runs[:keep] + (_merged(runs[keep:] + (tail,)),), [])

    def contains_key(self, key: Key) -> bool:
        return key in self._index

    def mark_read_only(self) -> None:
        """Freeze the memtable ahead of flushing (§3.2)."""
        self.seal()
        self.read_only = True

    def age_micros(self, now: int) -> int:
        """Micros since the first insert (0 if empty)."""
        if self.first_insert_at is None:
            return 0
        return now - self.first_insert_at

    # ----------------------------------------------------------- reading

    def capture(self) -> State:
        """What a reader arriving now works from, detached from later
        inserts: O(runs) plus the batch in flight (none, under the
        state lock).  :meth:`sorted_run` lays it out, off the lock."""
        runs, tail = self._state
        return runs, list(tail)

    def sorted_run(self, state: Optional[State] = None
                   ) -> Tuple[List[Row], List[int]]:
        """Every row in ascending key order and, beside it, each row's
        encoded size: ``(rows, sizes)``, the run a flush or a snapshot
        hands to ``TabletWriter.write`` - of the memtable as it is, or
        as it was at an earlier :meth:`capture`."""
        runs, tail = self._state if state is None else state
        pairs = list(map(self._index.__getitem__, _merged(runs + (tail,))))
        return list(map(_row_of, pairs)), list(map(_size_of, pairs))

    def last_key(self) -> Optional[Key]:
        """The largest key currently held, or None (O(1))."""
        return self._max_key

    def scan_runs(self, key_range: KeyRange, descending: bool = False
                  ) -> Iterator[Run]:
        """The rows within the key range, as of the call, as
        ``(rows, keys)`` runs in scan order (each run ascends): each
        sorted run is bisected at both ends of the range, and the spans
        inside it are merged, a doubling chunk at a time, as far as
        the caller reads."""
        runs, tail = self._state
        if tail:
            runs += (sorted(tail),)
        spans = [[run, *key_range.span(run)] for run in runs]
        spans = [span for span in spans if span[1] < span[2]]
        lookup = self._index.__getitem__
        for keys in _chunks(spans, descending):
            yield list(map(_row_of, map(lookup, keys))), keys

    def scan(self, key_range: KeyRange, descending: bool = False
             ) -> Iterator[Row]:
        """The rows within the key range, in key order."""
        return rows_of(self.scan_runs(key_range, descending), descending)
