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

Concurrency: a memtable has no lock of its own.  Inserts are
serialized by the owning table's state lock; scans may run off-lock
concurrently with an insert because the skiplist links a new node's
forward pointers before splicing it into its predecessors, so a
concurrent reader sees "some, all, or none" of an in-flight batch
(exactly the paper's §3.1 read semantics) but never a broken chain.
Once a memtable is marked read-only (flush-pending) it is immutable:
the off-lock flush writer and any number of readers can walk it
freely.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from ..util.skiplist import SkipList
from .codec import compiled_ops
from .periods import Period
from .row import KeyRange
from .schema import Schema


class MemTable:
    """One filling (or flush-pending) in-memory tablet."""

    def __init__(self, memtable_id: int, schema: Schema, period: Period):
        self.memtable_id = memtable_id
        self.schema = schema
        self.period = period
        self.rows = SkipList(seed=0xBADC0DE ^ memtable_id)
        self.size_bytes = 0
        self.min_ts: Optional[int] = None
        self.max_ts: Optional[int] = None
        self.first_insert_at: Optional[int] = None
        self.read_only = False
        self._ops = compiled_ops(schema)
        self._max_key: Optional[Tuple[Any, ...]] = None
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
        return len(self.rows)

    @property
    def empty(self) -> bool:
        return len(self.rows) == 0

    def insert(self, row: Tuple[Any, ...], now: int) -> bool:
        """Add a validated row.  Returns False on duplicate key."""
        ops = self._ops
        return self.insert_sized(ops.key_of(row), row, ops.size_of(row),
                                 now)

    def insert_sized(self, key: Tuple[Any, ...], row: Tuple[Any, ...],
                     size: int, now: int) -> bool:
        """Fast-path insert: key and encoded size already computed.

        The table's batch insert path validates and sizes each row once
        through the compiled codec and hands the results straight here,
        so nothing on the insert path walks the schema twice.
        """
        if self.read_only:
            raise RuntimeError("insert into a read-only memtable")
        if not self.rows.insert(key, (row, size)):
            return False
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

    def contains_key(self, key: Tuple[Any, ...]) -> bool:
        return key in self.rows

    def mark_read_only(self) -> None:
        """Freeze the memtable ahead of flushing (§3.2)."""
        self.read_only = True

    def age_micros(self, now: int) -> int:
        """Micros since the first insert (0 if empty)."""
        if self.first_insert_at is None:
            return 0
        return now - self.first_insert_at

    # ----------------------------------------------------------- reading

    def sorted_run(self) -> Tuple[List[Tuple[Any, ...]], List[int]]:
        """Every row in ascending key order and, beside it, each row's
        encoded size: ``(rows, sizes)``, the run a flush or a snapshot
        hands to ``TabletWriter.write``."""
        pairs = [pair for _key, pair in self.rows.items()]
        return [row for row, _size in pairs], [size for _row, size in pairs]

    def last_key(self) -> Optional[Tuple[Any, ...]]:
        """The largest key currently held, or None (O(1))."""
        return self._max_key

    def scan(self, key_range: KeyRange, descending: bool = False
             ) -> Iterator[Tuple[Any, ...]]:
        """Yield rows within the key range, in key order.

        Descending scans materialize the matching run (the skip list is
        singly linked); memtables are bounded by the flush size, so
        this is at most a few MB.
        """
        seek = key_range.seek_min()
        if seek is None:
            source = self.rows.items()
        else:
            source = self.rows.items_from(seek)
        if not descending:
            for key, (row, _size) in source:
                if key_range.before_range(key):
                    continue
                if key_range.after_range(key):
                    return
                yield row
            return
        matched: List[Tuple[Any, ...]] = []
        for key, (row, _size) in source:
            if key_range.before_range(key):
                continue
            if key_range.after_range(key):
                break
            matched.append(row)
        yield from reversed(matched)
