"""The write-ahead log: segmented, CRC32C-framed, LSN-stamped.

The paper's LittleTable has no log - prefix durability via the atomic
descriptor swap is the whole story (§3).  Tables whose
:class:`~repro.core.durability.DurabilityPolicy` selects the ``wal``
or ``replicated`` tier get one of these per table: every acknowledged
insert batch is framed as one record, appended to the active segment,
and fsynced before the insert returns.  Replay at open re-inserts any
logged rows a crash caught still memtable-resident, so acknowledged
writes survive ``kill -9`` at every failpoint site.

Record frame (little-endian)::

    [u32 length]  bytes after this field (crc + body)
    [u32 crc32c]  over the body
    body: [u8 kind][u64 lsn][u32 schema_version][u32 row_count]
          kind 1 (ROWS):  row_count x ([u32 len][v1-encoded row bytes])
          kind 2 (BLOCK): one column block holding the whole batch
                          (format v3, ``core/codec.py``; v2 bodies from
                          older segments replay through the same call)

A torn append persists a prefix of a record; the length/CRC frame
detects it and replay stops at the damaged tail - exactly the prefix
semantics the rest of the engine already guarantees.

Group commit: :meth:`WriteAheadLog.log_batch_block` only buffers (it
runs under the table's state lock and must stay O(memory)).
:meth:`WriteAheadLog.commit` runs off-lock: the first committer
becomes the *leader*, takes the whole buffer - including batches other
threads logged meanwhile - and appends it with one durable write;
followers whose LSN the leader covered return without touching disk.
A single-threaded writer degenerates to one append per batch, which
is what keeps WAL overhead within the benchmark gate.

Segments: the active segment rolls (is *sealed*) once it exceeds
``policy.wal_segment_bytes``.  Sealing is pure bookkeeping - the file
simply stops growing - but sealed segments are the unit of recycling
and of replication streaming.  Flush advances the log's *low-water
mark* (the lowest LSN any unflushed memtable still depends on);
segments wholly below it are deleted, so a quiescent, fully-flushed
table carries zero WAL files.

Recovery reads segments through the **raw storage backend**, never
``SimulatedDisk.read``: replay runs after the env failpoint hook arms
and must not consume faults meant for the workload under test (the
same discipline as :mod:`repro.core.recovery`).
"""

from __future__ import annotations

import re
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..disk.storage import StorageError
from ..disk.vfs import SimulatedDisk
from ..obs.metrics import NULL_REGISTRY
from ..util.checksum import crc32c
from .durability import DurabilityPolicy
from .encoding import RowCodec
from .errors import CorruptTabletError

#: Record kinds (the u8 after the CRC).  ``KIND_BLOCK`` carries the
#: whole batch as one v3 column block (one encode per batch, a C call
#: per column, and replay decodes it the same way); it is the only
#: kind written.  The body is not compressed, so the block's raw size
#: is the log's size.  ``KIND_ROWS`` frames each row's v1 encoding
#: individually and is read-only: segments written before
#: ``KIND_BLOCK`` existed still replay and stream.  The frame leaves
#: room for checkpoint/schema markers without a format bump.
KIND_ROWS = 1
KIND_BLOCK = 2

_FRAME = struct.Struct("<II")          # length, crc32c
_BODY_HEAD = struct.Struct("<BQII")    # kind, lsn, schema_version, row_count
_ROW_LEN = struct.Struct("<I")

_SEGMENT_RE = re.compile(r"wal-(\d{8})\.log$")

#: How often a committer waiting behind the group-commit leader
#: re-checks its LSN; the leader's ``notify_all`` normally wakes it
#: first, this only bounds a missed wake-up.
_COMMIT_RECHECK_S = 0.002


def wal_segment_filename(table_name: str, seq: int) -> str:
    """``tables/<name>/wal-<seq>.log`` - deliberately distinct from the
    ``tab-*.lt`` tablet pattern so the scrub's orphan rule never
    touches log segments."""
    return f"tables/{table_name}/wal-{seq:08d}.log"


def is_wal_filename(filename: str) -> bool:
    """True for any table's WAL segment path."""
    return _SEGMENT_RE.search(filename) is not None


@dataclass
class WalRecord:
    """One decoded log record: an insert batch.

    Exactly one of ``rows`` (per-row v1 encodings, ``KIND_ROWS``) or
    ``block`` (a v3 or v2 column block, ``KIND_BLOCK``) carries the
    data; ``row_count`` is authoritative either way.
    """

    lsn: int
    schema_version: int
    rows: List[bytes]
    block: Optional[bytes] = None
    row_count: int = 0

    def __post_init__(self) -> None:
        if self.block is None and not self.row_count:
            self.row_count = len(self.rows)

    def encode(self) -> bytes:
        if self.block is not None:
            body = _BODY_HEAD.pack(KIND_BLOCK, self.lsn,
                                   self.schema_version,
                                   self.row_count) + self.block
            return _FRAME.pack(len(body) + 4, crc32c(body)) + body
        body = bytearray(_BODY_HEAD.pack(KIND_ROWS, self.lsn,
                                         self.schema_version,
                                         len(self.rows)))
        for row in self.rows:
            body += _ROW_LEN.pack(len(row))
            body += row
        return _FRAME.pack(len(body) + 4, crc32c(bytes(body))) + body


def iter_records(data: bytes, source: str, issues: List[str]):
    """Yield :class:`WalRecord` from one segment's bytes.

    Stops at the first torn or corrupt frame, appending a description
    to ``issues`` - everything before the damage replays, nothing
    after it (prefix semantics within the segment).
    """
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME.size > total:
            issues.append(f"{source}: torn record header at byte {offset}")
            return
        length, stored_crc = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        body_end = body_start + length - 4
        if length < 4 + _BODY_HEAD.size or body_end > total:
            issues.append(f"{source}: torn record at byte {offset}")
            return
        body = data[body_start:body_end]
        if crc32c(body) != stored_crc:
            issues.append(f"{source}: record checksum mismatch at "
                          f"byte {offset}")
            return
        kind, lsn, schema_version, row_count = _BODY_HEAD.unpack_from(body)
        if kind == KIND_BLOCK:
            yield WalRecord(lsn, schema_version, [],
                            block=body[_BODY_HEAD.size:],
                            row_count=row_count)
            offset = body_end
            continue
        if kind != KIND_ROWS:
            issues.append(f"{source}: unknown record kind {kind} at "
                          f"byte {offset}")
            return
        rows: List[bytes] = []
        pos = _BODY_HEAD.size
        ok = True
        for _ in range(row_count):
            if pos + _ROW_LEN.size > len(body):
                ok = False
                break
            (row_len,) = _ROW_LEN.unpack_from(body, pos)
            pos += _ROW_LEN.size
            if pos + row_len > len(body):
                ok = False
                break
            rows.append(body[pos:pos + row_len])
            pos += row_len
        if not ok:
            issues.append(f"{source}: malformed row framing at "
                          f"byte {offset}")
            return
        yield WalRecord(lsn, schema_version, rows)
        offset = body_end


@dataclass
class _Segment:
    seq: int
    filename: str
    min_lsn: Optional[int] = None
    max_lsn: Optional[int] = None
    size_bytes: int = 0
    sealed: bool = False


@dataclass
class WalReplayReport:
    """What replaying one table's log found and did."""

    records: int = 0
    rows_applied: int = 0
    rows_skipped: int = 0  # already durable in a tablet, or duplicates
    segments: int = 0
    issues: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "rows_applied": self.rows_applied,
            "rows_skipped": self.rows_skipped,
            "segments": self.segments,
            "issues": list(self.issues),
        }


def decode_record_rows(record: WalRecord, codec,
                       report: WalReplayReport) -> List[Tuple[Any, ...]]:
    """The rows one record carries, decoded through the table's
    :class:`~repro.core.codec.SchemaCodec`.  Undecodable data - and
    a block that does not hold the record header's ``row_count`` rows
    - is noted on ``report`` and skipped, never raised."""
    if record.block is not None:
        # KIND_BLOCK: the body's format byte picks the decoder (v3, or
        # v2 from a segment written before v3 existed).
        try:
            rows = codec.ops.decode_block(record.block)[0]
            if len(rows) != record.row_count:
                raise CorruptTabletError(
                    f"block holds {len(rows)} rows, not the header's "
                    f"{record.row_count}")
            return rows
        except CorruptTabletError as exc:
            report.issues.append(
                f"record lsn={record.lsn}: undecodable block ({exc}); "
                f"{record.row_count} rows skipped")
            report.rows_skipped += record.row_count
            return []
    decode = RowCodec(codec.schema).decode_row
    rows = []
    for encoded in record.rows:
        try:
            rows.append(decode(encoded)[0])
        except (ValueError, IndexError, struct.error) as exc:
            report.issues.append(
                f"record lsn={record.lsn}: undecodable row ({exc}); "
                f"skipped")
            report.rows_skipped += 1
    return rows


class WriteAheadLog:
    """One table's segmented log with group commit."""

    def __init__(self, disk: SimulatedDisk, table_name: str,
                 policy: DurabilityPolicy, metrics=None):
        self.disk = disk
        self.table_name = table_name
        self.policy = policy
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_appends = registry.counter("wal.appends")
        self._m_bytes = registry.counter("wal.bytes_appended")
        self._m_records = registry.counter("wal.records")
        self._m_group = registry.counter("wal.group_committed_records")
        self._m_sealed = registry.counter("wal.segments_sealed")
        self._m_recycled = registry.counter("wal.segments_recycled")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # (lsn, framed bytes) batches logged but not yet appended.
        self._buffer: List[Tuple[int, bytes]] = []
        self._buffer_bytes = 0
        self._leader_active = False
        self._next_lsn = 1
        self._durable_lsn = 0
        self._low_water = 1
        self._seq = 1
        self._segments: List[_Segment] = []

    # ------------------------------------------------------------ state

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    @property
    def low_water(self) -> int:
        return self._low_water

    def _filename(self, seq: int) -> str:
        return wal_segment_filename(self.table_name, seq)

    # --------------------------------------------------------- recovery

    def recover(self) -> Tuple[List[WalRecord], WalReplayReport]:
        """Scan existing segments (raw storage reads) at open.

        Returns the records to replay, in LSN order, plus a report.
        Bookkeeping is primed so a later flush recycles the old
        segments; appending always starts a *fresh* segment, never the
        tail of a possibly-torn old one.
        """
        report = WalReplayReport()
        records: List[WalRecord] = []
        storage = self.disk.storage
        prefix = f"tables/{self.table_name}/wal-"
        max_seq = 0
        for filename in sorted(storage.list(prefix)):
            match = _SEGMENT_RE.search(filename)
            if match is None:
                continue
            seq = int(match.group(1))
            max_seq = max(max_seq, seq)
            data = storage.read_all(filename)
            segment = _Segment(seq, filename, size_bytes=len(data),
                               sealed=True)
            for record in iter_records(data, filename, report.issues):
                records.append(record)
                if segment.min_lsn is None:
                    segment.min_lsn = record.lsn
                segment.max_lsn = record.lsn
            self._segments.append(segment)
            report.segments += 1
        records.sort(key=lambda r: r.lsn)
        report.records = len(records)
        if records:
            self._next_lsn = records[-1].lsn + 1
            self._durable_lsn = records[-1].lsn
        self._seq = max_seq + 1
        return records, report

    # ----------------------------------------------------- write path

    def log_batch_block(self, block: bytes, row_count: int,
                        schema_version: int) -> int:
        """Buffer one insert batch as a v3 column block
        (``KIND_BLOCK``); returns its LSN.

        The insert path encodes its whole accepted batch with the
        schema's block encoder and hands the payload over -
        one encode, one CRC, no per-row byte strings.  Called under
        the table's state lock: no I/O here, ever.  The batch is not
        durable until :meth:`commit` returns for the LSN.
        """
        with self._lock:
            lsn = self._next_lsn
            self._next_lsn = lsn + 1
            framed = WalRecord(lsn, schema_version, [], block,
                               row_count).encode()
            self._buffer.append((lsn, framed))
            self._buffer_bytes += len(framed)
            return lsn

    def commit(self, lsn: int) -> None:
        """Block until every record up to ``lsn`` is durable.

        Group commit: the first thread to arrive leads, appending the
        whole buffer in one durable write; threads arriving while the
        leader's I/O is in flight wait for its ``notify_all`` and
        usually find their LSN already covered.
        """
        while True:
            with self._cond:
                if self._durable_lsn >= lsn:
                    return
                if self._leader_active:
                    self._cond.wait(_COMMIT_RECHECK_S)
                    continue
                self._leader_active = True
                pending = self._buffer
                pending_bytes = self._buffer_bytes
                self._buffer = []
                self._buffer_bytes = 0
                seq = self._seq
                highest = pending[-1][0] if pending else self._durable_lsn
            error: Optional[BaseException] = None
            try:
                if pending:
                    self.disk.append(self._filename(seq),
                                     b"".join(frame for _l, frame in pending))
            except BaseException as exc:  # includes simulated CrashPoint
                error = exc
            with self._cond:
                self._leader_active = False
                if error is None and pending:
                    self._durable_lsn = max(self._durable_lsn, highest)
                    self._note_appended_locked(seq, pending, pending_bytes)
                elif error is not None:
                    # Put the batches back so a retrying committer (or
                    # a later one) can still make them durable.
                    self._buffer = pending + self._buffer
                    self._buffer_bytes += pending_bytes
                self._cond.notify_all()
            if error is not None:
                raise error

    def _note_appended_locked(self, seq: int,
                              pending: List[Tuple[int, bytes]],
                              pending_bytes: int) -> None:
        segment = next((s for s in self._segments if s.seq == seq), None)
        if segment is None:
            segment = _Segment(seq, self._filename(seq))
            self._segments.append(segment)
        if segment.min_lsn is None:
            segment.min_lsn = pending[0][0]
        segment.max_lsn = pending[-1][0]
        segment.size_bytes += pending_bytes
        self._m_appends.inc()
        self._m_bytes.inc(pending_bytes)
        self._m_records.inc(len(pending))
        if len(pending) > 1:
            self._m_group.inc(len(pending) - 1)
        if (seq == self._seq
                and segment.size_bytes >= self.policy.wal_segment_bytes):
            self.disk.fire("wal.before_seal")
            segment.sealed = True
            self._seq = seq + 1
            self._m_sealed.inc()

    # -------------------------------------------------------- recycling

    def advance_low_water(self, low_lsn: int) -> int:
        """Everything below ``low_lsn`` is sealed into tablets; recycle
        segments wholly covered by it.  Returns segments deleted.

        The active segment is only recycled while nothing can still
        land in it: no batch buffered *and* no group-commit leader in
        flight.  The leader drains the buffer before its off-lock
        append, so an empty buffer alone proves nothing - recycling on
        that evidence would delete a file whose freshly appended,
        not-yet-tablet-covered records the leader is about to
        acknowledge.  With the leader excluded, ``max_lsn`` is
        post-append and the coverage check is exact.  Recycling the
        active segment also rolls the sequence so the next append
        starts a fresh file (a fully-flushed table ends with zero WAL
        files).
        """
        with self._cond:
            if low_lsn <= self._low_water:
                return 0
            self._low_water = low_lsn
            drop: List[_Segment] = []
            keep: List[_Segment] = []
            for segment in self._segments:
                covered = (segment.max_lsn is not None
                           and segment.max_lsn < low_lsn)
                if not covered:
                    keep.append(segment)
                    continue
                if segment.seq == self._seq:
                    if self._buffer or self._leader_active:
                        keep.append(segment)
                        continue
                    self._seq += 1
                drop.append(segment)
            self._segments = keep
        for segment in drop:
            self.disk.fire("wal.before_recycle")
            try:
                if self.disk.exists(segment.filename):
                    self.disk.delete(segment.filename)
            except StorageError:
                pass  # recycling is best-effort; replay dedups anyway
            self._m_recycled.inc()
        return len(drop)

    # ------------------------------------------------------ replication

    def read_records_after(self, from_lsn: int,
                           limit_bytes: int = 1 << 20) -> Tuple[bytes, int]:
        """Framed records with ``from_lsn < lsn <= durable_lsn``.

        Raw storage reads (replication streaming must not consume
        workload failpoints).  Returns ``(frames, last_lsn)`` where
        ``frames`` is a concatenation the follower feeds straight to
        :func:`iter_records`; bounded by ``limit_bytes`` per call.
        """
        with self._lock:
            durable = self._durable_lsn
            segments = [(s.filename, s.min_lsn, s.max_lsn)
                        for s in self._segments]
        if from_lsn >= durable:
            return b"", from_lsn
        storage = self.disk.storage
        out = bytearray()
        last = from_lsn
        issues: List[str] = []
        for filename, min_lsn, max_lsn in sorted(segments,
                                                 key=lambda s: s[0]):
            if max_lsn is None or max_lsn <= from_lsn:
                continue
            try:
                data = storage.read_all(filename)
            except StorageError:
                continue  # recycled between snapshot and read
            for record in iter_records(data, filename, issues):
                if record.lsn <= last or record.lsn > durable:
                    continue
                out += record.encode()
                last = record.lsn
                if len(out) >= limit_bytes:
                    return bytes(out), last
        return bytes(out), last

    # ----------------------------------------------------------- status

    def status(self) -> Dict[str, Any]:
        """JSON-safe operator view; the ``wal_status`` command's shape."""
        with self._lock:
            segments = [{
                "filename": s.filename,
                "min_lsn": s.min_lsn,
                "max_lsn": s.max_lsn,
                "size_bytes": s.size_bytes,
                "sealed": s.sealed,
            } for s in self._segments]
            return {
                "tier": self.policy.tier,
                "next_lsn": self._next_lsn,
                "durable_lsn": self._durable_lsn,
                "low_water": self._low_water,
                "buffered_records": len(self._buffer),
                "segment_count": len(segments),
                "wal_bytes": sum(s["size_bytes"] for s in segments),
                "segments": segments,
            }

    # ------------------------------------------------------------- drop

    def delete_files(self) -> None:
        """Remove every segment file (drop-table path)."""
        with self._cond:
            segments = self._segments
            self._segments = []
            self._buffer = []
            self._buffer_bytes = 0
        for segment in segments:
            try:
                if self.disk.exists(segment.filename):
                    self.disk.delete(segment.filename)
            except StorageError:
                pass
