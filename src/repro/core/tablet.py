"""On-disk tablets: writer, reader, and cursors.

File layout (paper §3.2, §3.5):

    [block 0][block 1]...[block n-1][compressed footer][trailer]

* Each block holds rows sorted by primary key, as one v3 column batch
  (``core/codec.py``), compressed.
* The footer records the tablet's schema, its timespan, a block index
  with the **last key in each block**, (optionally) a key-prefix
  Bloom filter (§3.4.5), the block format (3), and one CRC per block
  over its compressed payload.
* The trailer is 24 bytes (format v2.1): the paper's "final two words
  of the file" - the footer's decompressed size and its offset within
  the file, 8 bytes each, little-endian - then the CRC of the
  *compressed* footer (4 bytes LE) and the magic ``b"LT21"``.  The
  compressed footer therefore spans ``[offset, file_size - 24)``.

The trailer guards the footer and the footer guards the blocks, so
every flipped bit is caught somewhere: in a block (block CRC), in the
footer (footer CRC), or in the trailer itself (magic/offset validation
or footer CRC mismatch).

That is the one layout this module reads.  A file ending in the
pre-v2.1 16-byte trailer (no magic; its last four bytes are the high
bytes of the footer offset, so zero) is refused by :func:`read_footer`,
and a CRC-valid footer naming any block format but v3 - or, as the
oldest footers do, none - by :meth:`TabletReader._parse_footer_body`;
both raise :class:`~repro.core.errors.UnsupportedFormatError`, which is
not corruption: nothing is quarantined for it.

Reading a footer costs three seeks on a cold cache (inode, trailer,
footer - §3.5); once cached in memory the reader answers block lookups
with a single block read (one seek), which is exactly the 4-vs-1 seek
behaviour Figure 6 measures.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..disk.vfs import SimulatedDisk
from ..obs.metrics import NULL_REGISTRY
from ..util.bloom import KeyPrefixBloom
from ..util.checksum import crc32c
from ..util.varint import decode_uvarint, encode_uvarint
from .block import codec_id, compress, decompress
from .codec import BLOCK_FORMAT_V3, SchemaCodec, prefix_column_encoders
from .encoding import RowCodec
from .errors import (SUPPORTED_FORMAT, ChecksumError, CorruptTabletError,
                     UnsupportedFormatError)
from .readcache import NULL_READ_CACHE, CachedBlock
from .row import FIRST_RUN_ROWS, KeyRange, Run, rows_of
from .schema import Schema

# Format v2.1: footer size, footer offset, footer CRC (4 bytes LE),
# magic.
CHECKSUM_TRAILER_BYTES = 24
CHECKSUM_MAGIC = b"LT21"

# Rows ``TabletWriter.write`` takes from an iterator at a time (a few
# blocks' worth: per-run work amortizes, memory stays bounded).
WRITE_RUN_ROWS = 8192


@dataclass
class TabletMeta:
    """Descriptor-level metadata for one on-disk tablet.

    ``tier`` is "hot" for the local spinning disk; "cold" marks
    tablets migrated to the write-once archive tier (the §6 LHAM-style
    extension: "we are considering using Amazon S3 or another cloud
    service as an additional backing store for old LittleTable data").

    ``min_key``/``max_key`` are the tablet's key-range zone map: the
    first and last primary key the writer saw.  The prune index skips
    tablets whose key interval misses a query's key range without
    opening their readers.  They are None for tablets written before
    zone maps existed (key columns are never BLOBs, so the values are
    JSON-safe).

    Never mutated once published: a table's version is immutable all
    the way down, so a change of tier publishes a replacement
    (``dataclasses.replace``).
    """

    tablet_id: int
    filename: str
    min_ts: int
    max_ts: int
    row_count: int
    size_bytes: int
    schema_version: int
    created_at: int  # engine time when the tablet was written
    tier: str = "hot"
    min_key: Optional[Tuple[Any, ...]] = None
    max_key: Optional[Tuple[Any, ...]] = None

    def to_dict(self) -> dict:
        out = {
            "tablet_id": self.tablet_id,
            "filename": self.filename,
            "min_ts": self.min_ts,
            "max_ts": self.max_ts,
            "row_count": self.row_count,
            "size_bytes": self.size_bytes,
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "tier": self.tier,
        }
        if self.min_key is not None:
            out["min_key"] = list(self.min_key)
        if self.max_key is not None:
            out["max_key"] = list(self.max_key)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TabletMeta":
        data = dict(data)
        data.setdefault("tier", "hot")
        for zone in ("min_key", "max_key"):
            if data.get(zone) is not None:
                data[zone] = tuple(data[zone])
            else:
                data[zone] = None
        return cls(**data)


@dataclass
class _BlockEntry:
    offset: int
    compressed_len: int
    row_count: int
    last_key: Tuple[Any, ...]


class TabletSink:
    """Streams sorted runs of rows - or whole pre-compressed blocks -
    into one tablet file.

    Rows enter one way, :meth:`add_rows`, a sorted unique *run* at a
    time: flush hands over a memtable with the sizes it knows, the
    merge a stretch of decoded blocks with their keys; an entire v3
    block that survives a merge unmodified moves compressed-payload-
    verbatim instead (``add_block_passthrough``).  Per run the sink
    works in C loops (block cuts from the running sum of v1 sizes,
    the timespan from ``min``/``max``) and the file's bytes do not
    depend on how rows were split into runs.  The Bloom filter is fed
    each run's distinct key prefixes - it is a set - and when the
    expected row count is unknown they wait for ``finish`` to size it.
    """

    def __init__(self, disk: SimulatedDisk, schema: Schema,
                 block_size: int, compression: str,
                 bloom_bits_per_row: int = 0,
                 metrics=None, expected_rows: int = 0):
        self.disk = disk
        self.schema = schema
        self.codec = codec_id(compression)
        self.block_size = block_size
        self._block_crcs: List[int] = []
        self.bloom_bits_per_row = bloom_bits_per_row
        self.schema_codec = SchemaCodec(schema, metrics)
        self._key_of = self.schema_codec.key_of
        self._ts_of = itemgetter(schema.ts_index)
        self._row_codec = RowCodec(schema)  # footer keys only
        self._body = bytearray()
        self._entries: List[_BlockEntry] = []
        self._rows: List[Tuple[Any, ...]] = []
        #: Estimated uncompressed (v1) size of the block being built.
        self.pending_bytes = 0
        self.row_count = 0
        self.min_ts: Optional[int] = None
        self.max_ts: Optional[int] = None
        self.first_key: Optional[Tuple[Any, ...]] = None
        self.last_key: Optional[Tuple[Any, ...]] = None
        self._bloom: Optional[KeyPrefixBloom] = None
        self._bloom_state: list = []
        #: Distinct prefixes held back until ``finish`` can size the
        #: filter: no expected row count was given.
        self._bloom_buffered: List[Tuple[Any, ...]] = []
        self._bloom_prefix_of = itemgetter(slice(0, schema.key_width - 1))
        if bloom_bits_per_row:
            self._bloom_encoders = prefix_column_encoders(schema)
            if expected_rows > 0:
                self._size_bloom(expected_rows)

    # ------------------------------------------------------------- rows

    def add_rows(self, rows: Sequence[Tuple[Any, ...]],
                 keys: Optional[Sequence[Tuple[Any, ...]]] = None,
                 sizes: Optional[Sequence[int]] = None) -> None:
        """Append a run of decoded rows: sorted, unique, and after
        every row added so far.  ``keys`` and ``sizes`` (v1-encoded,
        they only drive block cutting) are for callers that already
        have them.  A row that would overflow a non-empty block opens
        the next one; a block's first row is always admitted.
        """
        if not rows:
            return
        if keys is None:
            keys = list(map(self._key_of, rows))
        if sizes is None:
            sizes = map(self.schema_codec.size_of, rows)
        # ends[i] is the size of rows[:i]; rows[start:cut] fit the
        # pending block while ends[cut] stays within ``room``.
        ends = list(accumulate(sizes, initial=0))
        start = 0
        while True:
            room = self.block_size - self.pending_bytes + ends[start]
            cut = bisect.bisect_right(ends, room, start + 1) - 1
            if cut == start and not self.pending_bytes:
                cut += 1
            if cut > start:
                self._rows += rows[start:cut]
                self.pending_bytes += ends[cut] - ends[start]
                self.last_key = keys[cut - 1]
            if cut == len(rows):
                break
            self._cut_block()
            start = cut
        timestamps = list(map(self._ts_of, rows))
        self.note_ts_bounds(min(timestamps), max(timestamps))
        if self.first_key is None:
            self.first_key = keys[0]
        self.row_count += len(rows)
        self.add_bloom_prefixes(map(self._bloom_prefix_of, keys))

    def _size_bloom(self, expected_keys: int) -> None:
        self._bloom = KeyPrefixBloom(
            expected_keys, key_width=max(1, self.schema.key_width - 1),
            bits_per_key=self.bloom_bits_per_row)

    def _bloom_add(self, prefix: Tuple[Any, ...]) -> None:
        if self._bloom is None:
            self._bloom_buffered.append(prefix)
            return
        parts = [encode(value) for encode, value
                 in zip(self._bloom_encoders, prefix)]
        self._bloom.add_key_incremental(parts, self._bloom_state)

    # ----------------------------------------------------------- blocks

    def _cut_block(self) -> None:
        """Seal the rows added so far into one block (no-op if none)."""
        if not self._rows:
            return
        raw = self.schema_codec.encode_rows(self._rows)
        payload = compress(self.codec, raw)
        self._entries.append(_BlockEntry(
            len(self._body), len(payload), len(self._rows), self.last_key))
        self._block_crcs.append(crc32c(payload))
        self._body += payload
        self._rows = []
        self.pending_bytes = 0

    def add_block_passthrough(self, payload: bytes, row_count: int,
                              last_key: Tuple[Any, ...]) -> None:
        """Append one already-compressed v3 block verbatim.

        The caller guarantees the block's rows are sorted after
        everything added so far and before everything added later,
        that the payload's codec matches the sink's, and that it
        feeds key/timestamp bookkeeping itself (``add_bloom_prefixes``
        / ``note_ts_bounds``) since the rows are never decoded here.
        """
        self._cut_block()
        self._entries.append(_BlockEntry(
            len(self._body), len(payload), row_count, last_key))
        self._block_crcs.append(crc32c(payload))
        self._body += payload
        self.row_count += row_count
        if self.first_key is None:
            self.first_key = last_key  # refined by finish() overrides
        self.last_key = last_key

    def add_bloom_prefixes(self, prefix_rows: Iterable[Tuple[Any, ...]]
                           ) -> None:
        """Feed Bloom prefixes for rows added via passthrough blocks.

        ``prefix_rows`` yields key tuples *without* the trailing
        timestamp (e.g. ``zip(*decoded key columns)``), one per row;
        each distinct one is added once.
        """
        if not self.bloom_bits_per_row:
            return
        for prefix in dict.fromkeys(prefix_rows):
            self._bloom_add(prefix)

    def note_ts_bounds(self, min_ts: int, max_ts: int) -> None:
        """Widen the tablet's timespan (passthrough bookkeeping)."""
        if self.min_ts is None or min_ts < self.min_ts:
            self.min_ts = min_ts
        if self.max_ts is None or max_ts > self.max_ts:
            self.max_ts = max_ts

    # ----------------------------------------------------------- finish

    def finish(self, filename: str, tablet_id: int, created_at: int,
               min_key: Optional[Tuple[Any, ...]] = None,
               max_key: Optional[Tuple[Any, ...]] = None
               ) -> Optional[TabletMeta]:
        """Cut the final block, write the file, return its metadata.

        Returns None (writing nothing) if no rows were added.
        ``min_key``/``max_key`` override the tracked zone map - the
        merge path passes bounds derived from the source tablets'
        metadata because passed-through blocks never expose their
        first key.
        """
        self._cut_block()
        if self.row_count == 0:
            return None
        bloom_bytes = b""
        if self.bloom_bits_per_row:
            if self._bloom is None:
                self._size_bloom(self.row_count)
                for prefix in self._bloom_buffered:
                    self._bloom_add(prefix)
            bloom_bytes = self._bloom.serialize()
        footer = self._encode_footer(bloom_bytes)
        compressed_footer = compress(self.codec, footer)
        footer_offset = len(self._body)
        trailer = (len(footer).to_bytes(8, "little")
                   + footer_offset.to_bytes(8, "little")
                   + crc32c(compressed_footer).to_bytes(4, "little")
                   + CHECKSUM_MAGIC)
        file_bytes = bytes(self._body) + compressed_footer + trailer
        self.disk.fire("tablet.write")
        self.disk.write_file(filename, file_bytes)
        return TabletMeta(
            tablet_id=tablet_id,
            filename=filename,
            min_ts=self.min_ts,
            max_ts=self.max_ts,
            row_count=self.row_count,
            size_bytes=len(file_bytes),
            schema_version=self.schema.version,
            created_at=created_at,
            min_key=min_key if min_key is not None else self.first_key,
            max_key=max_key if max_key is not None else self.last_key,
        )

    def _encode_footer(self, bloom_bytes: bytes) -> bytes:
        schema_json = json.dumps(self.schema.to_dict()).encode("utf-8")
        out = bytearray()
        out += encode_uvarint(len(schema_json))
        out += schema_json
        out += encode_uvarint(self.min_ts)
        out += encode_uvarint(self.max_ts)
        out += encode_uvarint(self.row_count)
        out.append(self.codec)
        out += encode_uvarint(len(self._entries))
        for entry in self._entries:
            key_bytes = self._row_codec.encode_key(entry.last_key)
            out += encode_uvarint(entry.offset)
            out += encode_uvarint(entry.compressed_len)
            out += encode_uvarint(entry.row_count)
            out += encode_uvarint(len(key_bytes))
            out += key_bytes
        out += encode_uvarint(len(bloom_bytes))
        out += bloom_bytes
        out += encode_uvarint(BLOCK_FORMAT_V3)
        # One CRC per block, over the compressed payload.
        out += encode_uvarint(len(self._entries))
        for crc in self._block_crcs:
            out += crc.to_bytes(4, "little")
        return bytes(out)


class TabletWriter:
    """Writes one tablet file from sorted rows (a run or an iterator)."""

    def __init__(self, disk: SimulatedDisk, schema: Schema,
                 block_size: int, compression: str,
                 bloom_bits_per_row: int = 0, metrics=None):
        codec_id(compression)   # an unknown name fails here, not per file
        self._new_sink = partial(
            TabletSink, disk, schema, block_size, compression,
            bloom_bits_per_row, metrics=metrics)

    def sink(self, expected_rows: int = 0) -> TabletSink:
        """A fresh sink for one tablet file under this writer's
        settings (the block-wise merge drives it directly)."""
        return self._new_sink(expected_rows=expected_rows)

    def write(self, filename: str, rows: Iterable[Tuple[Any, ...]],
              tablet_id: int, created_at: int, expected_rows: int = 0,
              sizes: Optional[Sequence[int]] = None
              ) -> Optional[TabletMeta]:
        """Encode and write ``rows`` (already sorted by key, unique).

        Returns the tablet's metadata, or None if ``rows`` was empty
        (no file is written).  ``expected_rows`` sizes the Bloom
        filter up front (0 defers sizing to the actual count).  A
        list or tuple is one run, with each row's encoded size in
        ``sizes`` when the caller knows them (memtables do, §3.2's
        flush path); anything else is consumed as an iterator,
        ``WRITE_RUN_ROWS`` rows at a time, so streaming callers stay so.
        """
        sink = self.sink(expected_rows)
        if isinstance(rows, (list, tuple)):
            sink.add_rows(rows, sizes=sizes)
        else:
            rows = iter(rows)
            for run in iter(lambda: list(islice(rows, WRITE_RUN_ROWS)), []):
                sink.add_rows(run)
        return sink.finish(filename, tablet_id, created_at)


def read_footer(source, filename: str, size: int
                ) -> Tuple[bytes, int, int]:
    """Find and check the footer of a ``size``-byte tablet file.

    ``source`` is whatever the caller reads files through: the charged
    disk for a :class:`TabletReader`, the raw storage backend for the
    startup scrub.  Returns ``(compressed_footer, footer_size,
    footer_offset)``; raises :class:`CorruptTabletError` for a trailer
    that cannot be right, :class:`ChecksumError` for a footer that
    fails its CRC and :class:`UnsupportedFormatError` for a pre-v2.1
    trailer.
    """
    if size < CHECKSUM_TRAILER_BYTES:
        raise CorruptTabletError(f"{filename}: too small ({size} bytes)")
    tail = source.read(filename, size - CHECKSUM_TRAILER_BYTES,
                       CHECKSUM_TRAILER_BYTES)
    if tail[20:24] != CHECKSUM_MAGIC:
        # A pre-v2.1 file ends in the two words alone, so its last four
        # bytes are the high bytes of the footer offset: zero.
        if tail[20:24] == bytes(4):
            raise UnsupportedFormatError(
                f"{filename}: pre-v2.1 16-byte trailer (no "
                f"{CHECKSUM_MAGIC.decode()} magic); {SUPPORTED_FORMAT}")
        raise CorruptTabletError(f"{filename}: bad trailer")
    footer_size = int.from_bytes(tail[0:8], "little")
    footer_offset = int.from_bytes(tail[8:16], "little")
    compressed_len = size - CHECKSUM_TRAILER_BYTES - footer_offset
    if compressed_len < 0 or footer_size <= 0:
        raise CorruptTabletError(f"{filename}: bad trailer")
    compressed = source.read(filename, footer_offset, compressed_len)
    if crc32c(compressed) != int.from_bytes(tail[16:20], "little"):
        raise ChecksumError(f"{filename}: footer checksum mismatch")
    return compressed, footer_size, footer_offset


class TabletReader:
    """Reads one tablet file; the parsed footer is cached in memory.

    §3.2: "On average, these indexes are only 0.5% of their tablets'
    sizes, so LittleTable caches them almost indefinitely in main
    memory."  The table keeps one reader per live tablet.

    ``cache`` (a :class:`~repro.core.readcache.ReadCache`) holds
    decoded blocks, keyed by ``cache_uid`` - this reader's
    process-unique identity, which whoever drops the reader
    invalidates.  Without a cache every read decodes from the
    (simulated) disk, exactly the pre-cache behaviour.  Columns
    returned from cached blocks are shared: callers must not mutate
    them.

    There is one decode, :meth:`decode_payload` (payload to columns),
    and one way from a block to its rows: :meth:`_scan_block`, the
    cached entry, which scans, ``latest``, the uniqueness probe and a
    warm aggregate share.  A row tuple is built only when a scan takes
    it (:meth:`_built_rows`).  Two readers go around the cache on
    purpose, because what they read once would evict what is read
    often: the merge (``decode_payload`` directly) and a cold
    vectorized aggregate (:meth:`scan_block_columns`).
    """

    def __init__(self, disk: SimulatedDisk, filename: str, metrics=None,
                 cache=None):
        self.disk = disk
        self.filename = filename
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_blocks_read = self.metrics.counter("tablet.blocks_read")
        self._m_block_bytes = self.metrics.counter("tablet.block_bytes_read")
        self._m_footer_loads = self.metrics.counter("tablet.footer_loads")
        self._m_checksum_failures = self.metrics.counter(
            "storage.checksum_failures")
        self._m_bloom_probes = self.metrics.counter("bloom.probes")
        self._m_bloom_negative = self.metrics.counter("bloom.negatives")
        self._m_bloom_positive = self.metrics.counter("bloom.positives")
        self._m_decoded = self.metrics.counter("block.decoded")
        self._m_rows_decoded = self.metrics.counter("block.rows_decoded")
        self._m_decoded_bytes = self.metrics.counter("block.decoded_bytes")
        self._m_rows_built = self.metrics.counter("readcache.rows_built")
        self._cache = cache if cache is not None else NULL_READ_CACHE
        self.cache_uid = self._cache.allocate_uid()
        self._loaded = False
        self.schema: Optional[Schema] = None
        self.min_ts = 0
        self.max_ts = 0
        self.row_count = 0
        self._codec = 0
        self._entries: List[_BlockEntry] = []
        self._last_keys: List[Tuple[Any, ...]] = []
        self._row_codec: Optional[RowCodec] = None
        self._bloom: Optional[KeyPrefixBloom] = None
        self._body_size = 0
        self._block_crcs: List[int] = []
        self._schema_codec: Optional[SchemaCodec] = None

    # ----------------------------------------------------------- footer

    def ensure_loaded(self) -> None:
        """Load and parse the footer on first use (3 cold seeks)."""
        if self._loaded:
            return
        disk = self.disk
        disk.open(self.filename)  # inode
        try:
            compressed, footer_size, self._body_size = read_footer(
                disk, self.filename, disk.size(self.filename))
        except ChecksumError:
            self._m_checksum_failures.inc()
            raise
        self._parse_footer(compressed, footer_size)
        self._loaded = True
        self._m_footer_loads.inc()

    def _parse_footer(self, compressed: bytes, footer_size: int) -> None:
        # The codec byte lives inside the (possibly compressed) footer,
        # so detect the footer's own encoding by attempting zlib first
        # and falling back to raw; the trailer's decompressed-size word
        # disambiguates.
        try:
            footer = decompress(1, compressed)
        except CorruptTabletError:
            footer = compressed
        if len(footer) != footer_size:
            if len(compressed) == footer_size:
                footer = compressed
            else:
                raise CorruptTabletError(
                    f"{self.filename}: footer size mismatch"
                )
        self._parse_footer_body(footer)

    def _parse_footer_body(self, footer: bytes) -> None:
        offset = 0
        schema_len, offset = decode_uvarint(footer, offset)
        try:
            schema_dict = json.loads(footer[offset:offset + schema_len])
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptTabletError(f"{self.filename}: bad schema: {exc}") from exc
        offset += schema_len
        self.schema = Schema.from_dict(schema_dict)
        self._row_codec = RowCodec(self.schema)
        self.min_ts, offset = decode_uvarint(footer, offset)
        self.max_ts, offset = decode_uvarint(footer, offset)
        self.row_count, offset = decode_uvarint(footer, offset)
        if offset >= len(footer):
            raise CorruptTabletError(f"{self.filename}: truncated footer")
        self._codec = footer[offset]
        offset += 1
        block_count, offset = decode_uvarint(footer, offset)
        entries: List[_BlockEntry] = []
        for _ in range(block_count):
            block_offset, offset = decode_uvarint(footer, offset)
            compressed_len, offset = decode_uvarint(footer, offset)
            row_count, offset = decode_uvarint(footer, offset)
            key_len, offset = decode_uvarint(footer, offset)
            key_bytes = footer[offset:offset + key_len]
            if len(key_bytes) != key_len:
                raise CorruptTabletError(f"{self.filename}: truncated key")
            offset += key_len
            last_key, _ = self._row_codec.decode_key(key_bytes)
            entries.append(_BlockEntry(block_offset, compressed_len,
                                       row_count, last_key))
        bloom_len, offset = decode_uvarint(footer, offset)
        bloom_bytes = footer[offset:offset + bloom_len]
        if len(bloom_bytes) != bloom_len:
            raise CorruptTabletError(f"{self.filename}: truncated bloom")
        offset += bloom_len
        self._bloom = (
            KeyPrefixBloom.deserialize(bloom_bytes) if bloom_len else None
        )
        # The footer CRC vouched for every byte from here on, so a
        # format other than v3 - or none, where the oldest footers end -
        # is an old writer's, not bit rot; a short field is a buggy
        # writer's, and still refused.
        block_format = None
        if offset < len(footer):
            block_format, offset = decode_uvarint(footer, offset)
        if block_format != BLOCK_FORMAT_V3:
            raise UnsupportedFormatError(
                f"{self.filename}: block format "
                f"{'v1 (none named)' if block_format is None else block_format}"
                f"; {SUPPORTED_FORMAT}")
        if offset >= len(footer):
            raise CorruptTabletError(
                f"{self.filename}: missing block checksums")
        crc_count, offset = decode_uvarint(footer, offset)
        if crc_count != len(entries):
            raise CorruptTabletError(
                f"{self.filename}: block checksum count mismatch")
        if offset + 4 * crc_count > len(footer):
            raise CorruptTabletError(
                f"{self.filename}: truncated block checksums")
        self._block_crcs = [
            int.from_bytes(footer[offset + 4 * i:offset + 4 * i + 4],
                           "little")
            for i in range(crc_count)
        ]
        self._entries = entries
        self._last_keys = [entry.last_key for entry in entries]
        self._schema_codec = SchemaCodec(self.schema, self.metrics)

    # ------------------------------------------------------------ blocks

    @property
    def block_count(self) -> int:
        self.ensure_loaded()
        return len(self._entries)

    def block_entries(self) -> List[_BlockEntry]:
        """The footer's block index (offset, length, count, last key)."""
        self.ensure_loaded()
        return self._entries

    @property
    def codec_byte(self) -> int:
        """The compression codec id this tablet's blocks use."""
        self.ensure_loaded()
        return self._codec

    @property
    def schema_codec(self) -> SchemaCodec:
        self.ensure_loaded()
        return self._schema_codec

    def read_block_payload(self, index: int) -> bytes:
        """The compressed bytes of block ``index`` (one seek).

        The payload's CRC is verified here - every disk read of a block
        passes through this method, so a flipped bit anywhere in the
        body surfaces as :class:`ChecksumError` before any row is
        decoded.
        """
        self.ensure_loaded()
        entry = self._entries[index]
        payload = self.disk.read(self.filename, entry.offset,
                                 entry.compressed_len)
        self._m_blocks_read.inc()
        self._m_block_bytes.inc(entry.compressed_len)
        if crc32c(payload) != self._block_crcs[index]:
            self._m_checksum_failures.inc()
            raise ChecksumError(
                f"{self.filename}: block {index} checksum mismatch")
        return payload

    def decode_payload(self, index: int, payload: bytes
                       ) -> Tuple[List[Sequence[Any]], int]:
        """Decode one block's compressed payload into ``(columns, raw
        size)``: one value list per schema column, in schema order.

        The one decode: it checks the row count against the footer and
        counts the decode (``block.decoded``, ``block.rows_decoded``,
        ``block.decoded_bytes``), whoever asked.  Every other reader
        goes through :meth:`_scan_block` or :meth:`scan_block_columns`;
        the merge calls this directly so that its one-off blocks stay
        out of the cache.
        """
        raw = decompress(self._codec, payload)
        count = self._entries[index].row_count
        columns = self._schema_codec.decode_block_columns(raw)
        if len(columns[0]) != count:
            raise CorruptTabletError(
                f"{self.filename}: block {index} row count mismatch")
        self._m_decoded.inc()
        self._m_rows_decoded.inc(count)
        self._m_decoded_bytes.inc(len(raw))
        return columns, len(raw)

    def _scan_block(self, index: int) -> CachedBlock:
        """Block ``index`` as its cache entry - its columns, and the
        rows scans have built so far - filled on a miss by one disk
        read and one :meth:`decode_payload`.

        Scans, ``latest`` and the uniqueness probe all read blocks
        through here.  The entry is shared with the cache - do not
        mutate it, except through :meth:`_built_rows`.
        """
        entry = self._cache.get_block(self.cache_uid, index)
        if entry is None:
            columns, raw_len = self.decode_payload(
                index, self.read_block_payload(index))
            entry = CachedBlock(columns, len(columns[0]), raw_len)
            self._cache.put_block(self.cache_uid, index, entry)
        return entry

    def _key_columns(self, entry: CachedBlock) -> List[Sequence[Any]]:
        """A block's key columns, in key order (what
        :meth:`KeyRange.span_columns` bisects)."""
        columns = entry.columns
        return [columns[i] for i in self.schema.key_indexes]

    def _built_rows(self, entry: CachedBlock, lo: int, hi: int
                    ) -> List[Tuple[Any, ...]]:
        """Rows ``[lo, hi)`` of a cached block, as a fresh list.

        Where the stretch still holds a row no scan has taken, it is
        built whole from the columns and stored back by one slice
        assignment - atomic under the GIL, so two scans racing over
        the same stretch each store equal tuples and neither sees a
        half-filled slice (``readcache.rows_built`` counts them).
        """
        rows = entry.rows[lo:hi]
        if not all(rows):       # a built row is a non-empty tuple
            rows = list(zip(*[column[lo:hi] for column in entry.columns]))
            entry.rows[lo:hi] = rows
            self._m_rows_built.inc(hi - lo)
        return rows

    @property
    def last_keys(self) -> List[Tuple[Any, ...]]:
        """Each block's last key (the block index's search structure).

        ``KeyRange.span`` over them finds the blocks a range touches:
        every key of block ``i`` is > ``last_keys[i-1]`` and <=
        ``last_keys[i]``.
        """
        self.ensure_loaded()
        return self._last_keys

    def scan_block_columns(self, index: int) -> List[Sequence[Any]]:
        """Block ``index`` as per-column value lists, in schema order
        (the vectorized aggregate).

        A warm cache entry's columns are returned as they are; a cold
        read decodes them (:meth:`decode_payload`) and deliberately
        does not populate the cache - one-off rollup scans should not
        evict hot blocks.
        """
        self.ensure_loaded()
        entry = self._cache.get_block(self.cache_uid, index)
        if entry is not None:
            return entry.columns
        return self.decode_payload(index, self.read_block_payload(index))[0]

    def probe_key(self, key: Tuple[Any, ...]) -> bool:
        """Does this tablet hold exactly ``key``?  (Duplicate checks:
        a point read of the one block that could hold it.)"""
        self.ensure_loaded()
        index = bisect.bisect_left(self._last_keys, key)
        if index >= len(self._entries):
            return False
        lo, hi = KeyRange.prefix(key).span_columns(
            self._key_columns(self._scan_block(index)))
        return lo < hi

    def may_contain_prefix(self, encoded_columns: List[bytes]) -> Optional[bool]:
        """Bloom-filter probe; None when no filter is stored.

        A negative probe is the filter's payoff: the caller skips this
        tablet entirely, so ``bloom.negatives / bloom.probes`` is the
        §3.4.5 skip rate.
        """
        self.ensure_loaded()
        if self._bloom is None:
            return None
        self._m_bloom_probes.inc()
        verdict = self._bloom.may_contain_prefix(encoded_columns)
        if verdict:
            self._m_bloom_positive.inc()
        else:
            self._m_bloom_negative.inc()
        return verdict

    # ----------------------------------------------------------- cursors

    def scan_runs(self, key_range: KeyRange, descending: bool = False
                  ) -> Iterator[Run]:
        """The in-range slice of each block, as ``(rows, None)`` runs
        in scan order (each run ascends; descending starts at the last
        block).  A block is read when the run before it has been
        taken, and a run is a fresh list - never the cache's.  The
        first run is at most ``FIRST_RUN_ROWS`` long and the allowance
        doubles from there, so the first row of a scan costs a short
        slice and a whole scan a few more runs than blocks.

        The range is found by bisecting the block's key columns, and
        row tuples are built for the runs handed on, no others; no key
        tuple is built at all (the cursor derives keys from the rows
        where sources interleave).  Rows are *not* filtered by
        timestamp here; the merge cursor does that (and counts them as
        scanned, which is what Figure 9 measures).
        """
        # The blocks that end on an in-range key, and the one after
        # them: it ends past the range but may begin inside it.
        first, inside = key_range.span(self.last_keys)
        stop = min(inside + 1, len(self._entries))
        step = FIRST_RUN_ROWS
        for index in (range(stop - 1, first - 1, -1) if descending
                      else range(first, stop)):
            entry = self._scan_block(index)
            lo, hi = key_range.span_columns(self._key_columns(entry))
            while lo < hi:
                if descending:
                    cut = max(lo, hi - step)
                    yield self._built_rows(entry, cut, hi), None
                    hi = cut
                else:
                    cut = min(hi, lo + step)
                    yield self._built_rows(entry, lo, cut), None
                    lo = cut
                step *= 2

    def scan(self, key_range: KeyRange, descending: bool = False
             ) -> Iterator[Tuple[Any, ...]]:
        """The rows within the key range, in key order."""
        return rows_of(self.scan_runs(key_range, descending), descending)
