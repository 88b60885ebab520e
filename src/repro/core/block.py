"""64 kB blocks: the unit of tablet I/O and compression.

Paper §3.2: on-disk tablets are "a sequence of rows sorted by their
primary keys and grouped into 64 kB blocks"; §3.5: blocks and footers
are compressed (LZO1X-1 there, zlib level 1 here - see DESIGN.md §2).
"""

from __future__ import annotations

import zlib
from typing import Any, List, Tuple

from .encoding import RowCodec
from .errors import CorruptTabletError

CODEC_NONE = 0
CODEC_ZLIB = 1

_CODEC_IDS = {"none": CODEC_NONE, "zlib": CODEC_ZLIB}


def codec_id(name: str) -> int:
    """Map a codec name ("none"/"zlib") to its on-disk id."""
    try:
        return _CODEC_IDS[name]
    except KeyError:
        raise ValueError(f"unknown compression codec {name!r}") from None


def compress(codec: int, data: bytes) -> bytes:
    """Compress a block or footer body."""
    if codec == CODEC_NONE:
        return data
    if codec == CODEC_ZLIB:
        # Level 1: cheap, like the paper's LZO1X-1.
        return zlib.compress(data, 1)
    raise CorruptTabletError(f"unknown codec id {codec}")


def decompress(codec: int, data: bytes) -> bytes:
    """Inverse of :func:`compress`."""
    if codec == CODEC_NONE:
        return data
    if codec == CODEC_ZLIB:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CorruptTabletError(f"bad zlib block: {exc}") from exc
    raise CorruptTabletError(f"unknown codec id {codec}")


class BlockBuilder:
    """Accumulates encoded rows until the block-size target is reached.

    The v1 (row-major) block writer.  The engine writes v3 blocks only
    and imports this nowhere; it stays as the reference the v1 reader
    tests and the codec throughput gate build their inputs with.

    The builder tracks the *uncompressed* size; a block is cut when
    adding a row would push it past the target (so blocks can exceed
    the target only when a single row does).
    """

    def __init__(self, target_bytes: int):
        if target_bytes <= 0:
            raise ValueError("target_bytes must be positive")
        self.target_bytes = target_bytes
        self._rows: List[bytes] = []
        self._size = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def size_bytes(self) -> int:
        return self._size

    def would_overflow(self, encoded_len: int) -> bool:
        """True if adding this row should cut the block first."""
        return bool(self._rows) and self._size + encoded_len > self.target_bytes

    def add(self, encoded_row: bytes) -> None:
        """Append one encoded row."""
        self._rows.append(encoded_row)
        self._size += len(encoded_row)

    def finish(self, codec: int) -> Tuple[bytes, int, int]:
        """Compress and reset.  Returns (payload, row_count, raw_size)."""
        raw = b"".join(self._rows)
        row_count = len(self._rows)
        raw_size = self._size
        self._rows = []
        self._size = 0
        return compress(codec, raw), row_count, raw_size


def decode_rows(raw: bytes, codec_rows: RowCodec, row_count: int
                ) -> List[Tuple[Any, ...]]:
    """Decode an already-decompressed v1 block body into row tuples."""
    rows: List[Tuple[Any, ...]] = []
    offset = 0
    for _ in range(row_count):
        row, offset = codec_rows.decode_row(raw, offset)
        rows.append(row)
    if offset != len(raw):
        raise CorruptTabletError("trailing bytes after last row in block")
    return rows
