"""Block and footer compression.

Paper §3.2: on-disk tablets are "a sequence of rows sorted by their
primary keys and grouped into 64 kB blocks"; §3.5: blocks and footers
are compressed (LZO1X-1 there, zlib level 1 here - see DESIGN.md §2).
A block's body is one v3 column batch (``core/codec.py``).
"""

from __future__ import annotations

import zlib

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
