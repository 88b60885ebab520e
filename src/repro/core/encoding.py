"""Binary codecs for column values and whole rows.

Rows are stored inside 64 kB blocks as consecutive field encodings in
schema order.  Integers and timestamps use varints, doubles are 8-byte
IEEE 754 little-endian, strings and blobs are length-prefixed.  The
format favours simplicity over peak density, like the system it
reproduces.
"""

from __future__ import annotations

import struct
from typing import Any, List, Sequence, Tuple

from ..util.varint import (
    decode_svarint,
    decode_uvarint,
    encode_svarint,
    encode_uvarint,
)
from .errors import CorruptTabletError
from .schema import ColumnType, Schema

_DOUBLE = struct.Struct("<d")


def encode_value(column_type: ColumnType, value: Any) -> bytes:
    """Encode one validated column value."""
    if column_type in (ColumnType.INT32, ColumnType.INT64):
        return encode_svarint(value)
    if column_type is ColumnType.TIMESTAMP:
        return encode_uvarint(value)
    if column_type is ColumnType.DOUBLE:
        return _DOUBLE.pack(value)
    if column_type is ColumnType.STRING:
        raw = value.encode("utf-8")
        return encode_uvarint(len(raw)) + raw
    if column_type is ColumnType.BLOB:
        return encode_uvarint(len(value)) + value
    raise ValueError(f"unknown column type {column_type!r}")


def decode_value(column_type: ColumnType, buf: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one column value; returns ``(value, next_offset)``."""
    try:
        if column_type in (ColumnType.INT32, ColumnType.INT64):
            return decode_svarint(buf, offset)
        if column_type is ColumnType.TIMESTAMP:
            return decode_uvarint(buf, offset)
        if column_type is ColumnType.DOUBLE:
            end = offset + _DOUBLE.size
            if end > len(buf):
                raise ValueError("truncated double")
            return _DOUBLE.unpack_from(buf, offset)[0], end
        if column_type is ColumnType.STRING:
            length, pos = decode_uvarint(buf, offset)
            # A negative length must never reach the slice below:
            # Python would interpret it as an end-relative index and
            # silently return the wrong bytes instead of failing.
            if length < 0:
                raise ValueError("negative string length")
            end = pos + length
            if end > len(buf):
                raise ValueError("truncated string")
            return buf[pos:end].decode("utf-8"), end
        if column_type is ColumnType.BLOB:
            length, pos = decode_uvarint(buf, offset)
            if length < 0:
                raise ValueError("negative blob length")
            end = pos + length
            if end > len(buf):
                raise ValueError("truncated blob")
            return buf[pos:end], end
    except ValueError as exc:
        raise CorruptTabletError(str(exc)) from exc
    raise ValueError(f"unknown column type {column_type!r}")


class RowCodec:
    """Encodes/decodes whole rows for a specific schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._types = tuple(column.type for column in schema.columns)
        self._key_types = tuple(
            schema.columns[i].type for i in schema.key_indexes
        )

    def encode_row(self, row: Sequence[Any]) -> bytes:
        """Encode a validated row tuple."""
        parts = [
            encode_value(column_type, value)
            for column_type, value in zip(self._types, row)
        ]
        return b"".join(parts)

    def decode_row(self, buf: bytes, offset: int = 0) -> Tuple[Tuple[Any, ...], int]:
        """Decode one row; returns ``(row, next_offset)``."""
        values: List[Any] = []
        pos = offset
        for column_type in self._types:
            value, pos = decode_value(column_type, buf, pos)
            values.append(value)
        return tuple(values), pos

    def encode_key(self, key: Sequence[Any]) -> bytes:
        """Encode a full key tuple (used in tablet footers)."""
        parts = [
            encode_value(column_type, value)
            for column_type, value in zip(self._key_types, key)
        ]
        return b"".join(parts)

    def decode_key(self, buf: bytes, offset: int = 0) -> Tuple[Tuple[Any, ...], int]:
        """Decode a full key tuple; returns ``(key, next_offset)``."""
        values: List[Any] = []
        pos = offset
        for column_type in self._key_types:
            value, pos = decode_value(column_type, buf, pos)
            values.append(value)
        return tuple(values), pos
