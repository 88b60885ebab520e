"""Wire protocol between the client adaptor and the server.

The paper's clients load an adaptor into SQLite's virtual-table
interface; "internally, the adaptor communicates with the server over
TCP to get a list of available tables, determine the schema and sort
order of each table, and perform inserts or queries" (§3.1).  The
adaptor "maintains a persistent TCP connection to the server in order
to detect server crashes" (§3.1).

This module defines the framing and message encoding.  Each frame is a
4-byte big-endian length followed by a payload of one of two forms:

* a UTF-8 JSON document (every request, and every reply but one); or
* ``[0x00][u32 header length][JSON header][block bytes]``: a JSON
  header plus one raw binary attachment, the message's ``block``
  field.  A ``query`` reply carries its page this way, as one v3 block
  body (``core/codec.py``), column-major and never base64.  ``0x00``
  cannot start a JSON document, so the first byte tells the forms apart.

A data row in JSON is a positional list typed by the table schema both
peers hold; bytes survive JSON wrapped as ``{"$b": <base64>}``, which
in a positional row appears only at BLOB column positions
(:class:`RowMarshaller`).  A reply that carries rows also carries
``types``, the column types it was encoded with, so a client whose
cached schema went stale finds out before it decodes anything.

A ``latest`` request asks about a batch of key prefixes at once,
``{"prefixes": [[...], ...], "max_lookback_micros"}``, and its reply
holds one JSON row (or ``null``) per prefix, in order, in ``rows``:
a dashboard page's device statuses are one round trip, and a handful
of rows is too few for a block to pay for itself.

There is one protocol version.  Any request may carry an ``"id"``
field, which the server echoes in the matching response: tagged
requests run concurrently on one connection and their responses may
arrive out of order; untagged requests are answered strictly in order.
A client opens with ``{"cmd": "hello", "version": 4}``, a one-shot
identity check the server answers with ``{"version", "shards"}``; a
refusal or another version is a :class:`ProtocolViolationError` at
connect time, not a different way of speaking.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ProtocolViolationError
from ..core.schema import ColumnType, Schema

MAX_FRAME_BYTES = 64 * 1024 * 1024
_LENGTH = struct.Struct(">I")

#: The protocol version both peers must name in ``hello``.
PROTOCOL_VERSION = 4

# The first payload byte of a frame with a block attachment; no JSON
# document starts with it.
_BLOCK_MARK = b"\x00"
_BLOCK_HEAD = struct.Struct(">cI")


class ProtocolError(Exception):
    """Malformed frame or message."""


class ConnectionLost(Exception):
    """The peer closed the connection (e.g. a server crash)."""


# ---------------------------------------------------------------- values

def encode_value(value: Any) -> Any:
    """Make one column value JSON-safe."""
    if isinstance(value, (bytes, bytearray)):
        return {"$b": base64.b64encode(bytes(value)).decode("ascii")}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "$b" in value:
        return base64.b64decode(value["$b"])
    return value


def encode_row(row: Sequence[Any]) -> List[Any]:
    return [encode_value(v) for v in row]


def decode_row(row: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(decode_value(v) for v in row)


def encode_key(key: Optional[Sequence[Any]]) -> Optional[List[Any]]:
    return None if key is None else [encode_value(v) for v in key]


def decode_key(key: Optional[Sequence[Any]]) -> Optional[Tuple[Any, ...]]:
    return None if key is None else tuple(decode_value(v) for v in key)


# ------------------------------------------------------- positional rows

_LIST_ONLY = frozenset((list,))


class RowMarshaller:
    """Wire form of one schema's JSON rows, in both directions, and
    its column-type signature (``types``, sent with every reply that
    carries rows).

    Only a BLOB column can hold bytes, so only those positions are
    wrapped and unwrapped; for a schema without one, rows pass to and
    from ``json`` untouched.  Value validation is the engine's job
    (``validate_and_size``), not the wire's.
    """

    __slots__ = ("types", "blobs")

    def __init__(self, schema: Schema):
        self.types = [column.type.value for column in schema.columns]
        self.blobs = tuple(i for i, column in enumerate(schema.columns)
                           if column.type is ColumnType.BLOB)

    def wrap(self, rows: Sequence[Sequence[Any]]) -> Sequence[Sequence[Any]]:
        """Rows made JSON-safe (the same objects when no BLOB column)."""
        blobs = self.blobs
        if not blobs:
            return rows
        wrapped = []
        for row in rows:
            row = list(row)
            for i in blobs:
                if i < len(row):    # a short row is the engine's to refuse
                    row[i] = encode_value(row[i])
            wrapped.append(row)
        return wrapped

    def unwrap(self, rows: List[List[Any]]) -> List[List[Any]]:
        """Inverse of :meth:`wrap`, in place on rows fresh from
        ``json.loads``.  The rows come from outside the program:
        anything but a list of lists is refused here."""
        if type(rows) is not list or not set(map(type, rows)) <= _LIST_ONLY:
            raise ProtocolViolationError(
                "positional rows must be a JSON list of lists")
        for i in self.blobs:
            for row in rows:
                if i < len(row):
                    row[i] = decode_value(row[i])
        return rows


def row_marshaller(schema: Schema) -> RowMarshaller:
    """The marshaller for ``schema``, built once and kept on it (next
    to the codec's compiled bundle)."""
    marshaller = schema.__dict__.get("_row_marshaller")
    if marshaller is None:
        marshaller = schema.__dict__["_row_marshaller"] = \
            RowMarshaller(schema)
    return marshaller


# ---------------------------------------------------------------- frames

def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its on-the-wire frame bytes: a JSON
    document, or - when the message has a ``block`` field (bytes) - a
    JSON header of the other fields followed by those bytes as they
    are."""
    block = message.get("block")
    if block is None:
        parts = [json.dumps(message).encode("utf-8")]
    else:
        header = json.dumps({name: value for name, value in message.items()
                             if name != "block"}).encode("utf-8")
        parts = [_BLOCK_HEAD.pack(_BLOCK_MARK, len(header)), header, block]
    size = sum(map(len, parts))
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {size} bytes")
    parts.insert(0, _LENGTH.pack(size))
    return b"".join(parts)


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame payload (the bytes after the length header).  A
    payload with an attachment comes back as its header with ``block``
    set to the attached bytes."""
    block = None
    if payload[:1] == _BLOCK_MARK:
        if len(payload) < _BLOCK_HEAD.size:
            raise ProtocolError("truncated block frame header")
        _mark, length = _BLOCK_HEAD.unpack_from(payload)
        end = _BLOCK_HEAD.size + length
        if end > len(payload):
            raise ProtocolError(
                f"block frame header of {length} bytes overruns a "
                f"{len(payload)}-byte payload")
        block = payload[end:]
        payload = payload[_BLOCK_HEAD.size:end]
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    if block is not None:
        message["block"] = block
    return message


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize and send one frame."""
    sock.sendall(encode_frame(message))


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Receive one frame; raises ConnectionLost on EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {length} bytes")
    return decode_payload(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise ConnectionLost(str(exc)) from exc
        if not chunk:
            raise ConnectionLost("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def error_response(kind: str, message: str, **fields: Any) -> Dict[str, Any]:
    """Build an error reply; extra ``fields`` ride alongside (e.g. the
    ``retry_after`` hint on ``OverloadedError`` sheds)."""
    response = {"ok": False, "error": kind, "message": message}
    response.update(fields)
    return response


def ok_response(**fields: Any) -> Dict[str, Any]:
    response = {"ok": True}
    response.update(fields)
    return response
