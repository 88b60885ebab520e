"""Per-schema row functions and the block codecs (format v3; v2 read-only).

Two things live here.  Each :class:`Schema` is *compiled once* into
plain generated Python functions for the per-row work the insert path
cannot avoid - ``validate_and_size``, ``size_of``, ``key_of`` - with
the per-column tests inlined.  And rows move between memory and disk
in whole-block batches through the block codec below, which is not
generated at all: every column of a block is handed to one C call.

Block format v3 (one block = one column-major batch; tablet blocks and
``KIND_BLOCK`` WAL bodies alike), all integers little-endian::

    [u8 0x03]                   format byte (redundant with the footer)
    [u32 n]                     row count, n >= 1
    then one segment per column, in schema order:

    INT32 / INT64   [i64 lo][u8 w][w planes of n bytes]
    TIMESTAMP       [u64 first value][i64 lo][u8 w][w planes of n-1 bytes]
    DOUBLE          [8 planes of n bytes]
    STRING          [i64 lo][u8 w][w planes of n bytes][u32 len][UTF-8 body]
    BLOB            [i64 lo][u8 w][w planes of n bytes][u32 len][body]

An integer column is stored *frame of reference*: ``lo`` is subtracted
from every value (``lo`` is the column's minimum, or 0 when that costs
no extra plane) and the offsets are packed as ``u64``s.  The packed
array is then *byte-plane transposed* - plane ``i`` holds byte ``i`` of
every value (``raw[i::8]``) - and the all-zero high planes are dropped:
``w = ceil(bit_length(max - lo) / 8)``, anything from 0 (a constant
column) to 8, from one array typecode.  Planes are what zlib wants (the
high bytes of neighbouring values are runs of equal bytes) and what
keeps the *raw* size at or below v2's varints; raw size is paid twice,
by the uncompressed WAL body and by the read cache's byte charge.  A
timestamp column stores its first value and the same encoding over the
n-1 successive differences, so decoding is one ``accumulate``; doubles
are ``array('d')`` through the same transposition, all 8 planes kept;
strings and blobs are a length column (characters for strings, so the
body is decoded once and sliced) plus one joined body.

Nothing in encode or decode runs per value in Python beyond the one
subtract/add comprehension of a frame of reference: ``zip(*rows)``,
``min``/``max``, ``array.tobytes``/``frombytes``, strided ``bytes``
slices and ``itertools.accumulate`` do the work.  Every segment says
how long it is, so :meth:`SchemaCodec.decode_key_columns` skips to the
key columns in O(columns).

Older bodies are read-only.  v2 (format byte ``0x02``: varint columns
with restart points) keeps one interpreted decoder here; the decoders
dispatch on the body's first byte.  v1 blocks are row-major, carry no
format byte and are told apart by the tablet footer's ``block_format``
(absent in the oldest footers, so absence means v1); ``core/block.py``
decodes them.  Merges rewrite v1 and v2 blocks as v3, upgrading old
tablets in place over time.
"""

from __future__ import annotations

import struct
import sys
import time
import weakref
from array import array
from itertools import accumulate, chain
from operator import sub
from typing import Any, List, Optional, Sequence, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..util.varint import decode_uvarint, encode_uvarint
from .errors import CorruptTabletError, ValidationError
from .schema import TIMESTAMP_MAX, ColumnType, Schema, check_value

BLOCK_FORMAT_V1 = 1
BLOCK_FORMAT_V2 = 2
BLOCK_FORMAT_V3 = 3

_INT_TYPES = (ColumnType.INT32, ColumnType.INT64)


# --------------------------------------------------------------------------
# per-row functions, generated
#
# The generators below build the source of one specialized function per
# schema and ``exec`` it once.  Inlined tests beat per-value dispatch by
# 3-5x in CPython: no call frames, no enum identity tests.


def _gen_validate_and_size(schema: Schema) -> str:
    n = len(schema.columns)
    lines = [
        "def validate_and_size(row):",
        f"    if len(row) != {n}:",
        "        raise _VE('row has %d values, schema has "
        f"{n}' % (len(row),))",
        "    _s = 0",
    ]
    for i, column in enumerate(schema.columns):
        t = column.type
        v = f"v{i}"
        lines.append(f"    {v} = row[{i}]")
        if t in _INT_TYPES:
            lo, hi = ((-(1 << 31), (1 << 31) - 1) if t is ColumnType.INT32
                      else (-(1 << 63), (1 << 63) - 1))
            lines += [
                f"    if type({v}) is not int:",
                f"        {v} = _cv(_t{i}, {v})",
                f"    elif {v} > {hi} or {v} < {lo}:",
                f"        raise _VE('{t.value} out of range: %d' % ({v},))",
                f"    _z = ({v} << 1) ^ ({v} >> 63)",
                "    _s += 1 if _z < 128 else (_z.bit_length() + 6) // 7",
            ]
        elif t is ColumnType.TIMESTAMP:
            lines += [
                f"    if type({v}) is not int:",
                f"        {v} = _cv(_t{i}, {v})",
                f"    elif {v} < 0 or {v} > {TIMESTAMP_MAX}:",
                f"        raise _VE('timestamps must be in [0, 2**63): %d'"
                f" % ({v},))",
                f"    _s += 1 if {v} < 128 else"
                f" ({v}.bit_length() + 6) // 7",
            ]
        elif t is ColumnType.DOUBLE:
            lines += [
                f"    if type({v}) is not float:",
                f"        if type({v}) is int:",
                f"            {v} = float({v})",
                "        else:",
                f"            {v} = _cv(_t{i}, {v})",
                "    _s += 8",
            ]
        elif t is ColumnType.STRING:
            lines += [
                f"    if type({v}) is not str:",
                f"        {v} = _cv(_t{i}, {v})",
                f"    _l = len({v})",
                f"    if not {v}.isascii():",
                f"        _l = len({v}.encode('utf-8'))",
                "    _s += _l + (1 if _l < 128 else"
                " (_l.bit_length() + 6) // 7)",
            ]
        else:  # BLOB
            lines += [
                f"    if type({v}) is not bytes:",
                f"        {v} = _cv(_t{i}, {v})",
                f"    _l = len({v})",
                "    _s += _l + (1 if _l < 128 else"
                " (_l.bit_length() + 6) // 7)",
            ]
    row_tuple = ", ".join(f"v{i}" for i in range(n))
    lines.append(f"    return ({row_tuple}{',' if n == 1 else ''}), _s")
    return "\n".join(lines)


def _gen_size_of(schema: Schema) -> str:
    lines = ["def size_of(row):", "    _s = 0"]
    for i, column in enumerate(schema.columns):
        t = column.type
        v = f"v{i}"
        lines.append(f"    {v} = row[{i}]")
        if t in _INT_TYPES:
            lines += [
                f"    _z = ({v} << 1) ^ ({v} >> 63)",
                "    _s += 1 if _z < 128 else (_z.bit_length() + 6) // 7",
            ]
        elif t is ColumnType.TIMESTAMP:
            lines.append(
                f"    _s += 1 if {v} < 128 else ({v}.bit_length() + 6) // 7")
        elif t is ColumnType.DOUBLE:
            lines.append("    _s += 8")
        elif t is ColumnType.STRING:
            lines += [
                f"    _l = len({v})",
                f"    if not {v}.isascii():",
                f"        _l = len({v}.encode('utf-8'))",
                "    _s += _l + (1 if _l < 128 else"
                " (_l.bit_length() + 6) // 7)",
            ]
        else:
            lines += [
                f"    _l = len({v})",
                "    _s += _l + (1 if _l < 128 else"
                " (_l.bit_length() + 6) // 7)",
            ]
    lines.append("    return _s")
    return "\n".join(lines)


def _gen_key_of(schema: Schema) -> str:
    parts = ", ".join(f"row[{i}]" for i in schema.key_indexes)
    tail = "," if len(schema.key_indexes) == 1 else ""
    return f"def key_of(row):\n    return ({parts}{tail})"


class _CompiledOps:
    """The per-schema function bundle (no metrics, no state).

    One instance per schema *value*, memoized on every :class:`Schema`
    object of that value, so writers/readers/memtables constructed per
    flush or per merge pay nothing beyond an attribute lookup, and a
    tablet footer parsed into a fresh ``Schema`` compiles nothing.
    """

    __slots__ = ("schema", "validate_and_size", "size_of", "key_of",
                 "_types", "__weakref__")

    def __init__(self, schema: Schema):
        self.schema = schema
        self._types = tuple(column.type for column in schema.columns)
        namespace = {
            "_cv": check_value,
            "_VE": ValidationError,
        }
        for i, column in enumerate(schema.columns):
            namespace[f"_t{i}"] = column.type
        source = "\n\n".join([
            _gen_validate_and_size(schema),
            _gen_size_of(schema),
            _gen_key_of(schema),
        ])
        exec(compile(source, f"<codec:{schema!r}>", "exec"), namespace)
        self.validate_and_size = namespace["validate_and_size"]
        self.size_of = namespace["size_of"]
        self.key_of = namespace["key_of"]

    def encode_rows(self, rows: Sequence[Tuple[Any, ...]]) -> bytes:
        """Encode a row batch (validated rows, any order) into one v3
        block body."""
        # ``zip`` would drop the columns that do not pair up.
        if rows and len(rows[0]) != len(self._types):
            raise ValueError(f"rows of {len(rows[0])} values, schema has "
                             f"{len(self._types)}")
        return _encode_v3(self._types, rows)

    def decode_block_columns(self, buf: bytes,
                             indexes: Optional[Sequence[int]] = None
                             ) -> List[List[Any]]:
        """Decode a v3 or v2 block body into per-column value lists:
        every column in schema order, or just ``indexes``.  Anything
        wrong with the bytes is a :class:`CorruptTabletError`."""
        try:
            if buf[0] == BLOCK_FORMAT_V3:
                return _decode_v3(self._types, buf, indexes)
            if buf[0] == BLOCK_FORMAT_V2:
                return _decode_v2(self.schema, buf, indexes)
            raise CorruptTabletError(f"bad block format byte {buf[0]}")
        except (IndexError, ValueError, struct.error) as exc:
            raise CorruptTabletError(f"corrupt block: {exc}") from exc

    def decode_block(self, buf: bytes) -> Tuple[List[Tuple[Any, ...]],
                                                List[Tuple[Any, ...]]]:
        """Decode a v3 or v2 block body into ``(rows, keys)``."""
        columns = self.decode_block_columns(buf)
        return (list(zip(*columns)),
                list(zip(*[columns[i] for i in self.schema.key_indexes])))


#: Bundles by schema value.  Weak: an entry lasts as long as some
#: schema object still holds its bundle.
_OPS_BY_VALUE: "weakref.WeakValueDictionary[tuple, _CompiledOps]" = \
    weakref.WeakValueDictionary()


def compiled_ops(schema: Schema) -> _CompiledOps:
    """The compiled bundle for ``schema``, built once per schema value
    (columns, defaults, key, version)."""
    ops = schema.__dict__.get("_compiled_codec_ops")
    if ops is None:
        value = (tuple((c.name, c.type) for c in schema.columns),
                 schema._defaults, schema.key, schema.version)
        ops = _OPS_BY_VALUE.get(value)
        if ops is None:
            ops = _OPS_BY_VALUE[value] = _CompiledOps(schema)
        schema.__dict__["_compiled_codec_ops"] = ops
    return ops


# --------------------------------------------------------------------------
# block format v3: frame-of-reference byte planes, one C call per column

_HEAD = struct.Struct("<BI")       # format byte, row count
_INT_HEAD = struct.Struct("<qB")   # frame of reference, planes kept
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_BIG_ENDIAN = sys.byteorder == "big"


def _append_planes(packed: array, width: int, parts: List[bytes]) -> None:
    """Append the ``width`` low byte planes of an 8-byte-item array."""
    if _BIG_ENDIAN:
        packed.byteswap()
    raw = packed.tobytes()
    for plane in range(width):
        parts.append(raw[plane::8])


def _append_ints(values: Sequence[int], parts: List[bytes]) -> None:
    """Append one integer column: ``[i64 lo][u8 w][w planes]``."""
    if not values:      # the differences of a one-row timestamp column
        parts.append(_INT_HEAD.pack(0, 0))
        return
    lo = min(values)
    hi = max(values)
    width = ((hi - lo).bit_length() + 7) >> 3
    if lo > 0 and (hi.bit_length() + 7) >> 3 == width:
        lo = 0          # same planes without the subtract (or the add)
    parts.append(_INT_HEAD.pack(lo, width))
    if width:
        if lo:
            values = [value - lo for value in values]
        _append_planes(array("Q", values), width, parts)


def _encode_v3(types: Sequence[ColumnType],
               rows: Sequence[Tuple[Any, ...]]) -> bytes:
    if not rows:
        raise ValueError("cannot encode an empty block")
    parts = [_HEAD.pack(BLOCK_FORMAT_V3, len(rows))]
    for t, column in zip(types, zip(*rows)):
        if t is ColumnType.TIMESTAMP:
            parts.append(_U64.pack(column[0]))
            _append_ints(list(map(sub, column[1:], column)), parts)
        elif t is ColumnType.DOUBLE:
            _append_planes(array("d", column), 8, parts)
        elif t is ColumnType.STRING:
            _append_ints(list(map(len, column)), parts)
            body = "".join(column).encode("utf-8")
            parts.append(_U32.pack(len(body)))
            parts.append(body)
        elif t is ColumnType.BLOB:
            lengths = list(map(len, column))
            _append_ints(lengths, parts)
            parts.append(_U32.pack(sum(lengths)))
            parts.extend(column)
        else:
            _append_ints(column, parts)
    return b"".join(parts)


def _from_planes(typecode: str, view: memoryview, start: int, count: int,
                 width: int) -> array:
    """``count`` 8-byte items from their ``width`` low byte planes."""
    raw = bytearray(8 * count)
    for plane in range(width):
        raw[plane::8] = view[start:start + count]
        start += count
    items = array(typecode)
    items.frombytes(raw)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


def _decode_v3(types: Sequence[ColumnType], buf: bytes,
               indexes: Optional[Sequence[int]]) -> List[List[Any]]:
    """Walk the segments checking every bound, then build the wanted
    columns: a damaged row count must fail a bound, not size a list."""
    view = memoryview(buf)
    _format, n = _HEAD.unpack_from(view, 0)
    if n == 0:
        raise CorruptTabletError("v3 block with no rows")
    p = _HEAD.size
    segments = []
    for t in types:
        if t is ColumnType.DOUBLE:
            segments.append((p, 0, 8, n, 0, 0))
            p += 8 * n
        else:
            first, count = 0, n
            if t is ColumnType.TIMESTAMP:
                (first,) = _U64.unpack_from(view, p)
                p += _U64.size
                count = n - 1
            lo, width = _INT_HEAD.unpack_from(view, p)
            if width > 8:
                raise CorruptTabletError(f"plane count {width} > 8")
            p += _INT_HEAD.size
            planes = p
            p += width * count
            if t is ColumnType.STRING or t is ColumnType.BLOB:
                if lo < 0:
                    raise CorruptTabletError("negative value length")
                (body_len,) = _U32.unpack_from(view, p)
                p += _U32.size + body_len
            segments.append((planes, lo, width, count, first, p))
        if p > len(view):
            raise CorruptTabletError("truncated column segment")
    if p != len(view):
        raise CorruptTabletError("trailing bytes after last column")
    columns = []
    for index in range(len(types)) if indexes is None else indexes:
        t = types[index]
        planes, lo, width, count, first, end = segments[index]
        if t is ColumnType.DOUBLE:
            values = _from_planes("d", view, planes, n, 8).tolist()
        elif not width:
            values = [lo] * count
        elif lo:
            values = [offset + lo for offset in
                      _from_planes("Q", view, planes, count, width)]
        else:
            values = _from_planes("Q", view, planes, count, width).tolist()
        if t is ColumnType.TIMESTAMP:
            values = list(accumulate(values, initial=first))
        elif t is ColumnType.STRING or t is ColumnType.BLOB:
            body_start = planes + width * count + _U32.size
            body = (str(view[body_start:end], "utf-8")
                    if t is ColumnType.STRING
                    else bytes(view[body_start:end]))
            ends = list(accumulate(values))
            if ends[-1] != len(body):
                raise CorruptTabletError(
                    "value lengths do not sum to the body")
            values = [body[a:b] for a, b in zip(chain((0,), ends), ends)]
        columns.append(values)
    return columns


# --------------------------------------------------------------------------
# block format v2, read-only: varint columns with restart points
#
#     [0x02][uvarint n][uvarint K][uvarint R = ceil(n / K)]
#     then per column, in schema order: [uvarint seg_len][segment]
#
# A ``DOUBLE`` segment is one ``<nd`` pack.  Every other segment is
# ``[uvarint offs_len][R uvarint restart offsets]`` then the data:
# zigzag svarints (``INT32``/``INT64``); the restart row's value as a
# uvarint then zigzag deltas within the run (``TIMESTAMP``);
# ``[uvarint shared][uvarint unshared][bytes]`` against the previous
# value, ``shared = 0`` at every restart row (key ``STRING``);
# ``[uvarint len][bytes]`` (other ``STRING``, ``BLOB``).  Nothing writes
# this any more; what follows is its one decoder, interpreted and a
# byte at a time, which is why a merge upgrades what it touches.


class _V2Layout:
    __slots__ = ("n", "k", "r", "segs")

    def __init__(self, n: int, k: int, r: int,
                 segs: List[Tuple[int, int]]):
        self.n = n
        self.k = k
        self.r = r
        #: per column: (segment start, segment end) - start points at
        #: the offs_len varint (or at packed data for DOUBLE columns).
        self.segs = segs


def _parse_v2_layout(buf: bytes, schema: Schema) -> _V2Layout:
    n, p = decode_uvarint(buf, 1)
    k, p = decode_uvarint(buf, p)
    r, p = decode_uvarint(buf, p)
    if k <= 0 or r != (n + k - 1) // k:
        raise CorruptTabletError("bad v2 block restart table")
    segs: List[Tuple[int, int]] = []
    for _column in schema.columns:
        seg_len, p = decode_uvarint(buf, p)
        end = p + seg_len
        if end > len(buf):
            raise CorruptTabletError("truncated column segment")
        segs.append((p, end))
        p = end
    if p != len(buf):
        raise CorruptTabletError("trailing bytes after last column")
    return _V2Layout(n, k, r, segs)


def _segment_offsets(buf: bytes, seg: Tuple[int, int],
                     r: int) -> Tuple[List[int], int]:
    """Parse a var-width segment's restart table.

    Returns (restart byte offsets, data start).  Offsets are relative
    to the data start.
    """
    offs_len, p = decode_uvarint(buf, seg[0])
    offs_end = p + offs_len
    offsets: List[int] = []
    for _ in range(r):
        value, p = decode_uvarint(buf, p)
        offsets.append(value)
    if p != offs_end:
        raise CorruptTabletError("bad restart offset table")
    return offsets, offs_end


def _decode_column(buf: bytes, schema: Schema, index: int,
                   layout: _V2Layout) -> List[Any]:
    """Decode all of one column's values."""
    t = schema.columns[index].type
    seg = layout.segs[index]
    n, k = layout.n, layout.k
    out: List[Any] = []
    if n <= 0:
        return out
    if t is ColumnType.DOUBLE:
        if seg[1] - seg[0] != 8 * n:
            raise CorruptTabletError("bad double column segment")
        return list(struct.unpack(f"<{n}d", buf[seg[0]:seg[1]]))
    offsets, data_start = _segment_offsets(buf, seg, layout.r)
    p = data_start + offsets[0]
    if t in _INT_TYPES:
        for _ in range(n):
            z, p = decode_uvarint(buf, p)
            out.append((z >> 1) ^ -(z & 1))
    elif t is ColumnType.TIMESTAMP:
        for row in range(0, n, k):
            value, p = decode_uvarint(buf, p)
            out.append(value)
            for _ in range(row + 1, min(row + k, n)):
                z, p = decode_uvarint(buf, p)
                value += (z >> 1) ^ -(z & 1)
                out.append(value)
    elif t is ColumnType.STRING and index in schema.key_indexes:
        for row in range(0, n, k):
            prev_b = b""
            prev_s = ""
            for _ in range(row, min(row + k, n)):
                shared, p = decode_uvarint(buf, p)
                unshared, p = decode_uvarint(buf, p)
                if unshared == 0 and shared == len(prev_b):
                    out.append(prev_s)
                else:
                    if shared > len(prev_b):
                        raise CorruptTabletError(
                            "bad shared prefix length")
                    end = p + unshared
                    if end > seg[1]:
                        raise CorruptTabletError(
                            "truncated string value")
                    prev_b = prev_b[:shared] + buf[p:end]
                    p = end
                    prev_s = prev_b.decode("utf-8")
                    out.append(prev_s)
    elif t is ColumnType.STRING:
        for _ in range(n):
            length, p = decode_uvarint(buf, p)
            end = p + length
            if end > seg[1]:
                raise CorruptTabletError("truncated string value")
            out.append(buf[p:end].decode("utf-8"))
            p = end
    else:  # BLOB
        for _ in range(n):
            length, p = decode_uvarint(buf, p)
            end = p + length
            if end > seg[1]:
                raise CorruptTabletError("truncated blob value")
            out.append(buf[p:end])
            p = end
    if p != seg[1]:
        raise CorruptTabletError("column segment length mismatch")
    return out


def _decode_v2(schema: Schema, buf: bytes,
               indexes: Optional[Sequence[int]]) -> List[List[Any]]:
    layout = _parse_v2_layout(buf, schema)
    if indexes is None:
        indexes = range(len(schema.columns))
    return [_decode_column(buf, schema, index, layout) for index in indexes]


def prefix_column_encoders(schema: Schema):
    """Per-column encoders for Bloom prefix parts (key cols sans ts)."""

    def string_encoder(value: str) -> bytes:
        raw = value.encode("utf-8")
        return encode_uvarint(len(raw)) + raw

    def int_encoder(value: int) -> bytes:
        return encode_uvarint((value << 1) ^ (value >> 63))

    encoders = []
    for index in schema.key_indexes[:-1]:
        t = schema.columns[index].type
        if t is ColumnType.STRING:
            encoders.append(string_encoder)
        elif t is ColumnType.TIMESTAMP:
            encoders.append(encode_uvarint)
        else:
            encoders.append(int_encoder)
    return encoders


class SchemaCodec:
    """One schema's function bundle plus its metrics hooks.

    Thin per-holder wrapper: the bundle is shared via
    :func:`compiled_ops`; each holder (table, reader, writer) gets its
    own counter objects from its registry.
    """

    __slots__ = ("schema", "ops", "validate_and_size", "size_of", "key_of",
                 "_m_rows_encoded", "_m_rows_decoded",
                 "_m_blocks_encoded", "_m_blocks_decoded", "_m_encode_ns",
                 "_m_decode_ns", "_m_upgraded")

    def __init__(self, schema: Schema, metrics=None):
        self.schema = schema
        ops = compiled_ops(schema)
        self.ops = ops
        self.validate_and_size = ops.validate_and_size
        self.size_of = ops.size_of
        self.key_of = ops.key_of
        m = metrics if metrics is not None else NULL_REGISTRY
        self._m_rows_encoded = m.counter("codec.rows_encoded")
        self._m_rows_decoded = m.counter("codec.rows_decoded")
        self._m_blocks_encoded = m.counter("codec.blocks_encoded")
        self._m_blocks_decoded = m.counter("codec.blocks_decoded")
        self._m_encode_ns = m.counter("codec.encode_ns")
        self._m_decode_ns = m.counter("codec.decode_ns")
        self._m_upgraded = m.counter("codec.blocks_upgraded")

    # ------------------------------------------------------- block level

    def encode_rows(self, rows: Sequence[Tuple[Any, ...]]) -> bytes:
        """Encode a sorted row batch into one v3 block body."""
        started = time.perf_counter_ns()
        buf = self.ops.encode_rows(rows)
        self._m_encode_ns.inc(time.perf_counter_ns() - started)
        self._m_rows_encoded.inc(len(rows))
        self._m_blocks_encoded.inc()
        return buf

    def decode_block(self, buf: bytes
                     ) -> Tuple[List[Tuple[Any, ...]],
                                List[Tuple[Any, ...]]]:
        """Decode a whole v3 (or v2) block body into ``(rows, keys)``."""
        started = time.perf_counter_ns()
        rows, keys = self.ops.decode_block(buf)
        self._m_decode_ns.inc(time.perf_counter_ns() - started)
        self._m_rows_decoded.inc(len(rows))
        self._m_blocks_decoded.inc()
        return rows, keys

    def decode_block_columns(self, buf: bytes) -> List[List[Any]]:
        """Decode a whole v3 (or v2) block body into per-column value
        lists, one per schema column in schema order: the same walk as
        :meth:`decode_block` without the final ``zip``.

        The vectorized aggregate path consumes columns directly; no row
        tuples are materialized.
        """
        started = time.perf_counter_ns()
        columns = self.ops.decode_block_columns(buf)
        self._m_decode_ns.inc(time.perf_counter_ns() - started)
        self._m_rows_decoded.inc(len(columns[0]))
        self._m_blocks_decoded.inc()
        return columns

    def decode_key_columns(self, buf: bytes,
                           include_ts: bool = True) -> List[List[Any]]:
        """Decode only the key columns of a block (schema key order).

        The merge path uses this to feed Bloom filters for blocks that
        pass through without a full decode or re-encode.
        """
        indexes = self.schema.key_indexes
        if not include_ts:
            indexes = indexes[:-1]
        return self.ops.decode_block_columns(buf, indexes)

    # --------------------------------------------------------- key level

    def encode_key_prefix(self, values: Sequence[Any]) -> List[bytes]:
        """Per-column v1 encodings of a key prefix, timestamp excluded
        (what Bloom filters are fed and probed with)."""
        return [encode(value) for encode, value
                in zip(prefix_column_encoders(self.schema), values)]

    # ----------------------------------------------------------- metrics

    def note_upgraded_blocks(self, count: int = 1) -> None:
        """Record v1 and v2 blocks rewritten as v3 (merge upgrades)."""
        self._m_upgraded.inc(count)
