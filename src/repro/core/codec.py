"""Per-schema row functions and the block codec (format v3).

Two things live here.  Each :class:`Schema` is *compiled once* into
plain generated Python functions for the per-row work the insert path
cannot avoid - ``validate_and_size``, ``size_of``, ``key_of`` - with
the per-column tests inlined (``key_of`` is an ``itemgetter`` once the
key has two columns).  And rows move between memory and disk
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

There is one encoder, :meth:`_CompiledOps.encode_columns`: a query
page is encoded from the read cache's column slices as they are, and
``encode_rows`` (flush, merge, the WAL) is it over ``zip(*rows)``.
Nothing in encode or decode runs per value in Python beyond the one
add comprehension of a frame of reference: ``min``/``max``,
``array.tobytes``/``frombytes``, strided ``bytes`` slices and
``itertools.accumulate`` do the work.  Every segment says
how long it is, so :meth:`SchemaCodec.decode_key_columns` skips to the
key columns in O(columns).

Decoding is two steps: one checking walk over the segments
(:class:`BlockBody`), then one column decoder over a row stretch
``[lo, hi)`` - planes are sliced, a running column resumes from a
checkpoint.  A whole-block decode is that decoder over ``[0, n)``; the
read cache keeps the walked body and decodes only what readers take.

v3 is the only body this module reads.  The older ones - row-major v1
and varint-column v2 - are refused where their container is parsed
(a tablet footer's ``block_format``, a WAL record's first body byte)
with :class:`~repro.core.errors.UnsupportedFormatError`; a block body
whose first byte is not ``0x03`` reaching the decoder is corrupt.
"""

from __future__ import annotations

import struct
import sys
import time
import weakref
from array import array
from itertools import accumulate, islice, repeat
from operator import getitem, itemgetter, sub
from typing import Any, List, Optional, Sequence, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..util.varint import encode_uvarint
from .errors import CorruptTabletError, ValidationError
from .schema import TIMESTAMP_MAX, ColumnType, Schema, check_value

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
        # One C call a row; of one index itemgetter would return no tuple.
        self.key_of = (itemgetter(*schema.key_indexes)
                       if len(schema.key_indexes) > 1 else namespace["key_of"])

    def encode_columns(self, columns: Sequence[Sequence[Any]]) -> bytes:
        """Encode a batch held as columns (validated values, schema
        order, equal lengths) into one v3 block body: the one encoder."""
        if len(columns) != len(self._types):    # zip(*rows) of bad rows
            raise ValueError(f"{len(columns)} columns, schema has "
                             f"{len(self._types)}")
        return _encode_v3(self._types, columns)

    def encode_rows(self, rows: Sequence[Tuple[Any, ...]]) -> bytes:
        """:meth:`encode_columns` of a row batch (flush, merge, WAL)."""
        return self.encode_columns(list(zip(*rows)))

    def walk_block(self, buf: bytes) -> "BlockBody":
        """Walk a v3 block body for :meth:`BlockBody.column`, checking
        all of it: anything wrong is a :class:`CorruptTabletError`."""
        try:
            if buf[0] != BLOCK_FORMAT_V3:
                raise CorruptTabletError(f"bad block format byte {buf[0]}")
            return _walk_v3(self._types, buf)
        except (IndexError, ValueError, struct.error) as exc:
            raise CorruptTabletError(f"corrupt block: {exc}") from exc

    def decode_block_columns(self, buf: bytes,
                             indexes: Optional[Sequence[int]] = None
                             ) -> List[List[Any]]:
        """Decode a v3 block body into per-column value lists: every
        column in schema order, or just ``indexes``."""
        body = self.walk_block(buf)
        if indexes is None:
            indexes = range(len(self._types))
        return [body.column(index, 0, body.count) for index in indexes]

    def decode_block(self, buf: bytes) -> Tuple[List[Tuple[Any, ...]],
                                                List[Tuple[Any, ...]]]:
        """Decode a v3 block body into ``(rows, keys)``."""
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
            values = list(map(sub, values, repeat(lo)))
        _append_planes(array("Q", values), width, parts)


def _encode_v3(types: Sequence[ColumnType],
               columns: Sequence[Sequence[Any]]) -> bytes:
    if not columns[0]:
        raise ValueError("cannot encode an empty block")
    parts = [_HEAD.pack(BLOCK_FORMAT_V3, len(columns[0]))]
    for t, column in zip(types, columns):
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


def _from_planes(typecode: str, view: memoryview, start: int, stride: int,
                 count: int, width: int) -> array:
    """``count`` 8-byte items from their ``width`` low byte planes, plane
    ``p`` of the first one at ``start + p * stride`` (no plane: zeros)."""
    raw = bytearray(8 * count)
    for plane in range(width):
        raw[plane::8] = view[start:start + count]
        start += stride
    items = array(typecode)
    items.frombytes(raw)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


def _offsets_sum(view: memoryview, segment: tuple, a: int, b: int) -> int:
    """The sum of items ``[a, b)`` of a frame-of-reference segment."""
    planes, stride, lo, width = segment[:4]
    total = (b - a) * lo
    if width:
        total += sum(_from_planes("Q", view, planes + a, stride, b - a, width))
    return total


class BlockBody:
    """One v3 block body, walked once by :func:`_walk_v3` (which checks
    all that a decode could trip on): :meth:`column` decodes any column
    over any row stretch.  Timestamps and string and blob lengths are
    *running* columns, ``C[k + 1] = C[k] + d[k]``; a stretch resumes
    from the nearest of ``C[0]`` and the ends of the last stretch
    decoded from the column (``marks``, a tuple replaced whole), so
    successive stretches cost their own length in either direction.
    """

    __slots__ = ("view", "types", "count", "segments", "marks")

    def __init__(self, view: memoryview, types: Sequence[ColumnType],
                 count: int, segments: List[tuple], marks: List[Any]):
        self.view = view
        self.types = types
        self.count = count
        #: Per column ``(planes, stride, lo, width, first, text)``: planes,
        #: frame of reference, ``C[0]``, what strings and blobs slice.
        self.segments = segments
        self.marks = marks

    def column(self, index: int, lo: int, hi: int) -> List[Any]:
        """Column ``index``'s values for rows ``[lo, hi)``."""
        t = self.types[index]
        planes, stride, base, width, _first, text = self.segments[index]
        if t is ColumnType.TIMESTAMP:
            return self._running(index, lo, hi - 1)
        if text is not None:
            ends = self._running(index, lo, hi)
            return list(map(getitem, repeat(text),
                            map(slice, ends, islice(ends, 1, None))))
        if t is ColumnType.DOUBLE:
            return _from_planes("d", self.view, planes + lo, stride, hi - lo,
                                8).tolist()
        if not width:
            return [base] * (hi - lo)
        items = _from_planes("Q", self.view, planes + lo, stride, hi - lo,
                             width)
        return [item + base for item in items] if base else items.tolist()

    def _running(self, index: int, a: int, b: int) -> List[int]:
        """``C[a..b]`` of running column ``index``."""
        segment = self.segments[index]
        planes, stride, base, width, value, _text = segment
        at = 0
        for k, known in self.marks[index]:
            if abs(k - a) < abs(at - a):
                at, value = k, known
        if at < a:
            value += _offsets_sum(self.view, segment, at, a)
        elif at > a:
            value -= _offsets_sum(self.view, segment, a, at)
        offsets = _from_planes("Q", self.view, planes + a, stride, b - a,
                               width)
        values = list(accumulate([item + base for item in offsets]
                                 if base else offsets, initial=value))
        self.marks[index] = ((a, value), (b, values[-1]))
        return values


def _walk_v3(types: Sequence[ColumnType], buf: bytes) -> BlockBody:
    """Walk the segments, checking every bound before the row count sizes
    anything, each string's UTF-8, and that lengths sum to the body."""
    if type(buf) is not bytes:      # blobs are sliced from it
        buf = bytes(buf)
    view = memoryview(buf)
    _format, n = _HEAD.unpack_from(view, 0)
    if n == 0:
        raise CorruptTabletError("v3 block with no rows")
    p = _HEAD.size
    segments: List[tuple] = []
    marks: List[Any] = []
    for t in types:
        mark, text = (), None
        if t is ColumnType.DOUBLE:
            segment = (p, n, 0, 8, 0, None)
            p += 8 * n
        else:
            first, stride = 0, n
            if t is ColumnType.TIMESTAMP:
                (first,) = _U64.unpack_from(view, p)
                p += _U64.size
                stride = n - 1
            lo, width = _INT_HEAD.unpack_from(view, p)
            if width > 8:
                raise CorruptTabletError(f"plane count {width} > 8")
            p += _INT_HEAD.size
            planes = p
            p += width * stride
            if t is ColumnType.STRING or t is ColumnType.BLOB:
                if lo < 0:
                    raise CorruptTabletError("negative value length")
                (body_len,) = _U32.unpack_from(view, p)
                p += _U32.size + body_len
                if p > len(view):
                    raise CorruptTabletError("truncated column segment")
                # String lengths count characters, so the body is decoded
                # once; a blob is sliced from the raw bytes in place.
                if t is ColumnType.STRING:
                    text = str(view[p - body_len:p], "utf-8")
                    body_len = len(text)
                else:
                    text, first = buf, p - body_len
            segment = (planes, stride, lo, width, first, text)
            if text is not None:
                end = first + _offsets_sum(view, segment, 0, n)
                if end != first + body_len:
                    raise CorruptTabletError(
                        "value lengths do not sum to the body")
                mark = ((n, end),)
        if p > len(view):
            raise CorruptTabletError("truncated column segment")
        segments.append(segment)
        marks.append(mark)
    if p != len(view):
        raise CorruptTabletError("trailing bytes after last column")
    return BlockBody(view, types, n, segments, marks)


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
                 "_m_decode_ns", "_m_block_rows", "_values")

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
        self._m_block_rows = m.counter("block.rows_decoded")
        self._values = 0    # decoded values not yet a whole row's worth

    # ------------------------------------------------------- block level

    def encode_rows(self, rows: Sequence[Tuple[Any, ...]]) -> bytes:
        """Encode a sorted row batch into one v3 block body."""
        started = time.perf_counter_ns()
        buf = self.ops.encode_rows(rows)
        self._m_encode_ns.inc(time.perf_counter_ns() - started)
        self._m_rows_encoded.inc(len(rows))
        self._m_blocks_encoded.inc()
        return buf

    def walk_block(self, buf: bytes) -> BlockBody:
        """Open a v3 block body for decoding (one checking walk, counted
        as a block decoded)."""
        started = time.perf_counter_ns()
        body = self.ops.walk_block(buf)
        self._m_decode_ns.inc(time.perf_counter_ns() - started)
        self._m_blocks_decoded.inc()
        return body

    def decode_columns(self, body: BlockBody, into: List[Any],
                       indexes: Sequence[int], lo: int, hi: int) -> None:
        """Decode each column ``i`` of ``indexes`` over rows ``[lo, hi)``
        into ``into[i]``.  ``codec.rows_decoded`` and its ``block.`` twin
        count values, a row per schema-width (the rest carried over)."""
        started = time.perf_counter_ns()
        for index in indexes:
            into[index] = body.column(index, lo, hi)
        self._m_decode_ns.inc(time.perf_counter_ns() - started)
        rows, self._values = divmod(
            self._values + len(indexes) * (hi - lo), len(into))
        self._m_rows_decoded.inc(rows)
        self._m_block_rows.inc(rows)

    def decode_block(self, buf: bytes
                     ) -> Tuple[List[Tuple[Any, ...]],
                                List[Tuple[Any, ...]]]:
        """Decode a whole v3 block body into ``(rows, keys)``."""
        columns = self.decode_block_columns(buf)
        return (list(zip(*columns)),
                list(zip(*[columns[i] for i in self.schema.key_indexes])))

    def decode_block_columns(self, buf: bytes) -> List[List[Any]]:
        """Decode a whole v3 block body into per-column value lists,
        one per schema column in schema order."""
        body = self.walk_block(buf)
        columns: List[Any] = [None] * len(body.types)
        self.decode_columns(body, columns, range(len(columns)), 0,
                            body.count)
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
