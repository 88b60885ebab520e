"""Schema-compiled batch codecs and block format v2.

The v1 row format (``encoding.py``) encodes one field at a time through
``encode_value``/``decode_value`` dispatch: every row pays one Python
call per column plus a type test per value.  Profiles of insert, flush,
merge, and scan are dominated by that interpreter overhead, not by the
bytes themselves.  This module removes it the way real LSM engines do
(Real-Time LSM-Trees; RocksDB's BlockBuilder): each :class:`Schema` is
*compiled once* into specialized batch encoders and decoders - plain
generated Python functions with the per-column work inlined - and rows
move through the engine in whole-block batches.

Block format v2 (one block = one column-major batch)::

    [0x02]                      format byte (redundant with the footer)
    [uvarint n]                 row count
    [uvarint K]                 restart interval
    [uvarint R]                 number of restarts = ceil(n / K)
    then one segment per column, in schema order:
      [uvarint seg_len][segment bytes]

Segment bodies by column type:

* ``DOUBLE``: one ``struct`` pack of all n values (``<nd``), no
  restart table (offsets are computable).
* every other type: ``[uvarint offs_len][R uvarint restart offsets]``
  (byte offsets of each restart row, relative to the data that
  follows) then the data:

  - ``TIMESTAMP``: the restart row's value as a full uvarint, then
    zigzag svarint deltas within the restart run;
  - ``INT32``/``INT64``: plain zigzag svarints (fused run, no
    per-value dispatch);
  - key ``STRING`` columns: prefix compression against the previous
    value - ``[uvarint shared][uvarint unshared][bytes]`` with
    ``shared = 0`` at every restart row;
  - non-key ``STRING`` and ``BLOB``: ``[uvarint len][bytes]``.

Restart rows always carry complete values: a timestamp delta or a
shared key prefix never reaches back past one, and the restart offsets
say where each one starts.  Every decoder reads whole columns - the
compiled ones all of them, skipping the offset tables,
:meth:`SchemaCodec.decode_key_columns` the key columns alone, checking
them - because a row reader wants the whole block
(``TabletReader._scan_block`` keeps the decode cached).

v1 blocks carry no version byte; the tablet footer's trailing
``block_format`` field (absent in old footers, so absence means v1)
tells the reader which decoder to use.  Merges rewrite v1 blocks into
v2, upgrading old tablets in place over time.
"""

from __future__ import annotations

import struct
import time
import weakref
from typing import Any, List, Sequence, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..util.varint import decode_uvarint, encode_uvarint
from .errors import CorruptTabletError, ValidationError
from .schema import ColumnType, Schema, check_value

BLOCK_FORMAT_V1 = 1
BLOCK_FORMAT_V2 = 2

#: Restart interval: one complete (non-delta, non-prefix-compressed)
#: row every K rows.
RESTART_INTERVAL = 16

_INT_TYPES = (ColumnType.INT32, ColumnType.INT64)


# --------------------------------------------------------------------------
# code generation helpers
#
# The generators below build the source of one specialized function per
# schema and ``exec`` it once.  Inlined loops beat per-value dispatch by
# 3-5x in CPython: no call frames, no enum identity tests, and varint
# emission appends straight into a shared bytearray.


def _emit_uvarint(var: str, out: str, indent: str) -> str:
    """Source lines appending ``var`` (consumed) as a uvarint to ``out``."""
    return (
        f"{indent}while {var} > 127:\n"
        f"{indent}    {out}({var} & 127 | 128)\n"
        f"{indent}    {var} >>= 7\n"
        f"{indent}{out}({var})\n"
    )


def _emit_read_uvarint(var: str, indent: str) -> str:
    """Source lines decoding a uvarint from ``buf`` at ``_p`` into ``var``."""
    return (
        f"{indent}{var} = buf[_p]; _p += 1\n"
        f"{indent}if {var} > 127:\n"
        f"{indent}    {var} &= 127\n"
        f"{indent}    _sh2 = 7\n"
        f"{indent}    while True:\n"
        f"{indent}        _byt = buf[_p]; _p += 1\n"
        f"{indent}        if _byt > 127:\n"
        f"{indent}            {var} |= (_byt & 127) << _sh2\n"
        f"{indent}            _sh2 += 7\n"
        f"{indent}            if _sh2 > 70:\n"
        f"{indent}                raise _corrupt('uvarint too long')\n"
        f"{indent}        else:\n"
        f"{indent}            {var} |= _byt << _sh2\n"
        f"{indent}            break\n"
    )


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
                f"    elif {v} < 0:",
                f"        raise _VE('timestamps must be non-negative: %d'"
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


def _varwidth_segment_tail(indent: str = "    ") -> str:
    """Shared assembly: append [seg_len][offs_len][offs][data] to parts."""
    return (
        f"{indent}_ob = bytes(_offs)\n"
        f"{indent}_sb = bytes(_seg)\n"
        f"{indent}_h = _euv(len(_ob))\n"
        f"{indent}_pa(_euv(len(_h) + len(_ob) + len(_sb)))\n"
        f"{indent}_pa(_h)\n"
        f"{indent}_pa(_ob)\n"
        f"{indent}_pa(_sb)\n"
    )


def _gen_encode_rows_v2(schema: Schema, K: int) -> str:
    ncols = len(schema.columns)
    cols = ", ".join(f"_c{i}" for i in range(ncols))
    tail = "," if ncols == 1 else ""
    key_set = set(schema.key_indexes)
    src = [
        "def encode_rows(rows):",
        "    n = len(rows)",
        "    if n == 0:",
        "        raise ValueError('cannot encode an empty block')",
        f"    ({cols}{tail}) = zip(*rows)",
        f"    _parts = [b'\\x02', _euv(n), _KB, _euv((n + {K - 1}) // {K})]",
        "    _pa = _parts.append",
    ]
    open_chunk = (
        "    _seg = bytearray()\n"
        "    _sa = _seg.append\n"
        "    _offs = bytearray()\n"
        "    _oa = _offs.append\n"
        "    _i = 0\n"
        "    while _i < n:\n"
        "        _x = len(_seg)\n"
        + _emit_uvarint("_x", "_oa", "        ")
    )
    for i, column in enumerate(schema.columns):
        t = column.type
        c = f"_c{i}"
        if t is ColumnType.DOUBLE:
            src.append("    _pa(_euv(8 * n))")
            src.append(f"    _pa(_pack('<%dd' % n, *{c}))")
            continue
        body = open_chunk
        if t in _INT_TYPES:
            body += (
                f"        for _v in {c}[_i:_i + {K}]:\n"
                "            _z = (_v << 1) ^ (_v >> 63)\n"
                + _emit_uvarint("_z", "_sa", "            ")
            )
        elif t is ColumnType.TIMESTAMP:
            body += (
                f"        _chunk = {c}[_i:_i + {K}]\n"
                "        _prev = _chunk[0]\n"
                "        _x = _prev\n"
                + _emit_uvarint("_x", "_sa", "        ")
                + "        for _v in _chunk[1:]:\n"
                "            _d = _v - _prev\n"
                "            _prev = _v\n"
                "            _z = (_d << 1) ^ (_d >> 63)\n"
                + _emit_uvarint("_z", "_sa", "            ")
            )
        elif t is ColumnType.STRING and i in key_set:
            body += (
                "        _pb = b''\n"
                f"        for _v in {c}[_i:_i + {K}]:\n"
                "            _b = _v.encode('utf-8')\n"
                "            if _b == _pb:\n"
                "                _sh = len(_b)\n"
                "            else:\n"
                "                _m = len(_b)\n"
                "                if len(_pb) < _m:\n"
                "                    _m = len(_pb)\n"
                "                _sh = 0\n"
                "                while _sh < _m and _b[_sh] == _pb[_sh]:\n"
                "                    _sh += 1\n"
                "            _u = len(_b) - _sh\n"
                "            _x = _sh\n"
                + _emit_uvarint("_x", "_sa", "            ")
                + "            _x = _u\n"
                + _emit_uvarint("_x", "_sa", "            ")
                + "            if _u:\n"
                "                _seg += _b[_sh:]\n"
                "            _pb = _b\n"
            )
        elif t is ColumnType.STRING:
            body += (
                f"        for _v in {c}[_i:_i + {K}]:\n"
                "            _b = _v.encode('utf-8')\n"
                "            _x = len(_b)\n"
                + _emit_uvarint("_x", "_sa", "            ")
                + "            _seg += _b\n"
            )
        else:  # BLOB
            body += (
                f"        for _v in {c}[_i:_i + {K}]:\n"
                "            _x = len(_v)\n"
                + _emit_uvarint("_x", "_sa", "            ")
                + "            _seg += _v\n"
            )
        body += f"        _i += {K}\n"
        body += _varwidth_segment_tail()
        src.append(body.rstrip("\n"))
    src.append("    return b''.join(_parts)")
    return "\n".join(src)


def _gen_decode_block_v2(schema: Schema, columns: bool = False) -> str:
    ncols = len(schema.columns)
    key_set = set(schema.key_indexes)
    name = "decode_block_columns" if columns else "decode_block"
    src = [
        f"def {name}(buf):",
        "    try:",
        "        if buf[0] != 2:",
        "            raise _corrupt('bad v2 block format byte %d'"
        " % (buf[0],))",
        "        _p = 1",
        _emit_read_uvarint("n", "        ").rstrip("\n"),
        _emit_read_uvarint("_k", "        ").rstrip("\n"),
        _emit_read_uvarint("_r", "        ").rstrip("\n"),
        "        if _k <= 0 or _r != (n + _k - 1) // _k:",
        "            raise _corrupt('bad v2 block restart table')",
    ]
    var_hdr = (
        _emit_read_uvarint("_sl", "        ")
        + "        _end = _p + _sl\n"
        "        if _end > len(buf):\n"
        "            raise _corrupt('truncated column segment')\n"
        + _emit_read_uvarint("_ol", "        ")
        + "        _p += _ol\n"
    )
    for i, column in enumerate(schema.columns):
        t = column.type
        c = f"_c{i}"
        if t is ColumnType.DOUBLE:
            src.append(
                _emit_read_uvarint("_sl", "        ")
                + "        _end = _p + _sl\n"
                "        if _sl != 8 * n or _end > len(buf):\n"
                "            raise _corrupt('bad double column segment')\n"
                + f"        {c} = _unpack('<%dd' % n, buf[_p:_end])\n"
                "        _p = _end"
            )
            continue
        body = var_hdr + f"        {c} = []\n        _ap = {c}.append\n"
        if t in _INT_TYPES:
            body += (
                "        for _j in range(n):\n"
                + _emit_read_uvarint("_z", "            ")
                + "            _ap((_z >> 1) ^ -(_z & 1))\n"
            )
        elif t is ColumnType.TIMESTAMP:
            body += (
                "        _i2 = 0\n"
                "        while _i2 < n:\n"
                + _emit_read_uvarint("_v", "            ")
                + "            _ap(_v)\n"
                "            _lim = _i2 + _k\n"
                "            if _lim > n:\n"
                "                _lim = n\n"
                "            _j = _i2 + 1\n"
                "            while _j < _lim:\n"
                + _emit_read_uvarint("_z", "                ")
                + "                _v += (_z >> 1) ^ -(_z & 1)\n"
                "                _ap(_v)\n"
                "                _j += 1\n"
                "            _i2 = _lim\n"
            )
        elif t is ColumnType.STRING and i in key_set:
            body += (
                "        _i2 = 0\n"
                "        while _i2 < n:\n"
                "            _pb = b''\n"
                "            _ps = ''\n"
                "            _lim = _i2 + _k\n"
                "            if _lim > n:\n"
                "                _lim = n\n"
                "            _j = _i2\n"
                "            while _j < _lim:\n"
                + _emit_read_uvarint("_sh", "                ")
                + _emit_read_uvarint("_u", "                ")
                + "                if _u == 0 and _sh == len(_pb):\n"
                "                    _ap(_ps)\n"
                "                else:\n"
                "                    if _sh > len(_pb):\n"
                "                        raise _corrupt('bad shared"
                " prefix length')\n"
                "                    _e2 = _p + _u\n"
                "                    if _e2 > _end:\n"
                "                        raise _corrupt('truncated"
                " string value')\n"
                "                    _pb = _pb[:_sh] + buf[_p:_e2]\n"
                "                    _p = _e2\n"
                "                    _ps = _pb.decode('utf-8')\n"
                "                    _ap(_ps)\n"
                "                _j += 1\n"
                "            _i2 = _lim\n"
            )
        elif t is ColumnType.STRING:
            body += (
                "        for _j in range(n):\n"
                + _emit_read_uvarint("_l", "            ")
                + "            _e2 = _p + _l\n"
                "            if _e2 > _end:\n"
                "                raise _corrupt('truncated string value')\n"
                "            _ap(buf[_p:_e2].decode('utf-8'))\n"
                "            _p = _e2\n"
            )
        else:  # BLOB
            body += (
                "        for _j in range(n):\n"
                + _emit_read_uvarint("_l", "            ")
                + "            _e2 = _p + _l\n"
                "            if _e2 > _end:\n"
                "                raise _corrupt('truncated blob value')\n"
                "            _ap(buf[_p:_e2])\n"
                "            _p = _e2\n"
            )
        body += (
            "        if _p != _end:\n"
            "            raise _corrupt('column segment length mismatch')"
        )
        src.append(body)
    cols = ", ".join(f"_c{i}" for i in range(ncols))
    keys = ", ".join(f"_c{i}" for i in schema.key_indexes)
    src += [
        "        if _p != len(buf):",
        "            raise _corrupt('trailing bytes after last column')",
    ]
    if columns:
        # The vectorized read path wants the column segments themselves:
        # no per-row tuple materialization, just the decoded value lists
        # in schema column order.
        src.append(f"        return [{cols}]")
    else:
        src += [
            f"        _rows = list(zip({cols}))",
            f"        _keys = list(zip({keys}))",
            "        return _rows, _keys",
        ]
    src += [
        "    except (IndexError, _StructError, UnicodeDecodeError) as _exc:",
        "        raise _corrupt('corrupt v2 block: %s' % (_exc,))",
    ]
    return "\n".join(src)


class _CompiledOps:
    """The per-schema compiled function bundle (no metrics, no state).

    One instance per schema *value*, memoized on every :class:`Schema`
    object of that value, so writers/readers/memtables constructed per
    flush or per merge pay nothing beyond an attribute lookup, and a
    tablet footer parsed into a fresh ``Schema`` compiles nothing.
    """

    __slots__ = ("schema", "validate_and_size", "size_of", "key_of",
                 "encode_rows", "decode_block",
                 "decode_block_columns", "__weakref__")

    def __init__(self, schema: Schema):
        self.schema = schema
        namespace = {
            "_cv": check_value,
            "_VE": ValidationError,
            "_corrupt": CorruptTabletError,
            "_euv": encode_uvarint,
            "_pack": struct.pack,
            "_unpack": struct.unpack,
            "_StructError": struct.error,
            "_KB": encode_uvarint(RESTART_INTERVAL),
        }
        for i, column in enumerate(schema.columns):
            namespace[f"_t{i}"] = column.type
        source = "\n\n".join([
            _gen_validate_and_size(schema),
            _gen_size_of(schema),
            _gen_key_of(schema),
            _gen_encode_rows_v2(schema, RESTART_INTERVAL),
            _gen_decode_block_v2(schema),
            _gen_decode_block_v2(schema, columns=True),
        ])
        exec(compile(source, f"<codec:{schema!r}>", "exec"), namespace)
        self.validate_and_size = namespace["validate_and_size"]
        self.size_of = namespace["size_of"]
        self.key_of = namespace["key_of"]
        self.encode_rows = namespace["encode_rows"]
        self.decode_block = namespace["decode_block"]
        self.decode_block_columns = namespace["decode_block_columns"]


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
# generic (interpreted) v2 reader: the key columns alone
#
# ``decode_key_columns`` feeds Bloom filters for blocks a merge passes
# through undecoded; it reads a few columns of a block, so it stays
# generic: one layout parser and per-type column decoders instead of
# per-schema generated code.


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
    try:
        if buf[0] != BLOCK_FORMAT_V2:
            raise CorruptTabletError(
                f"bad v2 block format byte {buf[0]}")
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
    except (IndexError, ValueError) as exc:
        raise CorruptTabletError(f"corrupt v2 block: {exc}") from exc


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
    try:
        if t is ColumnType.DOUBLE:
            end = seg[0] + 8 * n
            if end > seg[1]:
                raise CorruptTabletError("bad double column segment")
            return list(struct.unpack(f"<{n}d", buf[seg[0]:end]))
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
        return out
    except (IndexError, ValueError, struct.error) as exc:
        if isinstance(exc, CorruptTabletError):
            raise
        raise CorruptTabletError(f"corrupt v2 block: {exc}") from exc


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
    """One schema's compiled codec plus its metrics hooks.

    Thin per-holder wrapper: the compiled function bundle is shared via
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
        self._m_upgraded = m.counter("codec.blocks_upgraded_v1_to_v2")

    # ------------------------------------------------------- block level

    def encode_rows(self, rows: Sequence[Tuple[Any, ...]]) -> bytes:
        """Encode a sorted row batch into one v2 block body."""
        started = time.perf_counter_ns()
        buf = self.ops.encode_rows(rows)
        self._m_encode_ns.inc(time.perf_counter_ns() - started)
        self._m_rows_encoded.inc(len(rows))
        self._m_blocks_encoded.inc()
        return buf

    def decode_block(self, buf: bytes
                     ) -> Tuple[List[Tuple[Any, ...]],
                                List[Tuple[Any, ...]]]:
        """Decode a whole v2 block body into ``(rows, keys)``."""
        started = time.perf_counter_ns()
        rows, keys = self.ops.decode_block(buf)
        self._m_decode_ns.inc(time.perf_counter_ns() - started)
        self._m_rows_decoded.inc(len(rows))
        self._m_blocks_decoded.inc()
        return rows, keys

    def decode_block_columns(self, buf: bytes) -> List[List[Any]]:
        """Decode a whole v2 block body into per-column value lists.

        The vectorized aggregate path consumes columns directly; no row
        tuples are materialized.  Returns one list per schema column, in
        schema order (DOUBLE columns come back as tuples from
        ``struct.unpack``; slicing and indexing work the same).
        """
        started = time.perf_counter_ns()
        columns = self.ops.decode_block_columns(buf)
        self._m_decode_ns.inc(time.perf_counter_ns() - started)
        if columns:
            self._m_rows_decoded.inc(len(columns[0]))
        self._m_blocks_decoded.inc()
        return columns

    def decode_key_columns(self, buf: bytes,
                           include_ts: bool = True) -> List[List[Any]]:
        """Decode only the key columns of a v2 block (schema key order).

        The merge path uses this to feed Bloom filters for blocks that
        pass through without a full decode or re-encode.
        """
        layout = _parse_v2_layout(buf, self.schema)
        indexes = self.schema.key_indexes
        if not include_ts:
            indexes = indexes[:-1]
        return [_decode_column(buf, self.schema, index, layout)
                for index in indexes]

    # --------------------------------------------------------- key level

    def encode_key_prefix(self, values: Sequence[Any]) -> List[bytes]:
        """Per-column v1 encodings of a key prefix, timestamp excluded
        (what Bloom filters are fed and probed with)."""
        return [encode(value) for encode, value
                in zip(prefix_column_encoders(self.schema), values)]

    # ----------------------------------------------------------- metrics

    def note_upgraded_blocks(self, count: int = 1) -> None:
        """Record v1 blocks rewritten as v2 (merge upgrades)."""
        self._m_upgraded.inc(count)
