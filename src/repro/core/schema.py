"""Table schemas.

Paper §3.1: "The schema of a table in LittleTable consists of a set of
columns, each of which has a name, type, and default value.  An ordered
subset of these columns form the table's primary key.  The final column
in this subset must be of type timestamp and named 'ts'."

Paper §3.5: supported column types are 32-bit and 64-bit integers,
double-precision floats, timestamps, variable-length strings, and byte
arrays; there are no NULL values (applications use sentinels instead).

Schema evolution (§3.5): clients can append columns to the tail of the
schema, widen int32 columns to int64, and alter the TTL.  Old tablets
are *not* rewritten; their rows are translated on read.
"""

from __future__ import annotations

import base64
import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import SchemaError, ValidationError

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
#: Timestamps are microseconds in ``[0, 2**63)``: a signed 64-bit word
#: on every wire and disk format, and the bound that keeps the
#: difference of any two inside 64 bits (block format v3 stores those).
TIMESTAMP_MAX = INT64_MAX

TIMESTAMP_COLUMN = "ts"


class ColumnType(enum.Enum):
    """The six column types of §3.5."""

    INT32 = "int32"
    INT64 = "int64"
    DOUBLE = "double"
    TIMESTAMP = "timestamp"
    STRING = "string"
    BLOB = "blob"


_TYPE_DEFAULTS: Dict[ColumnType, Any] = {
    ColumnType.INT32: 0,
    ColumnType.INT64: 0,
    ColumnType.DOUBLE: 0.0,
    ColumnType.TIMESTAMP: 0,
    ColumnType.STRING: "",
    ColumnType.BLOB: b"",
}


def check_value(column_type: ColumnType, value: Any) -> Any:
    """Validate (and lightly coerce) a value for a column type.

    Returns the canonical stored value.  There are no NULLs: None is
    always rejected here (a missing ``ts`` is handled by the table,
    which substitutes the current time before validation).
    """
    if value is None:
        raise ValidationError("NULL values are not supported (use sentinels)")
    if column_type is ColumnType.INT32:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"expected int32, got {value!r}")
        if not INT32_MIN <= value <= INT32_MAX:
            raise ValidationError(f"int32 out of range: {value}")
        return value
    if column_type is ColumnType.INT64:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"expected int64, got {value!r}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise ValidationError(f"int64 out of range: {value}")
        return value
    if column_type is ColumnType.DOUBLE:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"expected double, got {value!r}")
        return float(value)
    if column_type is ColumnType.TIMESTAMP:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"expected timestamp (int micros), got {value!r}")
        if not 0 <= value <= TIMESTAMP_MAX:
            raise ValidationError(
                f"timestamps must be in [0, 2**63): {value}")
        return value
    if column_type is ColumnType.STRING:
        if not isinstance(value, str):
            raise ValidationError(f"expected string, got {value!r}")
        return value
    if column_type is ColumnType.BLOB:
        if isinstance(value, bytearray):
            return bytes(value)
        if not isinstance(value, bytes):
            raise ValidationError(f"expected blob, got {value!r}")
        return value
    raise SchemaError(f"unknown column type {column_type!r}")


@dataclass(frozen=True)
class Column:
    """One column: name, type, and a (non-NULL) default value."""

    name: str
    type: ColumnType
    default: Any = None  # None here means "use the type default"

    def resolved_default(self) -> Any:
        if self.default is None:
            return _TYPE_DEFAULTS[self.type]
        return check_value(self.type, self.default)


class Schema:
    """An ordered list of columns plus the primary-key column names.

    The key columns must be a prefix-independent ordered subset of the
    columns; the last key column must be named ``ts`` with type
    timestamp.  Rows are stored as tuples in column order.
    """

    def __init__(self, columns: Sequence[Column], key: Sequence[str],
                 version: int = 1):
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        for column in columns:
            if not column.name or not isinstance(column.name, str):
                raise SchemaError(f"bad column name: {column.name!r}")
        if not key:
            raise SchemaError("a schema needs at least one key column")
        by_name = {c.name: c for c in columns}
        for key_name in key:
            if key_name not in by_name:
                raise SchemaError(f"key column {key_name!r} is not a column")
        if len(set(key)) != len(key):
            raise SchemaError("duplicate key columns")
        last = by_name[key[-1]]
        if last.name != TIMESTAMP_COLUMN or last.type is not ColumnType.TIMESTAMP:
            raise SchemaError(
                "the final key column must be a timestamp named 'ts' (§3.1)"
            )
        for key_name in key[:-1]:
            if by_name[key_name].type is ColumnType.BLOB:
                raise SchemaError("blob columns cannot be key columns")
            if by_name[key_name].type is ColumnType.DOUBLE:
                # A key prefix feeds the tablets' Bloom filters, which
                # encode integers and strings only.
                raise SchemaError("double columns cannot be key columns")
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.key: Tuple[str, ...] = tuple(key)
        self.version = version
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        self.key_indexes: Tuple[int, ...] = tuple(self._index[k] for k in key)
        self.ts_index: int = self._index[TIMESTAMP_COLUMN]
        self._defaults = tuple(c.resolved_default() for c in self.columns)

    # ------------------------------------------------------------ basics

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schema)
            and self.columns == other.columns
            and self.key == other.key
            and self.version == other.version
        )

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self.columns)
        return f"Schema([{cols}], key={list(self.key)}, v{self.version})"

    def column_index(self, name: str) -> int:
        """Return the position of a column by name."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    @property
    def key_width(self) -> int:
        """Number of key columns, including the timestamp."""
        return len(self.key)

    # -------------------------------------------------------------- rows

    def positional_from_dict(self, values: Dict[str, Any],
                             now: Optional[int] = None) -> List[Any]:
        """Lay a column->value mapping out in column order, values
        unchecked (the insert path validates positional rows once).

        Missing non-key columns take their defaults.  A missing or None
        ``ts`` takes ``now`` if given (§3.1: "a client may also omit a
        row's timestamp entirely, in which case the server sets it to
        the current time").  Missing other key columns are an error.
        """
        if not values.keys() <= self._index.keys():
            raise ValidationError(
                f"unknown columns: {sorted(set(values) - set(self._index))}")
        row: List[Any] = []
        for position, column in enumerate(self.columns):
            value = values.get(column.name)
            if value is not None:
                row.append(value)
            elif position == self.ts_index and now is not None:
                row.append(now)
            elif position in self.key_indexes:
                raise ValidationError(f"missing key column {column.name!r}")
            else:
                row.append(self._defaults[position])
        return row

    def row_from_dict(self, values: Dict[str, Any],
                      now: Optional[int] = None) -> Tuple[Any, ...]:
        """Build a validated row tuple from a column->value mapping
        (:meth:`positional_from_dict`, then :meth:`validate_row`)."""
        return self.validate_row(self.positional_from_dict(values, now))

    def validate_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Validate a positional row tuple (column order)."""
        if len(row) != len(self.columns):
            raise ValidationError(
                f"row has {len(row)} values, schema has {len(self.columns)}"
            )
        return tuple(
            check_value(column.type, value)
            for column, value in zip(self.columns, row)
        )

    def row_to_dict(self, row: Sequence[Any]) -> Dict[str, Any]:
        """Convert a row tuple back to a column->value dict."""
        return {c.name: v for c, v in zip(self.columns, row)}

    def key_of(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Extract the primary-key tuple (ending in ts) from a row."""
        return tuple(row[i] for i in self.key_indexes)

    def ts_of(self, row: Sequence[Any]) -> int:
        """Extract the timestamp from a row."""
        return row[self.ts_index]

    # --------------------------------------------------------- evolution

    def with_appended_column(self, column: Column) -> "Schema":
        """§3.5: clients can append columns to the tail of the schema."""
        if self.has_column(column.name):
            raise SchemaError(f"column {column.name!r} already exists")
        column.resolved_default()  # validate the default now
        return Schema(self.columns + (column,), self.key, self.version + 1)

    def with_widened_column(self, name: str) -> "Schema":
        """§3.5: increase the precision of an int32 column to 64 bits."""
        position = self.column_index(name)
        old = self.columns[position]
        if old.type is not ColumnType.INT32:
            raise SchemaError(f"only int32 columns can be widened, not {name!r}")
        widened = Column(old.name, ColumnType.INT64, old.default)
        columns = self.columns[:position] + (widened,) + self.columns[position + 1:]
        return Schema(columns, self.key, self.version + 1)

    def translate_row(self, row: Sequence[Any], from_schema: "Schema") -> Tuple[Any, ...]:
        """Translate a row written under an older schema to this one.

        §3.5: "LittleTable translates its rows to the latest version,
        extending the precision of cells or filling them in with the
        default values from the table schema as necessary."
        """
        if from_schema.version > self.version:
            raise SchemaError("cannot translate from a newer schema")
        translated: List[Any] = []
        for position, column in enumerate(self.columns):
            if from_schema.has_column(column.name):
                value = row[from_schema.column_index(column.name)]
                # int32 -> int64 widening needs no value change.
                translated.append(value)
            else:
                translated.append(self._defaults[position])
        return tuple(translated)

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (blob defaults are base64)."""
        columns = []
        for column in self.columns:
            default: Any = column.default
            if isinstance(default, (bytes, bytearray)):
                default = {"b64": base64.b64encode(bytes(default)).decode("ascii")}
            columns.append(
                {"name": column.name, "type": column.type.value, "default": default}
            )
        return {"columns": columns, "key": list(self.key), "version": self.version}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schema":
        """Inverse of :meth:`to_dict`."""
        columns = []
        for item in data["columns"]:
            default = item.get("default")
            if isinstance(default, dict) and "b64" in default:
                default = base64.b64decode(default["b64"])
            columns.append(Column(item["name"], ColumnType(item["type"]), default))
        return cls(columns, data["key"], data.get("version", 1))
