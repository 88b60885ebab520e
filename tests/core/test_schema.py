"""Tests for repro.core.schema."""

import pytest

from repro.core.errors import SchemaError, ValidationError
from repro.core.schema import (
    Column,
    ColumnType,
    INT32_MAX,
    INT32_MIN,
    Schema,
    check_value,
)


def simple_schema(**kwargs):
    return Schema(
        [
            Column("net", ColumnType.INT64),
            Column("ts", ColumnType.TIMESTAMP),
            Column("value", ColumnType.INT32),
            Column("note", ColumnType.STRING, default="n/a"),
        ],
        key=["net", "ts"],
        **kwargs,
    )


class TestCheckValue:
    def test_null_rejected(self):
        with pytest.raises(ValidationError):
            check_value(ColumnType.INT32, None)

    def test_int32_bounds(self):
        assert check_value(ColumnType.INT32, INT32_MAX) == INT32_MAX
        assert check_value(ColumnType.INT32, INT32_MIN) == INT32_MIN
        with pytest.raises(ValidationError):
            check_value(ColumnType.INT32, INT32_MAX + 1)
        with pytest.raises(ValidationError):
            check_value(ColumnType.INT32, INT32_MIN - 1)

    def test_int64_bounds(self):
        with pytest.raises(ValidationError):
            check_value(ColumnType.INT64, 1 << 63)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValidationError):
            check_value(ColumnType.INT32, True)

    def test_double_coerces_int(self):
        assert check_value(ColumnType.DOUBLE, 3) == 3.0
        assert isinstance(check_value(ColumnType.DOUBLE, 3), float)

    def test_timestamp_non_negative(self):
        assert check_value(ColumnType.TIMESTAMP, 0) == 0
        with pytest.raises(ValidationError):
            check_value(ColumnType.TIMESTAMP, -1)

    def test_timestamp_fits_63_bits(self):
        assert check_value(ColumnType.TIMESTAMP, (1 << 63) - 1) == \
            (1 << 63) - 1
        with pytest.raises(ValidationError):
            check_value(ColumnType.TIMESTAMP, 1 << 63)

    def test_string_type(self):
        assert check_value(ColumnType.STRING, "héllo") == "héllo"
        with pytest.raises(ValidationError):
            check_value(ColumnType.STRING, b"bytes")

    def test_blob_accepts_bytearray(self):
        assert check_value(ColumnType.BLOB, bytearray(b"ab")) == b"ab"
        with pytest.raises(ValidationError):
            check_value(ColumnType.BLOB, "str")


class TestSchemaConstruction:
    def test_valid(self):
        schema = simple_schema()
        assert schema.key == ("net", "ts")
        assert schema.ts_index == 1
        assert schema.key_width == 2

    def test_requires_ts_last_in_key(self):
        with pytest.raises(SchemaError):
            Schema(
                [Column("ts", ColumnType.TIMESTAMP),
                 Column("net", ColumnType.INT64)],
                key=["ts", "net"],
            )

    def test_ts_must_be_timestamp_type(self):
        with pytest.raises(SchemaError):
            Schema([Column("ts", ColumnType.INT64)], key=["ts"])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [Column("a", ColumnType.INT32),
                 Column("a", ColumnType.INT32),
                 Column("ts", ColumnType.TIMESTAMP)],
                key=["a", "ts"],
            )

    def test_unknown_key_column_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("ts", ColumnType.TIMESTAMP)], key=["ghost", "ts"])

    def test_blob_key_column_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [Column("b", ColumnType.BLOB),
                 Column("ts", ColumnType.TIMESTAMP)],
                key=["b", "ts"],
            )

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([], key=[])


class TestRows:
    def test_row_from_dict_with_defaults(self):
        schema = simple_schema()
        row = schema.row_from_dict({"net": 7, "ts": 100, "value": 5})
        assert row == (7, 100, 5, "n/a")

    def test_row_from_dict_missing_ts_uses_now(self):
        schema = simple_schema()
        row = schema.row_from_dict({"net": 7, "value": 5}, now=4242)
        assert schema.ts_of(row) == 4242

    def test_row_from_dict_missing_ts_without_now_rejected(self):
        schema = simple_schema()
        with pytest.raises(ValidationError):
            schema.row_from_dict({"net": 7, "value": 5})

    def test_row_from_dict_missing_key_rejected(self):
        schema = simple_schema()
        with pytest.raises(ValidationError):
            schema.row_from_dict({"ts": 100, "value": 5})

    def test_row_from_dict_unknown_column_rejected(self):
        schema = simple_schema()
        with pytest.raises(ValidationError):
            schema.row_from_dict({"net": 1, "ts": 1, "bogus": 2})

    def test_validate_row_length(self):
        schema = simple_schema()
        with pytest.raises(ValidationError):
            schema.validate_row((1, 2, 3))

    def test_key_extraction(self):
        schema = simple_schema()
        row = (9, 55, 1, "x")
        assert schema.key_of(row) == (9, 55)
        assert schema.ts_of(row) == 55

    def test_row_round_trip_dict(self):
        schema = simple_schema()
        row = schema.row_from_dict({"net": 1, "ts": 2, "value": 3, "note": "y"})
        assert schema.row_to_dict(row) == {
            "net": 1, "ts": 2, "value": 3, "note": "y",
        }


class TestEvolution:
    def test_append_column(self):
        schema = simple_schema()
        evolved = schema.with_appended_column(
            Column("extra", ColumnType.DOUBLE, default=1.5))
        assert evolved.version == schema.version + 1
        assert evolved.columns[-1].name == "extra"
        assert evolved.key == schema.key

    def test_append_duplicate_rejected(self):
        schema = simple_schema()
        with pytest.raises(SchemaError):
            schema.with_appended_column(Column("net", ColumnType.INT32))

    def test_widen_int32(self):
        schema = simple_schema()
        evolved = schema.with_widened_column("value")
        assert evolved.column("value").type is ColumnType.INT64

    def test_widen_non_int32_rejected(self):
        schema = simple_schema()
        with pytest.raises(SchemaError):
            schema.with_widened_column("net")  # already int64

    def test_translate_fills_defaults(self):
        old = simple_schema()
        new = old.with_appended_column(
            Column("extra", ColumnType.INT32, default=-1))
        old_row = (1, 2, 3, "x")
        assert new.translate_row(old_row, old) == (1, 2, 3, "x", -1)

    def test_translate_same_version_identity(self):
        schema = simple_schema()
        row = (1, 2, 3, "x")
        assert schema.translate_row(row, schema) == row

    def test_translate_from_newer_rejected(self):
        old = simple_schema()
        new = old.with_appended_column(Column("extra", ColumnType.INT32))
        with pytest.raises(SchemaError):
            old.translate_row((1, 2, 3, "x", 0), new)


class TestSerialization:
    def test_round_trip(self):
        schema = simple_schema()
        assert Schema.from_dict(schema.to_dict()) == schema

    def test_round_trip_blob_default(self):
        schema = Schema(
            [Column("ts", ColumnType.TIMESTAMP),
             Column("payload", ColumnType.BLOB, default=b"\x00\x01")],
            key=["ts"],
        )
        restored = Schema.from_dict(schema.to_dict())
        assert restored.column("payload").default == b"\x00\x01"

    def test_round_trip_preserves_version(self):
        schema = simple_schema().with_widened_column("value")
        assert Schema.from_dict(schema.to_dict()).version == 2
