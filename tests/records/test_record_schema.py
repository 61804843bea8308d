"""RecordSchema: normalization, validation, compact-form round trips."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.records import ColumnSpec, RecordSchema, parse_schema

FIXED_DTYPES = ["?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f4", "f8"]


class TestColumnSpec:
    def test_normalizes_dtype(self):
        spec = ColumnSpec("mass", "f8")
        assert spec.dtype == np.dtype("<f8")
        assert spec.spec == "<f8"

    @pytest.mark.parametrize("spec", ["bytes", "str", "S", "U", "V"])
    def test_rejects_zero_width_dtype(self, spec):
        # np.dtype normalizes each of these to a zero-width dtype (|S0,
        # <U0, |V0) that no value fits in.
        with pytest.raises(ConfigError, match="zero width"):
            ColumnSpec("tag", spec)

    def test_accepts_sized_bytes_column(self):
        # Caller-supplied arrays may carry any fixed-width column; only
        # the compact form (parse_schema) is limited to generated kinds.
        assert ColumnSpec("tag", "S8").dtype.itemsize == 8
        schema = RecordSchema.from_payload_dtype(
            np.dtype([("tag", "S8")]), key_dtype="<i8"
        )
        assert schema.column("tag").dtype == np.dtype("S8")

    def test_rejects_key_name(self):
        with pytest.raises(ConfigError, match="key"):
            ColumnSpec("key", "f8")

    def test_rejects_bad_name(self):
        with pytest.raises(ConfigError):
            ColumnSpec("has space", "f8")

    def test_rejects_object_dtype(self):
        with pytest.raises(ConfigError):
            ColumnSpec("bad", "O")

    def test_rejects_structured_column(self):
        with pytest.raises(ConfigError, match="one scalar per row"):
            ColumnSpec("nested", np.dtype([("a", "f8")]))


class TestRecordSchema:
    def test_from_mapping_preserves_order(self):
        schema = RecordSchema.from_mapping({"mass": "f8", "id": "u4"})
        assert schema.column_names == ("mass", "id")

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ConfigError, match="duplicate"):
            RecordSchema(
                columns=(ColumnSpec("a", "f8"), ColumnSpec("a", "u4"))
            )

    def test_payload_dtype_structured(self):
        schema = RecordSchema.from_mapping({"mass": "f8", "id": "u4"})
        dt = schema.payload_dtype()
        assert dt.names == ("mass", "id")
        assert dt.itemsize == 12

    def test_from_payload_dtype_structured(self):
        dt = np.dtype([("mass", "<f8"), ("id", "<u4")])
        schema = RecordSchema.from_payload_dtype(dt, key_dtype=np.uint64)
        assert schema.column_names == ("mass", "id")
        assert schema.key_dtype == "<u8"
        assert schema.payload_dtype() == dt
        assert schema == parse_schema("mass:f8,id:u4", key_dtype="u8")

    def test_from_payload_dtype_plain(self):
        schema = RecordSchema.from_payload_dtype(
            np.dtype("i8"), key_dtype="f4"
        )
        assert schema.column_names == ("payload",)
        assert schema.column("payload").dtype == np.dtype("<i8")
        assert schema.record_nbytes() == 4 + 8

    def test_from_payload_dtype_structured_key(self):
        key_dtype = np.dtype([("k", "<i8"), ("pe", "<i4"), ("idx", "<i4")])
        schema = RecordSchema.from_payload_dtype(
            np.dtype([("mass", "<f8")]), key_dtype=key_dtype
        )
        assert schema.np_key_dtype == key_dtype
        assert schema.record_nbytes() == 16 + 8

    def test_record_nbytes(self):
        schema = RecordSchema.from_mapping({"mass": "f8", "id": "u4"})
        assert schema.record_nbytes() == 8 + 8 + 4  # i8 key + columns

    def test_compact_round_trip(self):
        schema = RecordSchema.from_mapping({"mass": "f8", "id": "u4"})
        assert parse_schema(schema.compact()) == schema

    @pytest.mark.parametrize("dtype", FIXED_DTYPES)
    def test_every_fixed_dtype_round_trips(self, dtype):
        """Both spellings — compact text, payload dtype — lose nothing."""
        schema = RecordSchema.from_mapping({"col": dtype})
        assert parse_schema(schema.compact()) == schema
        assert RecordSchema.from_payload_dtype(
            schema.payload_dtype(), key_dtype=schema.key_dtype
        ) == schema
        assert schema.record_nbytes() == 8 + np.dtype(dtype).itemsize


class TestParseSchema:
    def test_parse(self):
        schema = parse_schema("mass:f8,id:u4")
        assert schema.column_names == ("mass", "id")
        assert schema.column("id").dtype == np.dtype("<u4")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_schema("no-colon-here")

    def test_parse_rejects_zero_width_column(self):
        with pytest.raises(ConfigError, match="'bytes'"):
            parse_schema("mass:f8,tag:bytes")

    @pytest.mark.parametrize("spec", ["S8", "3f8", "M8[s]", "c16", "V8"])
    def test_parse_rejects_columns_no_workload_fills(self, spec):
        with pytest.raises(ConfigError, match="cannot be generated"):
            parse_schema(f"mass:f8,tag:{spec}")

    def test_parse_rejects_empty(self):
        with pytest.raises(ConfigError):
            parse_schema("")
