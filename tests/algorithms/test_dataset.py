"""Tests for the Dataset abstraction (validation + workload catalog)."""

import numpy as np
import pytest

from repro.algorithms import Dataset
from repro.errors import ConfigError


class TestFromArrays:
    def test_wraps_and_validates(self, small_shards):
        ds = Dataset.from_arrays(small_shards)
        assert ds.nprocs == 8
        assert ds.total_keys == 4000
        assert ds.key_dtype == np.int64
        assert not ds.has_payloads
        assert len(ds) == 8

    def test_empty_rank_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one rank"):
            Dataset.from_arrays([])

    def test_mixed_dtypes_rejected(self, rng):
        with pytest.raises(ConfigError, match="dtype"):
            Dataset.from_arrays([rng.integers(0, 9, 5), rng.normal(size=5)])

    def test_non_1d_rejected(self, rng):
        with pytest.raises(ConfigError, match="one-dimensional"):
            Dataset.from_arrays([rng.integers(0, 9, (2, 3))])

    def test_payload_count_mismatch(self, small_shards):
        with pytest.raises(ConfigError, match="payloads"):
            Dataset.from_arrays(small_shards, payloads=[np.arange(5)])

    def test_payload_length_mismatch(self, small_shards):
        bad = [np.arange(len(s)) for s in small_shards]
        bad[3] = np.arange(7)
        with pytest.raises(ConfigError, match="payload length"):
            Dataset.from_arrays(small_shards, payloads=bad)

    def test_payload_dtype_mismatch(self, small_shards):
        pay = [np.arange(len(s)) for s in small_shards]
        pay[0] = pay[0].astype(np.float32)
        with pytest.raises(ConfigError, match="payloads must share"):
            Dataset.from_arrays(small_shards, payloads=pay)


class TestFromWorkload:
    def test_named_workload_matches_generator(self):
        from repro.workloads import make_workload

        ds = Dataset.from_workload("staircase", p=4, n_per=100, seed=9)
        expected = make_workload("staircase", 4, 100, 9)
        assert ds.workload == "staircase"
        for got, want in zip(ds.shards, expected):
            assert np.array_equal(got, want)

    def test_n_total_split(self):
        ds = Dataset.from_workload("uniform", p=8, n_total=800, seed=0)
        assert ds.total_keys == 800 and all(len(s) == 100 for s in ds.shards)

    def test_exactly_one_size_parameter(self):
        with pytest.raises(ConfigError, match="exactly one"):
            Dataset.from_workload("uniform", p=4, seed=0)
        with pytest.raises(ConfigError, match="exactly one"):
            Dataset.from_workload("uniform", p=4, n_per=10, n_total=40)

    def test_unknown_workload(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            Dataset.from_workload("cauchy", p=4, n_per=10)

    def test_catalog_covers_changa_and_duplicates(self):
        from repro.workloads import WORKLOAD_SPECS

        assert {"changa-dwarf", "hotspot", "zipf-duplicates"} <= set(
            WORKLOAD_SPECS
        )

    def test_generator_kwargs_forwarded(self):
        ds = Dataset.from_workload(
            "few-distinct", p=4, n_per=50, seed=1, distinct=2
        )
        assert len(np.unique(np.concatenate(ds.shards))) <= 2


class TestRecordPayloads:
    def test_from_workload_with_columns(self):
        ds = Dataset.from_workload(
            "uniform", p=4, n_per=50, seed=0,
            payloads={"mass": "f8", "id": "u4"},
        )
        assert ds.has_payloads
        assert ds.record_schema.column_names == ("mass", "id")
        assert ds.payloads[0].dtype.names == ("mass", "id")
        assert ds.record_nbytes() == 8 + 8 + 4

    def test_payload_generation_deterministic(self):
        a, b = (
            Dataset.from_workload(
                "uniform", p=3, n_per=40, seed=5,
                payloads={"mass": "f8", "id": "u4"},
            )
            for _ in range(2)
        )
        for pa, pb in zip(a.payloads, b.payloads):
            np.testing.assert_array_equal(pa, pb)

    def test_payload_columns_independent(self):
        """Adding a column never perturbs the values of existing ones."""
        narrow = Dataset.from_workload(
            "uniform", p=2, n_per=30, seed=4, payloads={"mass": "f8"}
        )
        wide = Dataset.from_workload(
            "uniform", p=2, n_per=30, seed=4,
            payloads={"id": "u4", "mass": "f8"},
        )
        for a, b in zip(narrow.payloads, wide.payloads):
            np.testing.assert_array_equal(a["mass"], b["mass"])

    def test_payloads_true_uses_declared_schema(self):
        ds = Dataset.from_workload(
            "changa-dwarf", p=2, n_per=25, seed=1, payloads=True
        )
        assert ds.record_schema.column_names == ("mass", "vx", "vy", "vz", "id")
        assert ds.record_nbytes() == 32

    def test_payloads_true_rejected_for_keyonly_workload(self):
        with pytest.raises(ConfigError, match="declares no record schema"):
            Dataset.from_workload("uniform", p=2, n_per=10, payloads=True)

    def test_object_payload_column_rejected(self):
        with pytest.raises(ConfigError):
            Dataset.from_workload(
                "uniform", p=2, n_per=10, payloads={"blob": "O"}
            )

    def test_schema_derived_from_legacy_payload(self, small_shards):
        ds = Dataset.from_arrays(small_shards).with_index_payloads()
        assert ds.record_schema.column_names == ("payload",)
        assert ds.record_nbytes() == 16

    def test_schema_without_payloads_rejected(self, small_shards):
        from repro.records import RecordSchema

        with pytest.raises(ConfigError, match="without payloads"):
            Dataset.from_arrays(
                small_shards,
                schema=RecordSchema.from_mapping({"mass": "f8"}),
            )

    def test_object_dtype_payloads_rejected(self, small_shards):
        payloads = [
            np.array([{"k": i} for i in range(len(s))], dtype=object)
            for s in small_shards
        ]
        with pytest.raises(ConfigError, match="object-dtype payloads"):
            Dataset.from_arrays(small_shards, payloads)


class TestPayloadHelpers:
    def test_with_index_payloads_globally_unique(self, small_shards):
        ds = Dataset.from_arrays(small_shards).with_index_payloads()
        flat = np.concatenate(ds.payloads)
        assert ds.has_payloads
        assert np.array_equal(np.sort(flat), np.arange(ds.total_keys))

    def test_rank_args_shapes(self, small_shards):
        plain = Dataset.from_arrays(small_shards)
        assert all(len(a) == 1 for a in plain.rank_args())
        tagged = plain.with_index_payloads()
        assert all(len(a) == 2 for a in tagged.rank_args())
