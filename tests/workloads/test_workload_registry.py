"""Workload registry: specs, registration contract, make_workload, README."""

import pathlib
import re

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.records import RecordSchema
from repro.workloads import (
    WORKLOAD_SPECS,
    WorkloadSpec,
    make_workload,
    register_workload,
)


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("uniform", "staircase", "changa-dwarf", "zipf-duplicates"):
            assert name in WORKLOAD_SPECS

    def test_get_workload_resolves(self):
        spec = WORKLOAD_SPECS.get("uniform")
        assert isinstance(spec, WorkloadSpec)
        assert spec.name == "uniform"
        assert spec.record_schema is None

    def test_get_workload_unknown_lists_choices(self):
        with pytest.raises(ConfigError, match="choose from"):
            WORKLOAD_SPECS.get("nope")

    def test_available_workloads_sorted(self):
        names = WORKLOAD_SPECS.names()
        assert names == sorted(names)
        assert "uniform" in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_workload("uniform", description="again")(lambda p, n, rng=0: [])

    def test_register_and_generate(self):
        name = "test-registry-probe"
        try:

            @register_workload(
                name,
                description="probe",
                paper_section="0.0",
                record_schema={"w": "f8"},
            )
            def probe(p, n_per, rng=0):
                return [np.arange(n_per, dtype=np.int64) for _ in range(p)]

            spec = WORKLOAD_SPECS.get(name)
            assert spec.record_schema == RecordSchema.from_mapping({"w": "f8"})
            shards = spec.generate(3, 5)
            assert len(shards) == 3 and len(shards[0]) == 5
            assert spec.fn is probe
        finally:
            WORKLOAD_SPECS._entries.pop(name, None)

    def test_changa_declares_particle_schema(self):
        schema = WORKLOAD_SPECS.get("changa-dwarf").record_schema
        assert schema is not None
        assert schema.column_names == ("mass", "vx", "vy", "vz", "id")
        assert schema.record_nbytes() == 32  # 8-byte key + 24 payload bytes


class TestCatalogView:
    def test_make_workload_matches_direct_call(self):
        via_catalog = make_workload("uniform", 2, 10, rng=7)
        via_spec = WORKLOAD_SPECS.get("uniform").generate(2, 10, rng=7)
        for a, b in zip(via_catalog, via_spec):
            np.testing.assert_array_equal(a, b)


class TestReadmeWorkloadsTable:
    def test_readme_table_matches_registry(self):
        """The README workloads table is generated from WORKLOAD_SPECS."""
        readme = (
            pathlib.Path(__file__).parents[2] / "README.md"
        ).read_text()
        rows = re.findall(
            r"^\| `([a-z0-9-]+)` \| §([0-9.]+) \| ([^|]+) \| ([^|]+) \|",
            readme,
            re.M,
        )
        documented = {
            name: (section, records.strip(), desc.strip())
            for name, section, records, desc in rows
        }
        registered = {
            name: (
                spec.paper_section,
                f"`{spec.record_schema.compact()}`"
                if spec.record_schema is not None
                else "—",
                spec.description,
            )
            for name, spec in WORKLOAD_SPECS.items()
        }
        assert documented == registered
