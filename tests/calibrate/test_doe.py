"""The DoE must be a pure, identifiable function of (seed, profile)."""

import json

import pytest

from repro.calibrate import DOE_PROFILES, design_cells, render_doe_table
from repro.errors import ConfigError
from repro.records import parse_schema


class TestDesignCells:
    def test_pure_function_of_seed(self):
        assert design_cells(seed=5) == design_cells(seed=5)
        assert design_cells(seed=5, profile="tiny") == design_cells(
            seed=5, profile="tiny"
        )

    def test_different_seeds_draw_fresh_data(self):
        a = design_cells(seed=1)
        b = design_cells(seed=2)
        assert [c.describe() for c in a] == [c.describe() for c in b]
        assert all(
            x.workload_seed != y.workload_seed for x, y in zip(a, b)
        )
        assert all(x.sort_seed != y.sort_seed for x, y in zip(a, b))

    def test_unknown_profile_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown DoE profile"):
            design_cells(profile="nope")

    def test_names_are_unique(self):
        for profile in DOE_PROFILES:
            names = [c.name for c in design_cells(profile=profile)]
            assert len(names) == len(set(names))

    def test_default_profile_excites_every_constant(self):
        """Both algorithms, both schema widths and several sizes appear —
        the structural prerequisite for an identifiable fit."""
        cells = design_cells()
        assert {c.algorithm for c in cells} == {"hss", "sample-regular"}
        assert {bool(c.schema) for c in cells} == {True, False}
        assert len({c.keys_per_rank for c in cells}) >= 3
        assert len({c.procs for c in cells}) >= 2

    def test_describe_is_json_safe(self):
        for cell in design_cells(profile="tiny"):
            assert json.loads(json.dumps(cell.describe())) == cell.describe()

    def test_payload_columns(self):
        cells = design_cells(profile="tiny")
        key_only = [c for c in cells if not c.schema]
        records = [c for c in cells if c.schema]
        assert key_only and records
        assert parse_schema(records[0].schema).column_names == ("mass", "id")


class TestRenderTable:
    def test_table_lists_every_cell(self):
        cells = design_cells(profile="tiny")
        table = render_doe_table(cells)
        for cell in cells:
            assert cell.name in table
        assert "(key-only)" in table
