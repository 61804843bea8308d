"""Emitted specs: provenance, registration semantics, cross-process path."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.calibrate import (
    build_spec,
    design_cells,
    emit_spec,
    extract_features,
    fit_constants,
    synthetic_measurements,
)
from repro.errors import ConfigError
from repro.machines import (
    MACHINES,
    MachineSpec,
    get_machine,
    register_machine,
    resolve_machine,
)

pytestmark = pytest.mark.usefixtures("_clean_registry")

#: The checkout these tests belong to (subprocesses must run its code).
ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def _clean_registry():
    before = dict(MACHINES._entries)
    yield
    MACHINES._entries = before


@pytest.fixture(scope="module")
def fit():
    cells = design_cells(seed=3, profile="tiny")
    features = extract_features(cells)
    synth = synthetic_measurements(features, get_machine("laptop"))
    return fit_constants(features, synth)


class TestBuildSpec:
    def test_constants_and_inherited_fields(self, fit):
        spec = build_spec(fit)
        assert spec.name == "local-calibrated"
        assert spec.alpha == fit.constants["alpha"]
        assert spec.beta == fit.constants["beta"]
        assert spec.gamma_compare == fit.constants["gamma_compare"]
        assert spec.gamma_byte == fit.constants["gamma_byte"]
        # Unfittable constants stay 0 = inherit (the DoE runs flat).
        assert spec.node_alpha == 0.0
        assert spec.gamma_key_compare == 0.0
        assert spec.topology == "fully-connected"
        assert spec.cores_per_node == 1

    def test_provenance_block(self, fit):
        spec = build_spec(
            fit, doe_seed=3, profile="tiny", backend="thread",
            workers=2, warmup=1, repeats=5, trim=1,
        )
        prov = spec.provenance
        assert prov["tool"] == "repro calibrate"
        assert prov["doe_seed"] == 3
        assert prov["profile"] == "tiny"
        assert prov["backend"] == "thread"
        assert prov["workers"] == 2
        assert prov["repeats"] == 5
        assert prov["trim"] == 1
        assert prov["cells"] == fit.cells
        assert prov["fit"]["r2"] == fit.r2
        assert prov["fit"]["residual_s"] == fit.residual_s

    def test_json_round_trip_preserves_provenance(self, fit):
        spec = build_spec(fit, doe_seed=9)
        clone = MachineSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.provenance == spec.provenance

    def test_preset_serialization_has_no_provenance_key(self):
        """Hand-written presets keep their pre-calibration JSON form."""
        assert "provenance" not in get_machine("laptop").to_dict()


class TestEmitSpec:
    def test_registers_and_resolves(self, fit):
        emit_spec(build_spec(fit))
        assert resolve_machine("local-calibrated").name == "local-calibrated"

    def test_re_emit_replaces_without_error(self, fit):
        emit_spec(build_spec(fit))
        updated = build_spec(fit, doe_seed=42)
        emit_spec(updated)
        assert get_machine("local-calibrated").provenance["doe_seed"] == 42

    def test_register_without_replace_still_guards_duplicates(self, fit):
        emit_spec(build_spec(fit))
        conflicting = build_spec(fit, doe_seed=7)
        with pytest.raises(ConfigError, match="already registered"):
            register_machine(conflicting)

    def test_writes_json_file(self, fit, tmp_path):
        out = tmp_path / "local.json"
        spec = emit_spec(build_spec(fit), out=str(out))
        data = json.loads(out.read_text())
        assert MachineSpec.from_dict(data) == spec

    def test_not_registered_at_import(self):
        """`local-calibrated` exists only after an explicit calibration —
        the preset list (and its agreement test) must not change."""
        assert "local-calibrated" not in MACHINES


class TestMachinePathHandoff:
    def test_sweep_resolves_spec_from_env(self, fit, tmp_path):
        """REPRO_MACHINE_PATH makes the emitted spec visible to a fresh
        process — the `repro sweep --machines local-calibrated` handoff."""
        out = tmp_path / "local.json"
        emit_spec(build_spec(fit), out=str(out))
        code = (
            "from repro.machines import resolve_machine; "
            "m = resolve_machine('local-calibrated'); "
            "print(m.name, m.alpha)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(ROOT / "src"),
                "REPRO_MACHINE_PATH": str(out),
                "PATH": "/usr/bin:/bin",
            },
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "local-calibrated", repr(fit.constants["alpha"]),
        ]

    def test_unreadable_path_entry_is_config_error(self, monkeypatch):
        from repro.machines.registry import _load_machine_path

        monkeypatch.setenv("REPRO_MACHINE_PATH", "/nonexistent/spec.json")
        with pytest.raises(ConfigError, match="unreadable"):
            _load_machine_path()

    def test_lookup_miss_consults_path(self, fit, tmp_path, monkeypatch):
        out = tmp_path / "probe.json"
        emit_spec(
            build_spec(fit, name="path-probe-machine"), out=str(out)
        )
        MACHINES._entries.pop("path-probe-machine")
        monkeypatch.setenv("REPRO_MACHINE_PATH", str(out))
        assert get_machine("path-probe-machine").name == (
            "path-probe-machine"
        )
