"""Tests for MachineSpec: validation, overrides, JSON round-trips."""

import json
import pathlib
import pickle

import pytest

from repro.bsp.cost_model import CostModel
from repro.bsp.network import Torus
from repro.errors import ConfigError
from repro.machines import MACHINES, MachineSpec, get_machine


def toy_spec(**kw):
    defaults = dict(
        name="toy",
        alpha=1e-6,
        beta=1e-9,
        topology="torus",
        topology_params={"dims": 3, "base_endpoints": 8},
        cores_per_node=4,
    )
    defaults.update(kw)
    return MachineSpec(**defaults)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError, match="name"):
            toy_spec(name="")

    def test_negative_scalar_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="alpha"):
            toy_spec(alpha=-1.0)

    def test_unknown_topology_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="unknown topology"):
            toy_spec(topology="moebius")

    def test_bad_topology_params_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="valid parameters"):
            toy_spec(topology_params={"dims": 3, "radius": 2})

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError, match="cores_per_node"):
            toy_spec(cores_per_node=0)


class TestModel:
    def test_model_matches_hand_built(self):
        # Validation builds the named topology once, as ``network``.
        assert toy_spec().network == Torus(dims=3, base_endpoints=8)

    def test_scalar_fields_carried_verbatim(self):
        spec = toy_spec(
            gamma_key_compare=3e-10, round_sync_per_level=1e-4, node_alpha=0.0
        )
        assert spec.gamma_key_compare == 3e-10
        assert spec.round_sync_per_level == 1e-4
        assert spec.node_alpha == 0.0  # fallback applies at pricing time
        assert spec.resolved().node_alpha == spec.alpha

    def test_describe_block(self):
        assert toy_spec().describe() == {
            "name": "toy", "topology": "torus", "cores_per_node": 4,
        }


class TestOverride:
    def test_override_replaces_fields(self):
        spec = toy_spec().override(cores_per_node=2, alpha=9e-6)
        assert (spec.cores_per_node, spec.alpha) == (2, 9e-6)
        # Untouched fields survive.
        assert spec.topology_params == {"dims": 3, "base_endpoints": 8}

    def test_override_is_validated(self):
        with pytest.raises(ConfigError, match="beta"):
            toy_spec().override(beta=-1.0)

    def test_unknown_override_names_valid_fields(self):
        with pytest.raises(ConfigError, match="cores_per_node"):
            toy_spec().override(cores=4)

    def test_name_is_not_overridable(self):
        with pytest.raises(ConfigError, match="unknown override"):
            toy_spec().override(name="impostor")


class TestSerialization:
    def test_json_round_trip_is_bit_identical(self):
        fresh = toy_spec(note="a note", paper_section="6.1")
        # A spec that has priced a collective holds its cached resolved
        # view; neither it nor the topology instance may leak into
        # equality or the JSON form, and the spec must still pickle
        # (the spawn start method pickles BSPEngine with its machine).
        priced = toy_spec(note="a note", paper_section="6.1")
        CostModel(priced, 64).price(
            "alltoallv", max_bytes=4096, total_bytes=4096 * 64
        )
        assert "_resolved" in vars(priced)
        for spec in (fresh, priced):
            restored = MachineSpec.from_json(spec.to_json())
            assert restored == spec == fresh
            assert restored.to_json() == spec.to_json() == fresh.to_json()
            unpickled = pickle.loads(pickle.dumps(spec))
            assert unpickled == fresh
            assert unpickled.to_json() == fresh.to_json()
            assert unpickled.network == fresh.network
            assert unpickled.resolved() == fresh.resolved()

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_every_preset_round_trips(self, name):
        spec = get_machine(name)
        restored = MachineSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.network == spec.network

    def test_topology_serialized_by_name(self):
        data = toy_spec().to_dict()
        assert data["topology"] == {
            "name": "torus", "params": {"dims": 3, "base_endpoints": 8},
        }

    def test_from_dict_accepts_bare_topology_name(self):
        spec = MachineSpec.from_dict(
            {"name": "flat", "topology": "fully-connected"}
        )
        assert spec.topology == "fully-connected"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="ghz"):
            MachineSpec.from_dict(
                {"name": "x", "topology": "fully-connected", "ghz": 3.2}
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            MachineSpec.from_json("{not json")


class TestGolden:
    """Every preset's serialized form, pinned byte for byte."""

    GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "machine_specs.json"

    def test_presets_match_golden(self):
        golden = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        assert sorted(golden) == MACHINES.names()
        for name, recorded in golden.items():
            spec = MACHINES.get(name)
            assert spec.to_json() == recorded["to_json"], name
            assert spec.describe() == recorded["describe"], name
