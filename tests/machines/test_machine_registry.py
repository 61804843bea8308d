"""Tests for the machine registry: presets, aliases, resolution, README."""

import pathlib
import re

import pytest

from repro.errors import ConfigError
from repro.machines import (
    MACHINES,
    MachineSpec,
    get_machine,
    register_machine,
    resolve_machine,
)

EXPECTED_PRESETS = [
    "cloud-ethernet",
    "dragonfly-hpc",
    "fat-tree-hpc",
    "generic-cluster",
    "jittery-cloud",
    "laptop",
    "mira-like-bgq",
]


class TestCatalog:
    def test_at_least_six_presets(self):
        assert MACHINES.names() == EXPECTED_PRESETS

    def test_every_preset_models(self):
        for name in MACHINES.names():
            machine = get_machine(name)
            assert isinstance(machine, MachineSpec)
            assert machine.name == name
            assert machine.network.name == machine.topology

    def test_every_preset_has_provenance_note(self):
        for name in MACHINES.names():
            assert get_machine(name).note, f"{name} lacks a note"

    def test_legacy_constants_preserved(self):
        # The catalog keeps the exact values of the retired module
        # constants — modeled metrics must not shift under the refactor.
        mira = get_machine("mira-like-bgq")
        assert mira.alpha == 2.5e-6
        assert mira.beta == 1.0 / 2.0e8
        assert mira.gamma_compare == 4.0e-8
        assert mira.cores_per_node == 16
        assert mira.network.dims == 5
        assert mira.round_sync_per_level == 1.0e-3
        laptop = get_machine("laptop")
        assert laptop.alpha == 2.0e-7
        assert laptop.cores_per_node == 8
        cluster = get_machine("generic-cluster")
        assert cluster.network.bisection == 0.5
        assert cluster.cores_per_node == 64


class TestLookup:
    def test_unknown_machine_lists_choices(self):
        with pytest.raises(ConfigError, match="mira-like-bgq"):
            get_machine("cray-xt5")

    def test_overrides(self):
        flat = get_machine("mira-like-bgq", overrides={"cores_per_node": 1})
        assert flat.cores_per_node == 1
        assert flat.alpha == get_machine("mira-like-bgq").alpha

    def test_overrides_do_not_mutate_the_registry(self):
        get_machine("laptop", overrides={"cores_per_node": 999})
        assert get_machine("laptop").cores_per_node == 8

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError, match="valid fields"):
            get_machine("laptop", overrides={"turbo": True})


class TestRegisterMachine:
    def test_direct_and_duplicate(self):
        spec = MachineSpec(name="test-rig", alpha=1e-6)
        try:
            register_machine(spec)
            assert get_machine("test-rig").alpha == 1e-6
            # Idempotent for an identical spec...
            register_machine(spec)
            # ...but a conflicting one is rejected.
            with pytest.raises(ConfigError, match="already registered"):
                register_machine(MachineSpec(name="test-rig", alpha=2e-6))
        finally:
            MACHINES._entries.pop("test-rig", None)

    def test_factory_decorator(self):
        try:

            @register_machine
            def test_factory_rig() -> MachineSpec:
                return MachineSpec(name="test-factory-rig", beta=1e-8)

            assert get_machine("test-factory-rig").beta == 1e-8
        finally:
            MACHINES._entries.pop("test-factory-rig", None)

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigError, match="MachineSpec"):
            register_machine(lambda: {"name": "nope"})


class TestResolveMachine:
    def test_none_is_laptop(self):
        assert resolve_machine(None) == get_machine("laptop")

    def test_name_spec_model_all_resolve_identically(self):
        by_name = resolve_machine("dragonfly-hpc")
        by_spec = resolve_machine(MACHINES.get("dragonfly-hpc"))
        assert by_name == by_spec
        # A registered name resolves to the registered spec itself.
        assert by_name is MACHINES.get("dragonfly-hpc")

    def test_spec_overrides(self):
        machine = resolve_machine(
            get_machine("laptop"), {"cores_per_node": 2}
        )
        assert machine.cores_per_node == 2

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="cannot resolve"):
            resolve_machine(42)

    def test_summary(self):
        machine = resolve_machine("mira-like-bgq", {"cores_per_node": 1})
        assert machine.describe() == {
            "name": "mira-like-bgq",
            "topology": "torus",
            "cores_per_node": 1,
        }


class TestReadmeCatalogTable:
    def test_readme_table_matches_registry(self):
        """The README machine table is generated from this registry."""
        readme = (
            pathlib.Path(__file__).parents[2] / "README.md"
        ).read_text()
        rows = re.findall(
            r"^\| `([a-z0-9-]+)` \| ([^|]+) \| (\d+) \|", readme, re.M
        )
        documented = {
            name: (topo.strip(), int(cores)) for name, topo, cores in rows
        }
        registered = {
            name: (spec.topology, spec.cores_per_node)
            for name, spec in MACHINES.items()
        }
        assert documented == registered
