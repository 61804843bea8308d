"""Tests for the topology plugin registry and the Dragonfly model."""

from dataclasses import dataclass

import pytest

from repro.bsp.network import Dragonfly, FatTree, FullyConnected, Topology, Torus
from repro.errors import ConfigError
from repro.machines import (
    TOPOLOGIES,
    make_topology,
    register_topology,
    topology_from_dict,
    topology_to_dict,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert TOPOLOGIES.names() == [
            "dragonfly", "fat-tree", "fully-connected",
            "jittered-dragonfly", "jittered-fat-tree", "torus",
        ]

    def test_get_cls(self):
        assert TOPOLOGIES.get("torus") is Torus
        assert TOPOLOGIES.get("fat-tree") is FatTree
        assert TOPOLOGIES.get("fully-connected") is FullyConnected
        assert TOPOLOGIES.get("dragonfly") is Dragonfly

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError, match="dragonfly"):
            TOPOLOGIES.get("hypercube")

    def test_reregistering_same_class_is_idempotent(self):
        assert register_topology(Torus) is Torus

    def test_conflicting_registration_rejected(self):
        @dataclass(frozen=True)
        class FakeTorus(Topology):
            name: str = "torus"

        with pytest.raises(ConfigError, match="already registered"):
            register_topology(FakeTorus)

    def test_non_dataclass_rejected(self):
        class Loose(Topology):
            name = "loose"

        with pytest.raises(ConfigError, match="dataclass"):
            register_topology(Loose)

    def test_third_party_plugin_round_trips(self):
        @dataclass(frozen=True)
        class Star(Topology):
            arms: int = 4
            name: str = "test-star"

            def alltoall_contention(self, n):
                return float(self.arms)

            def diameter(self, n):
                return 2

        try:
            register_topology(Star)
            topo = make_topology("test-star", arms=7)
            assert topology_from_dict(topology_to_dict(topo)) == topo
        finally:
            TOPOLOGIES._entries.pop("test-star", None)


class TestMakeTopology:
    def test_defaults(self):
        assert make_topology("fully-connected") == FullyConnected()

    def test_params_forwarded(self):
        topo = make_topology("torus", dims=3, base_endpoints=8)
        assert (topo.dims, topo.base_endpoints) == (3, 8)

    def test_unknown_param_names_valid_ones(self):
        with pytest.raises(ConfigError, match="base_endpoints"):
            make_topology("torus", radius=3)

    def test_name_is_not_a_parameter(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            make_topology("torus", name="sneaky")

    def test_invalid_value_becomes_config_error(self):
        with pytest.raises(ConfigError, match="bisection"):
            make_topology("fat-tree", bisection=0.0)


class TestSerialization:
    @pytest.mark.parametrize(
        "topo",
        [
            FullyConnected(),
            Torus(dims=3, base_endpoints=16),
            FatTree(bisection=0.25),
            Dragonfly(group_size=64, global_taper=0.25),
        ],
        ids=lambda t: t.name,
    )
    def test_round_trip(self, topo):
        data = topology_to_dict(topo)
        assert data["name"] == topo.name
        assert topology_from_dict(data) == topo

    def test_params_omitted_means_defaults(self):
        assert topology_from_dict({"name": "torus"}) == Torus()

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigError, match="name"):
            topology_from_dict({"params": {}})


class TestDragonfly:
    def test_no_contention_within_group(self):
        d = Dragonfly(group_size=64, global_taper=0.5)
        assert d.alltoall_contention(64) == 1.0

    def test_constant_contention_across_groups(self):
        d = Dragonfly(group_size=64, global_taper=0.5)
        assert d.alltoall_contention(128) == 2.0
        assert d.alltoall_contention(1 << 20) == 2.0  # scale-free

    def test_diameter(self):
        d = Dragonfly(group_size=64)
        assert d.diameter(8) == 1
        assert d.diameter(4096) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="group_size"):
            Dragonfly(group_size=0)
        with pytest.raises(ValueError, match="global_taper"):
            Dragonfly(global_taper=1.5)

    def test_between_torus_and_fat_tree_at_scale(self):
        # The design point: worse than a full-bisection fat tree, better
        # than a torus once the torus contention grows past the taper.
        n = 1 << 18
        dragonfly = Dragonfly(group_size=1024, global_taper=0.5)
        torus = Torus(dims=5, base_endpoints=32)
        fat = FatTree(bisection=1.0)
        assert (
            fat.alltoall_contention(n)
            < dragonfly.alltoall_contention(n)
            < torus.alltoall_contention(n)
        )
