"""Jittered topologies: seeded degradation, never improvement."""

import pytest

from repro.bsp.network import Dragonfly, FatTree
from repro.machines.jitter import JitteredDragonfly, JitteredFatTree
from repro.errors import ConfigError
from repro.machines import (
    get_machine,
    make_topology,
    topology_from_dict,
    topology_to_dict,
)

ENDPOINTS = (16, 64, 256, 1024)


class TestDegradationOnly:
    @pytest.mark.parametrize("n", ENDPOINTS)
    def test_fat_tree_contention_bounded(self, n):
        ideal = FatTree(bisection=0.25)
        jittered = JitteredFatTree(bisection=0.25, jitter=0.3)
        lo = ideal.alltoall_contention(n)
        assert lo <= jittered.alltoall_contention(n) < lo * 1.3

    @pytest.mark.parametrize("n", ENDPOINTS)
    def test_dragonfly_contention_bounded(self, n):
        ideal = Dragonfly()
        jittered = JitteredDragonfly(jitter=0.3)
        lo = ideal.alltoall_contention(n)
        assert lo <= jittered.alltoall_contention(n) < lo * 1.3

    @pytest.mark.parametrize("n", ENDPOINTS)
    def test_diameter_never_shrinks(self, n):
        assert (
            JitteredFatTree(jitter=0.5).diameter(n)
            >= FatTree().diameter(n)
        )

    def test_zero_jitter_is_the_ideal_topology(self):
        ideal = FatTree(bisection=0.25)
        flat = JitteredFatTree(bisection=0.25, jitter=0.0)
        for n in ENDPOINTS:
            assert flat.alltoall_contention(n) == ideal.alltoall_contention(n)
            assert flat.diameter(n) == ideal.diameter(n)


class TestDeterminism:
    def test_same_seed_same_factors(self):
        a = JitteredFatTree(jitter=0.3, jitter_seed=7)
        b = JitteredFatTree(jitter=0.3, jitter_seed=7)
        for n in ENDPOINTS:
            assert a.alltoall_contention(n) == b.alltoall_contention(n)
            assert a.diameter(n) == b.diameter(n)

    def test_different_seed_different_factors(self):
        a = JitteredFatTree(jitter=0.3, jitter_seed=0)
        b = JitteredFatTree(jitter=0.3, jitter_seed=1)
        assert any(
            a.alltoall_contention(n) != b.alltoall_contention(n)
            for n in ENDPOINTS
        )

    def test_alpha_and_beta_draws_independent(self):
        # The contention (beta) and diameter (alpha) streams are salted
        # apart: equal contention factors never force equal diameters.
        topo = JitteredFatTree(jitter=0.9, jitter_seed=3)
        ratios = {
            topo.alltoall_contention(n) / FatTree().alltoall_contention(n)
            for n in ENDPOINTS
        }
        assert len(ratios) == len(ENDPOINTS)


class TestValidation:
    def test_jitter_out_of_range_via_registry(self):
        with pytest.raises(
            ConfigError, match=r"jitter must be in \[0, 1\], got 1.5"
        ):
            make_topology("jittered-fat-tree", jitter=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="jitter_seed must be >= 0"):
            make_topology("jittered-fat-tree", jitter_seed=-1)

    def test_unknown_param_lists_valid_keys(self):
        with pytest.raises(
            ConfigError, match=r"unknown parameter\(s\) \['bogus'\]"
        ) as info:
            make_topology("jittered-fat-tree", bogus=1)
        assert "jitter" in str(info.value)

    def test_round_trips_through_json_dict(self):
        topo = JitteredFatTree(bisection=0.25, jitter=0.3, jitter_seed=8)
        assert topology_from_dict(topology_to_dict(topo)) == topo


class TestJitteryCloudPreset:
    def test_registered_with_jittered_topology(self):
        spec = get_machine("jittery-cloud")
        assert spec.topology == "jittered-fat-tree"
        assert spec.topology_params["jitter"] == 0.3

    def test_same_constants_as_cloud_ethernet(self):
        # Any makespan delta against cloud-ethernet is purely network
        # weather: the compute and endpoint constants are shared.
        jittery = get_machine("jittery-cloud")
        cloud = get_machine("cloud-ethernet")
        assert jittery.alpha == cloud.alpha
        assert jittery.beta == cloud.beta
        assert jittery.gamma_compare == cloud.gamma_compare
        assert jittery.cores_per_node == cloud.cores_per_node

    def test_prices_a_run_strictly_above_cloud_ethernet(self):
        from repro.algorithms import Dataset, Sorter

        dataset = Dataset.from_workload("uniform", p=8, n_per=500, seed=0)
        runs = {
            name: Sorter(
                "hss", machine=name, eps=0.2, seed=3, verify=False
            ).run(dataset)
            for name in ("cloud-ethernet", "jittery-cloud")
        }
        assert (
            runs["jittery-cloud"].makespan > runs["cloud-ethernet"].makespan
        )
        # Identical traffic — only the pricing of it changed.
        jittery = runs["jittery-cloud"].engine_result.stats
        cloud = runs["cloud-ethernet"].engine_result.stats
        assert jittery.bytes == cloud.bytes
        assert jittery.messages == cloud.messages
        assert jittery.comm_seconds > cloud.comm_seconds

    def test_model_resolution_is_deterministic(self):
        a = get_machine("jittery-cloud")
        b = get_machine("jittery-cloud")
        assert a.topology == b.topology
