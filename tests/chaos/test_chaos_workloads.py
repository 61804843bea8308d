"""Adversarial/time-evolving workloads: drift, duplication, determinism."""

import numpy as np
import pytest

from repro.workloads.drift import (
    changa_drift_shards,
    drifting_mixture_shards,
    staircase_duplicate_shards,
)
from repro.errors import WorkloadError
from repro.workloads import WORKLOAD_SPECS, make_workload

P = 8
N_PER = 2_000


def _pooled(shards):
    return np.sort(np.concatenate(shards))


class TestRegistration:
    @pytest.mark.parametrize(
        "name", ["drifting-mixture", "staircase-duplicates", "changa-drift"]
    )
    def test_registered_with_paper_section(self, name):
        spec = WORKLOAD_SPECS[name]
        assert spec.paper_section
        assert spec.description

    def test_changa_drift_declares_particle_schema(self):
        spec = WORKLOAD_SPECS["changa-drift"]
        assert spec.record_schema is not None
        assert "mass" in spec.record_schema.compact()

    def test_reachable_through_make_workload(self):
        shards = make_workload("drifting-mixture", P, N_PER, rng=0)
        assert len(shards) == P
        assert all(len(s) == N_PER for s in shards)


class TestDeterminism:
    @pytest.mark.parametrize(
        "gen",
        [drifting_mixture_shards, staircase_duplicate_shards,
         changa_drift_shards],
        ids=["drifting", "staircase-dup", "changa-drift"],
    )
    def test_same_seed_same_shards(self, gen):
        a = gen(P, N_PER, 7)
        b = gen(P, N_PER, 7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestDrift:
    def test_timestep_moves_the_bump(self):
        early = _pooled(drifting_mixture_shards(P, N_PER, 0, timestep=0))
        late = _pooled(drifting_mixture_shards(P, N_PER, 0, timestep=6))
        # The bump holds most of the mass, so the median tracks it.
        assert np.median(late) > np.median(early)

    def test_seed_drives_timestep_when_not_explicit(self):
        # timestep defaults to seed % period — consecutive service jobs
        # (which only vary the seed) walk the trace automatically.
        implicit = _pooled(drifting_mixture_shards(P, N_PER, 6))
        explicit = _pooled(drifting_mixture_shards(P, N_PER, 6, timestep=6))
        assert np.median(implicit) == pytest.approx(
            np.median(explicit), rel=0.05
        )

    def test_changa_halo_contracts_and_migrates(self):
        early = _pooled(changa_drift_shards(P, N_PER, 0, timestep=0))
        late = _pooled(changa_drift_shards(P, N_PER, 0, timestep=7))
        assert np.median(late) != np.median(early)

    def test_timestep_wraps_at_period(self):
        a = _pooled(drifting_mixture_shards(P, N_PER, 0, timestep=1))
        b = _pooled(drifting_mixture_shards(P, N_PER, 0, timestep=9))
        np.testing.assert_array_equal(a, b)


class TestStaircaseDuplicates:
    def test_distinct_value_count_is_tiny(self):
        shards = staircase_duplicate_shards(
            P, N_PER, 0, steps=8, distinct_per_step=4
        )
        distinct = np.unique(np.concatenate(shards))
        assert len(distinct) <= 8 * 4
        # Heavy duplication: thousands of copies per value on average.
        assert P * N_PER / len(distinct) > 100

    def test_mass_clusters_at_spread_scales(self):
        pooled = _pooled(staircase_duplicate_shards(P, N_PER, 0))
        assert pooled[0] > 0
        assert pooled[-1] / pooled[0] > 5


class TestValidation:
    def test_negative_timestep_rejected(self):
        with pytest.raises(WorkloadError, match="timestep must be >= 0"):
            drifting_mixture_shards(P, 100, 0, timestep=-1)

    def test_bad_period_rejected(self):
        with pytest.raises(WorkloadError, match="period must be >= 1"):
            changa_drift_shards(P, 100, 0, period=0)

    def test_bad_bump_weight_rejected(self):
        with pytest.raises(WorkloadError, match="bump_weight"):
            drifting_mixture_shards(P, 100, 0, bump_weight=1.5)

    def test_bad_halo_fraction_rejected(self):
        with pytest.raises(WorkloadError, match="halo_fraction"):
            changa_drift_shards(P, 100, 0, halo_fraction=-0.1)

    def test_bad_steps_rejected(self):
        with pytest.raises(WorkloadError, match="steps must be >= 1"):
            staircase_duplicate_shards(P, 100, 0, steps=0)
