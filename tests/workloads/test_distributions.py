"""Tests for parametric workload generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    DISTRIBUTIONS,
    make_distributed,
    nearly_sorted_shards,
    reversed_shards,
    staircase_shards,
    uniform_shards,
)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_shape_and_dtype(self, name):
        shards = make_distributed(name, 4, 300, 7)
        assert len(shards) == 4
        assert all(len(s) == 300 for s in shards)
        assert all(s.dtype == np.int64 for s in shards)

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_deterministic(self, name):
        a = make_distributed(name, 3, 100, 5)
        b = make_distributed(name, 3, 100, 5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_unknown_name(self):
        with pytest.raises(WorkloadError, match="unknown distribution"):
            make_distributed("cauchy", 2, 10)

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_keys_stay_clear_of_dtype_extremes(self, name):
        """Sentinel safety: keys must avoid int64 min/max."""
        shards = make_distributed(name, 4, 200, 3)
        info = np.iinfo(np.int64)
        for s in shards:
            assert s.min() > info.min and s.max() < info.max


class TestShapes:
    def test_uniform_spreads(self):
        shards = uniform_shards(4, 2000, 0)
        keys = np.concatenate(shards)
        # Quartiles roughly even for uniform keys.
        q = np.quantile(keys, [0.25, 0.5, 0.75]) / 2**62
        assert np.allclose(q, [0.25, 0.5, 0.75], atol=0.05)

    def test_staircase_concentrates_mass(self):
        shards = staircase_shards(4, 2000, 0, steps=4, ratio=1e6)
        keys = np.concatenate(shards)
        # All keys live in 4 narrow windows: unique key-space coverage tiny.
        span = keys.max() - keys.min()
        coverage = sum(
            np.ptp(keys[(keys >= lo) & (keys < lo + span // 4 + 1)])
            for lo in np.linspace(keys.min(), keys.max(), 4, endpoint=False)
        )
        assert coverage < span / 100

    def test_staircase_invalid(self):
        with pytest.raises(WorkloadError):
            staircase_shards(2, 10, steps=0)

    def test_nearly_sorted_placement(self):
        shards = nearly_sorted_shards(8, 500, 0, swap_fraction=0.0)
        for k in range(7):
            assert shards[k][-1] <= shards[k + 1][0]

    def test_nearly_sorted_with_swaps_disrupts(self):
        shards = nearly_sorted_shards(8, 500, 0, swap_fraction=0.05)
        merged = np.concatenate(shards)
        assert np.any(np.diff(merged) < 0)

    def test_reversed_is_descending(self):
        shards = reversed_shards(4, 100, 0)
        merged = np.concatenate(shards)
        assert np.all(np.diff(merged) <= 0)


class TestSortability:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_hss_handles_every_distribution(self, name):
        from repro.algorithms import Sorter
        from repro.core.config import HSSConfig

        shards = make_distributed(name, 8, 600, 11)
        cfg = HSSConfig(eps=0.1, seed=2, tag_duplicates=True)
        run = Sorter("hss", config=cfg).run(shards)
        assert run.imbalance <= 1.1 + 1e-9
