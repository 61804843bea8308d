"""Tests for classic histogram sort (key-space probe bisection)."""

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.baselines.histogram_sort import histogram_sort_program, keyspace_probes
from repro.core.splitters import SplitterState
from repro.errors import ConfigError, VerificationError
from repro.metrics import check_load_balance, verify_sorted_output


def run_histogram(inputs, **kwargs):
    engine = BSPEngine(len(inputs))
    res = engine.run(histogram_sort_program, rank_args=[(x,) for x in inputs], **kwargs)
    return res, [r[0].keys for r in res.returns], res.returns[0][1]


class TestCorrectness:
    def test_sorts_uniform(self, small_shards):
        _, outs, stats = run_histogram(small_shards, eps=0.05)
        verify_sorted_output(small_shards, outs, 0.05)
        assert stats.all_finalized

    def test_float_keys(self, rng):
        inputs = [rng.normal(size=800) for _ in range(4)]
        _, outs, _ = run_histogram(inputs, eps=0.1)
        verify_sorted_output(inputs, outs, 0.1)

    def test_guaranteed_balance(self, rng):
        inputs = [rng.integers(0, 10**9, 2000) for _ in range(8)]
        _, outs, _ = run_histogram(inputs, eps=0.02)
        check_load_balance(outs, 0.02)

    def test_probes_per_round_recorded(self, small_shards):
        _, _, stats = run_histogram(small_shards, eps=0.05)
        assert stats.rounds == len(stats.probes_per_round)
        assert stats.total_probes == sum(stats.probes_per_round)

    def test_invalid_probes_per_splitter(self, small_shards):
        with pytest.raises(ConfigError):
            run_histogram(small_shards, probes_per_splitter=0)

    def test_round_cap_raises(self, rng):
        # Extremely skewed keys + tight eps + 1 round cannot finalize.
        inputs = [
            np.concatenate(
                (rng.integers(0, 10, 990), rng.integers(0, 2**60, 10))
            )
            for _ in range(4)
        ]
        with pytest.raises(VerificationError, match="did not finalize"):
            run_histogram(inputs, eps=0.01, max_rounds=1)


class TestSkewSensitivity:
    @staticmethod
    def _skewed(rng, p, n):
        """Duplicate-free skew: 90% of mass in a 2^-39 sliver of key space."""
        return [
            np.where(
                rng.random(n) < 0.9,
                rng.integers(0, 2**20, n),
                rng.integers(2**59, 2**60, n),
            )
            for _ in range(p)
        ]

    def test_skewed_needs_more_rounds_than_uniform(self, rng):
        """The distribution dependence HSS removes (Fig 6.2 mechanism)."""
        p, n = 8, 2000
        uniform = [rng.integers(0, 2**40, n) for _ in range(p)]
        skewed = self._skewed(rng, p, n)
        _, _, stats_u = run_histogram(uniform, eps=0.05)
        _, _, stats_s = run_histogram(skewed, eps=0.05)
        assert stats_s.rounds > stats_u.rounds

    def test_hss_rounds_insensitive_to_same_skew(self, rng):
        """Control: HSS round counts barely move between the same inputs."""
        from repro.algorithms import Sorter
        from repro.core.config import HSSConfig

        p, n = 8, 2000
        uniform = [rng.integers(0, 2**40, n) for _ in range(p)]
        skewed = self._skewed(rng, p, n)
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.05, seed=3)
        r_u = Sorter("hss", config=cfg).run(uniform).splitter_stats.num_rounds
        r_s = Sorter("hss", config=cfg).run(skewed).splitter_stats.num_rounds
        assert abs(r_u - r_s) <= 1


class TestKeyspaceProbes:
    def test_initial_probes_span_range(self):
        state = SplitterState(1000, 4, 0.01, key_dtype=np.float64)
        probes = keyspace_probes(state, 3, 0.0, 1.0)
        assert len(probes) > 0
        assert probes.min() >= 0.0 and probes.max() <= 1.0

    def test_no_probes_when_finalized(self):
        state = SplitterState(100, 2, 0.1, key_dtype=np.float64)
        state.update(np.array([0.5]), np.array([50]))
        assert len(keyspace_probes(state, 3, 0.0, 1.0)) == 0

    def test_probes_inside_open_intervals(self):
        state = SplitterState(1000, 2, 0.001, key_dtype=np.float64)
        state.update(np.array([0.2, 0.8]), np.array([300, 700]))
        probes = keyspace_probes(state, 3, 0.0, 1.0)
        assert np.all((probes >= 0.2) & (probes <= 0.8))

    def test_signed_range_wider_than_int64_does_not_wrap(self):
        # Regression: an interval spanning [-2^62, 2^62] has width 2^63,
        # which wraps under signed int64 subtraction; the probe grid must
        # still spread across the whole range instead of collapsing to
        # a single lo+1 probe.
        state = SplitterState(1000, 4, 0.1, key_dtype=np.int64)
        probes = keyspace_probes(state, 3, -(2**62), 2**62)
        assert len(probes) >= 4
        assert np.all(np.diff(probes) > 0)
        assert probes[0] > -(2**62) and probes[-1] < 2**62
        # Spread, not bunched: the extremes sit in opposite halves.
        assert probes[0] < 0 < probes[-1]
