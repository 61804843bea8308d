"""Tests for the rank-space simulator (the large-p engine)."""

import numpy as np
import pytest

from repro.core.config import HSSConfig
from repro.core.rankspace import (
    RankSpaceSimulator,
    _sample_ranks_in_intervals,
    simulate_histogram_sort_rounds,
)
from repro.errors import ConfigError
from repro.theory.rounds import round_bound_constant_oversampling


class TestRankSpaceHSS:
    def test_finalizes_and_respects_tolerance(self):
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.05, seed=1)
        stats = RankSpaceSimulator(10**6, 256, cfg).run()
        assert stats.all_finalized
        assert stats.max_rank_error <= 0.05 * 10**6 / (2 * 256)

    def test_rounds_within_paper_bound(self):
        """Table 6.1's claim at test scale: observed ≤ bound."""
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.02, seed=2)
        stats = RankSpaceSimulator(4_000 * 1000, 4_000, cfg).run()
        bound = round_bound_constant_oversampling(4_000, 0.02, 5.0)
        assert stats.num_rounds <= bound

    def test_geometric_one_round(self):
        cfg = HSSConfig.one_round(0.05, seed=3)
        stats = RankSpaceSimulator(10**6, 128, cfg).run()
        assert stats.num_rounds == 1
        assert stats.all_finalized

    def test_sample_size_concentration_one_round(self):
        """Lemma 3.2.1: one-round sample ≈ 2·p·ln p/ε."""
        import math

        p, eps = 512, 0.05
        cfg = HSSConfig.one_round(eps, seed=4)
        stats = RankSpaceSimulator(p * 10**4, p, cfg).run()
        expected = 2 * p * math.log(p) / eps
        measured = stats.rounds[0].sample_size
        assert 0.8 * expected <= measured <= 1.2 * expected

    def test_mass_shrinks_geometrically(self):
        cfg = HSSConfig.constant_oversampling(8.0, eps=0.01, seed=5)
        stats = RankSpaceSimulator(10**7, 512, cfg).run()
        masses = [r.candidate_mass_before for r in stats.rounds]
        # Theorem 3.3.1-style shrinkage: each round divides mass by >= f/4.
        for a, b in zip(masses, masses[1:]):
            assert b < a / 2

    def test_statistics_match_spmd_implementation(self, rng):
        """Rank-space and full-SPMD runs agree in distribution: compare
        round counts and per-round sample magnitudes on a common config."""
        from repro.algorithms import Sorter

        p, n_per = 16, 2000
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.02, seed=7)
        inputs = [rng.integers(0, 10**9, n_per) for _ in range(p)]
        spmd = Sorter("hss", config=cfg).run(inputs).splitter_stats
        sim = RankSpaceSimulator(p * n_per, p, cfg).run()
        assert abs(sim.num_rounds - spmd.num_rounds) <= 1
        # First-round samples are Binomial(N, 5p/N) in both: compare loosely.
        assert (
            abs(sim.rounds[0].sample_size - spmd.rounds[0].sample_size)
            <= 6 * np.sqrt(5 * p)
        )

    def test_deterministic_under_seed(self):
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.05, seed=11)
        a = RankSpaceSimulator(10**6, 128, cfg).run()
        b = RankSpaceSimulator(10**6, 128, cfg).run()
        assert [r.sample_size for r in a.rounds] == [
            r.sample_size for r in b.rounds
        ]

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            RankSpaceSimulator(10, 100, HSSConfig())

    @pytest.mark.slow
    def test_large_p_fast(self):
        """256K parts (the paper's largest Fig 4.1 point) stays tractable."""
        import time

        cfg = HSSConfig.constant_oversampling(5.0, eps=0.05, seed=13)
        t0 = time.time()
        stats = RankSpaceSimulator(2**18 * 100, 2**18, cfg).run()
        assert stats.all_finalized
        assert time.time() - t0 < 60


class TestBatchedIntervalSampler:
    """The vectorized Bernoulli sampler behind RankSpaceSimulator."""

    @staticmethod
    def intervals():
        lo = np.array([0, 100, 10_000, 10_050], dtype=np.int64)
        hi = np.array([40, 1_100, 10_040, 10_051], dtype=np.int64)
        return lo, hi

    def test_picks_are_sorted_unique_and_in_range(self):
        lo, hi = self.intervals()
        rng = np.random.default_rng(0)
        picks = _sample_ranks_in_intervals(lo, hi, 0.3, rng)
        assert np.all(np.diff(picks) > 0)
        inside = np.zeros(len(picks), dtype=bool)
        for a, b in zip(lo, hi):
            inside |= (picks >= a) & (picks < b)
        assert inside.all()

    def test_prob_one_returns_every_rank(self):
        lo, hi = self.intervals()
        picks = _sample_ranks_in_intervals(lo, hi, 1.0, np.random.default_rng(1))
        assert len(picks) == int((hi - lo).sum())

    def test_prob_zero_and_empty_intervals(self):
        lo, hi = self.intervals()
        rng = np.random.default_rng(2)
        assert len(_sample_ranks_in_intervals(lo, hi, 0.0, rng)) == 0
        empty = _sample_ranks_in_intervals(
            np.array([5], dtype=np.int64), np.array([5], dtype=np.int64), 0.5, rng
        )
        assert len(empty) == 0

    @pytest.mark.parametrize("prob", [0.01, 0.2, 0.7, 0.95])
    def test_sample_count_concentrates_at_binomial_mean(self, prob):
        """Both the sparse and the dense (coin-flip) regimes are per-rank
        Bernoulli(prob); the total must concentrate at mass * prob."""
        lo = np.arange(0, 200_000, 2_000, dtype=np.int64)
        hi = lo + 1_000
        mass = int((hi - lo).sum())
        rng = np.random.default_rng(3)
        sizes = [
            len(_sample_ranks_in_intervals(lo, hi, prob, rng)) for _ in range(5)
        ]
        mean = np.mean(sizes)
        sigma = np.sqrt(mass * prob * (1 - prob) / 5)
        assert abs(mean - mass * prob) < 6 * sigma + 1

    def test_unsorted_interval_input_still_yields_sorted_picks(self):
        # The simulator always passes ascending merged intervals, but the
        # sampler's contract is a sorted union for any disjoint input order
        # — including the dense-only and prob>=1 fast paths.
        lo = np.array([100, 0], dtype=np.int64)
        hi = np.array([108, 8], dtype=np.int64)
        for prob in (0.9, 1.0, 0.05):
            picks = _sample_ranks_in_intervals(
                lo, hi, prob, np.random.default_rng(1)
            )
            assert np.all(np.diff(picks) > 0), prob

    def test_matches_simulator_update_contract(self):
        # Exactly what RankSpaceSimulator feeds SplitterState.update:
        # int64, sorted, unique — even in the mixed dense/sparse case.
        lo = np.array([0, 50], dtype=np.int64)
        hi = np.array([8, 1_000_050], dtype=np.int64)  # tiny + huge interval
        picks = _sample_ranks_in_intervals(lo, hi, 0.4, np.random.default_rng(4))
        assert picks.dtype == np.int64
        assert np.all(np.diff(picks) > 0)


class TestHistogramSortSim:
    @staticmethod
    def uniform_rank(n):
        return lambda keys: np.clip(keys, 0, 1) * n

    def test_uniform_converges_quickly(self):
        n, p = 10**6, 64
        sim = simulate_histogram_sort_rounds(
            n, p, 0.05, self.uniform_rank(n), 0.0, 1.0
        )
        assert sim.all_finalized
        assert sim.rounds <= 12

    def test_skewed_needs_more_rounds(self):
        """The Fig 6.2 mechanism: key-space bisection suffers under skew."""
        n, p = 10**6, 64

        def skewed_rank(keys):
            # CDF concentrating everything in the last 1e-6 of key space.
            return n * np.clip(keys, 0, 1) ** 0.01

        uniform = simulate_histogram_sort_rounds(
            n, p, 0.05, self.uniform_rank(n), 0.0, 1.0
        )
        skewed = simulate_histogram_sort_rounds(
            n, p, 0.05, skewed_rank, 0.0, 1.0
        )
        assert skewed.rounds > uniform.rounds

    def test_probe_counts_recorded(self):
        n, p = 10**5, 16
        sim = simulate_histogram_sort_rounds(
            n, p, 0.05, self.uniform_rank(n), 0.0, 1.0, probes_per_splitter=2
        )
        assert len(sim.probes_per_round) == sim.rounds
        assert sim.total_probes == sum(sim.probes_per_round)

    def test_round_cap(self):
        n, p = 10**6, 64

        def nasty(keys):
            return n * np.clip(keys, 0, 1) ** 0.001

        sim = simulate_histogram_sort_rounds(
            n, p, 0.01, nasty, 0.0, 1.0, max_rounds=3
        )
        assert sim.rounds == 3
        assert not sim.all_finalized
