"""Empirical validation of every theorem in the paper.

Each test realizes a theorem's random experiment many times (or once at a
size where the w.h.p. bound is overwhelming) and checks the claimed event.
Thresholds are set so a correct implementation fails with probability
≪ 10⁻⁶ while implementations violating the theorem's mechanism fail
immediately.  Rank-space execution makes the experiments cheap.
"""

import math

import numpy as np
import pytest

from repro.core.config import HSSConfig
from repro.core.rankspace import RankSpaceSimulator
from repro.core.scanning import scanning_sample_probability, scanning_splitters
from repro.sampling.random_blocks import block_random_sample
from repro.sampling.regular import regular_sample
from repro.sampling.representative import (
    RepresentativeSample,
    representative_sample_size,
)


class TestTheorem321Scanning:
    """Sampling ratio s = 2/ε ⇒ the scan's last bucket ≤ N(1+ε)/p w.h.p."""

    def test_last_bucket_within_cap(self):
        rng = np.random.default_rng(0)
        n, p, eps = 500_000, 64, 0.1
        prob = scanning_sample_probability(n, p, eps)
        failures = 0
        for trial in range(20):
            picks = np.where(rng.random(n) < prob)[0].astype(np.int64)
            res = scanning_splitters(picks, picks, n, p, eps)
            if res.max_load > (1 + eps) * n / p:
                failures += 1
        # Theorem bound: per-trial failure ≤ exp(-p ε²/2(1+ε)²) ≈ e-0.26…
        # loose at this size, but empirically failures are rare; allow 3/20.
        assert failures <= 3


class TestTheorem322OneRound:
    """Inclusion probability 2p·ln p/(εN) hits every window T_i w.h.p."""

    def test_every_window_sampled(self):
        n, p, eps = 2_000_000, 256, 0.05
        cfg = HSSConfig.one_round(eps, seed=1)
        failures = 0
        for seed in range(10):
            stats = RankSpaceSimulator(
                n, p, HSSConfig.one_round(eps, seed=seed)
            ).run()
            if not stats.all_finalized:
                failures += 1
        # Theorem failure budget 1/p per trial -> P[≥2 of 10] < 1e-3.
        assert failures <= 1
        del cfg


class TestTheorem331MassShrinkage:
    """E[G_j] ≤ 2N/s_j: measured candidate mass obeys the envelope."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_mass_under_envelope(self, k):
        n, p, eps = 4_000_000, 1024, 0.05
        cfg = HSSConfig.k_rounds(k, eps=eps, seed=7)
        stats = RankSpaceSimulator(n, p, cfg).run()
        for j in range(1, len(stats.rounds)):
            s_j = cfg.schedule.ratio(j, p, eps)
            mass_after_j = stats.rounds[j].candidate_mass_before
            # Theorem 3.3.2 w.h.p. envelope: G_j ≤ 6N/s_j.
            assert mass_after_j <= 6 * n / s_j


class TestTheorem333SampleSize:
    """Per-round sample ≤ 7·p·s_j/s_{j−1} w.h.p."""

    def test_round_samples_bounded(self):
        n, p, eps, k = 4_000_000, 1024, 0.05, 3
        cfg = HSSConfig.k_rounds(k, eps=eps, seed=11)
        stats = RankSpaceSimulator(n, p, cfg).run()
        ratio_step = (2 * math.log(p) / eps) ** (1.0 / k)
        for r in stats.rounds:
            assert r.sample_size <= 7 * p * ratio_step


class TestTheorem334Termination:
    """The k-th round's ratio 2·ln p/ε finalizes every splitter w.h.p."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_finalizes_in_k_rounds(self, k):
        n, p, eps = 2_000_000, 512, 0.05
        stats = RankSpaceSimulator(
            n, p, HSSConfig.k_rounds(k, eps=eps, seed=13)
        ).run()
        assert stats.all_finalized
        assert stats.num_rounds <= k
        assert stats.max_rank_error <= eps * n / (2 * p)


class TestTheorem341RankOracle:
    """Representative-sample rank estimates are within εN/p w.h.p."""

    def test_global_estimate_error(self):
        p, n_per, eps = 64, 20_000, 0.1
        n = p * n_per
        rng = np.random.default_rng(3)
        locals_ = [
            np.sort(rng.integers(0, 2**40, n_per)) for _ in range(p)
        ]
        s = representative_sample_size(p, eps)
        oracles = [
            RepresentativeSample(locals_[r], s, np.random.default_rng(100 + r))
            for r in range(p)
        ]
        everything = np.sort(np.concatenate(locals_))
        queries = everything[np.linspace(0, n - 1, 50).astype(int)]
        estimate = sum(o.local_rank_estimate(queries) for o in oracles)
        truth = np.searchsorted(everything, queries, side="right")
        # Theorem budget εN/p; failure prob ≤ 2p^-4 per query.
        assert np.max(np.abs(estimate - truth)) <= eps * n / p


class TestTheorem411RandomSampling:
    """Blelloch oversampling s = Θ(ln N/ε²) balances w.h.p."""

    def test_balance(self):
        p, n_per, eps = 16, 5_000, 0.2
        n = p * n_per
        rng = np.random.default_rng(5)
        locals_ = [np.sort(rng.integers(0, 2**40, n_per)) for _ in range(p)]
        s = math.ceil(4 * (1 + eps) * math.log(n) / eps**2)
        sample = np.sort(
            np.concatenate(
                [
                    block_random_sample(
                        locals_[r], s, np.random.default_rng(200 + r)
                    )
                    for r in range(p)
                ]
            )
        )
        m = len(sample)
        idx = np.clip((np.arange(1, p) * (m // p)) - 1, 0, m - 1)
        splitters = sample[idx]
        everything = np.sort(np.concatenate(locals_))
        bounds = np.searchsorted(everything, splitters, side="left")
        loads = np.diff(np.concatenate(([0], bounds, [n])))
        assert loads.max() <= (1 + eps) * n / p


class TestTheorem412RegularSampling:
    """|R(S_i) − Ni/p| < N/(2s) — deterministic, so exact."""

    @pytest.mark.parametrize("s", [4, 16, 64])
    def test_rank_error_bound(self, s):
        p, n_per = 8, 4_096
        n = p * n_per
        rng = np.random.default_rng(9)
        locals_ = [np.sort(rng.integers(0, 2**50, n_per)) for r in range(p)]
        combined = np.sort(
            np.concatenate([regular_sample(x, s) for x in locals_])
        )
        everything = np.sort(np.concatenate(locals_))
        for i in range(1, p):
            idx_1based = s * i - p // 2
            splitter = combined[np.clip(idx_1based - 1, 0, len(combined) - 1)]
            rank = int(np.searchsorted(everything, splitter, side="left"))
            assert abs(rank - n * i / p) <= n / (2 * s) + n_per / s


class TestLemma332ConstantOversampling:
    """O(log(log p/ε)) rounds with O(p) samples per round suffice."""

    def test_rounds_scale_like_loglog(self):
        eps = 0.05
        rounds_at = {}
        for p in (256, 4096, 65536):
            stats = RankSpaceSimulator(
                p * 2_000, p, HSSConfig.constant_oversampling(5.0, eps=eps, seed=21)
            ).run()
            assert stats.all_finalized
            rounds_at[p] = stats.num_rounds
        # 256x more processors: rounds grow by at most +2 (log log).
        assert rounds_at[65536] <= rounds_at[256] + 2


class TestDistributionFreeness:
    """HSS's splitter phase depends only on ranks — the rank-space engine's
    premise — so the *SPMD* round count must match across wildly different
    key distributions with the same N, p and seed."""

    def test_rounds_invariant_across_distributions(self):
        from repro.algorithms import Sorter
        from repro.workloads import make_workload

        p, n_per = 8, 2_000
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.05, seed=33)
        rounds = set()
        for name in ("uniform", "lognormal", "staircase"):
            shards = make_workload(name, p, n_per, 3)
            run = Sorter("hss", config=cfg, verify=False).run(shards)
            rounds.add(run.splitter_stats.num_rounds)
        assert len(rounds) <= 2  # sampling noise only, no distribution term
