"""Tests for sample sort baselines (regular + block random sampling)."""

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.baselines.sample_sort import (
    sample_sort_random_program,
    sample_sort_regular_program,
)
from repro.metrics import check_load_balance, verify_sorted_output


def run_program(program, inputs, **kwargs):
    engine = BSPEngine(len(inputs))
    res = engine.run(program, rank_args=[(x,) for x in inputs], **kwargs)
    return res, [r[0].keys for r in res.returns], res.returns[0][1]


class TestRegularSampling:
    def test_sorts(self, small_shards):
        _, outs, _ = run_program(
            sample_sort_regular_program, small_shards, eps=0.1
        )
        verify_sorted_output(small_shards, outs)

    def test_lemma_4_1_1_load_guarantee(self, rng):
        """s = p/eps gives deterministic (1+eps) balance."""
        inputs = [rng.integers(0, 10**9, 2000) for _ in range(8)]
        _, outs, _ = run_program(
            sample_sort_regular_program, inputs, eps=0.05
        )
        check_load_balance(outs, 0.05)

    def test_oversample_recorded(self, small_shards):
        _, _, stats = run_program(
            sample_sort_regular_program, small_shards, eps=0.1
        )
        assert stats.oversample == int(np.ceil(8 / 0.1))
        assert stats.total_sample > 0

    def test_sample_size_quadratic_in_p(self, rng):
        """The p²/ε total sample (the paper's core criticism)."""
        results = {}
        for p in (4, 8):
            inputs = [rng.integers(0, 10**9, 2000) for _ in range(p)]
            _, _, stats = run_program(
                sample_sort_regular_program, inputs, eps=0.2
            )
            results[p] = stats.total_sample
        # Doubling p should ~quadruple the sample.
        assert results[8] >= 3.0 * results[4]

    def test_custom_oversample(self, small_shards):
        _, outs, stats = run_program(
            sample_sort_regular_program, small_shards, eps=0.1, oversample=16
        )
        assert stats.oversample == 16
        verify_sorted_output(small_shards, outs)

    @pytest.mark.parametrize("p, n_per", [(16, 97), (16, 20), (4, 30)])
    def test_whole_shard_samples_split_at_exact_quantiles(self, p, n_per):
        """With ``s = ceil(p/eps) > n_per`` every rank sends its whole
        shard, and the splitters are the exact quantiles: no -p/2 skew."""
        from repro.algorithms import Dataset, Sorter

        ds = Dataset.from_workload("uniform", p=p, n_per=n_per, seed=0)
        run = Sorter("sample-regular", eps=0.05).run(ds)  # verifies balance
        assert max(map(len, run.shards)) - min(map(len, run.shards)) <= 1

    def test_deterministic(self, small_shards):
        _, outs_a, _ = run_program(sample_sort_regular_program, small_shards, eps=0.1)
        _, outs_b, _ = run_program(sample_sort_regular_program, small_shards, eps=0.1)
        for a, b in zip(outs_a, outs_b):
            assert np.array_equal(a, b)


class TestRandomSampling:
    def test_sorts(self, small_shards):
        _, outs, _ = run_program(
            sample_sort_random_program, small_shards, eps=0.2, seed=3
        )
        verify_sorted_output(small_shards, outs)

    def test_balance_with_theorem_oversampling(self, rng):
        inputs = [rng.integers(0, 10**9, 3000) for _ in range(4)]
        _, outs, _ = run_program(
            sample_sort_random_program, inputs, eps=0.3, seed=1
        )
        # Thm 4.1.1 holds w.h.p.; with these sizes failure is ~1/N.
        check_load_balance(outs, 0.3)

    def test_forced_small_sample_still_sorts(self, small_shards):
        _, outs, stats = run_program(
            sample_sort_random_program,
            small_shards,
            eps=0.2,
            seed=2,
            oversample=4,
        )
        assert stats.oversample == 4
        verify_sorted_output(small_shards, outs)

    def test_seed_changes_sample(self, small_shards):
        _, _, s1 = run_program(
            sample_sort_random_program, small_shards, eps=0.2, seed=1, oversample=8
        )
        _, _, s2 = run_program(
            sample_sort_random_program, small_shards, eps=0.2, seed=2, oversample=8
        )
        assert not np.array_equal(s1.splitters, s2.splitters)
