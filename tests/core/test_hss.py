"""Tests for the HSS SPMD program: correctness, guarantees, diagnostics."""

import numpy as np
import pytest

from repro.algorithms import Sorter
from repro.core.config import HSSConfig
from repro.errors import ConfigError
from repro.metrics import verify_sorted_output


class TestBasicCorrectness:
    def test_sorts_uniform(self, small_shards):
        run = Sorter("hss", eps=0.05).run(small_shards)
        verify_sorted_output(small_shards, run.shards, 0.05)

    def test_imbalance_within_eps(self, small_shards):
        run = Sorter("hss", eps=0.05).run(small_shards)
        assert run.imbalance <= 1.05 + 1e-9

    def test_two_ranks(self, rng):
        inputs = [rng.integers(0, 10**6, 1000) for _ in range(2)]
        run = Sorter("hss", eps=0.1).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.1)

    def test_single_rank(self, rng):
        inputs = [rng.integers(0, 10**6, 500)]
        run = Sorter("hss", eps=0.1).run(inputs)
        assert np.array_equal(run.shards[0], np.sort(inputs[0]))

    def test_uneven_inputs(self, rng):
        inputs = [rng.integers(0, 10**6, n) for n in (100, 900, 500, 500)]
        run = Sorter("hss", eps=0.1).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.1)

    def test_deterministic_given_seed(self, small_shards):
        a = Sorter("hss", config=HSSConfig(seed=9)).run(small_shards)
        b = Sorter("hss", config=HSSConfig(seed=9)).run(small_shards)
        for x, y in zip(a.shards, b.shards):
            assert np.array_equal(x, y)
        assert a.splitter_stats.num_rounds == b.splitter_stats.num_rounds

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64, np.float64])
    def test_dtypes(self, rng, dtype):
        if np.issubdtype(dtype, np.floating):
            inputs = [rng.normal(size=800).astype(dtype) for _ in range(4)]
        else:
            inputs = [
                rng.integers(0, 2**30, 800).astype(dtype) for _ in range(4)
            ]
        run = Sorter("hss", eps=0.1).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.1)

    def test_payloads_travel(self, rng):
        p = 4
        inputs = [
            rng.permutation(np.arange(r * 1000, (r + 1) * 1000)) for r in range(p)
        ]
        payloads = [(k * 3).astype(np.int64) for k in inputs]
        run = Sorter("hss", eps=0.1).run(inputs, payloads=payloads)
        for keys, pay in zip(run.shards, run.payloads):
            assert np.array_equal(pay, keys * 3)


class TestSchedules:
    def test_one_round_uses_one_round(self, small_shards):
        run = Sorter("hss", config=HSSConfig.one_round(0.05)).run(small_shards)
        assert run.splitter_stats.num_rounds == 1
        assert run.imbalance <= 1.05 + 1e-9

    def test_k_rounds_respected(self, small_shards):
        run = Sorter("hss", config=HSSConfig.k_rounds(3, eps=0.05)).run(small_shards)
        assert run.splitter_stats.num_rounds <= 3

    def test_constant_oversampling_sample_per_round(self, rng):
        p = 16
        inputs = [rng.integers(0, 10**9, 2000) for _ in range(p)]
        f = 5.0
        cfg = HSSConfig.constant_oversampling(f, eps=0.02)
        run = Sorter("hss", config=cfg).run(inputs)
        stats = run.splitter_stats
        # Expected f*p keys per round; allow generous concentration slack.
        for r in stats.rounds[:-1]:
            assert r.sample_size <= 4 * f * p

    def test_more_rounds_smaller_sample(self, rng):
        p = 16
        inputs = [rng.integers(0, 10**9, 4000) for _ in range(p)]
        one = Sorter("hss", config=HSSConfig.one_round(0.02, seed=1)).run(inputs)
        two = Sorter("hss", config=HSSConfig.k_rounds(2, eps=0.02, seed=1)).run(inputs)
        assert two.splitter_stats.total_sample < one.splitter_stats.total_sample

    def test_interval_mass_shrinks_monotonically(self, rng):
        """The Fig 3.1 property: candidate mass G_j decreases every round."""
        inputs = [rng.integers(0, 10**9, 3000) for _ in range(8)]
        cfg = HSSConfig.constant_oversampling(5.0, eps=0.01)
        run = Sorter("hss", config=cfg).run(inputs)
        masses = [r.candidate_mass_before for r in run.splitter_stats.rounds]
        assert all(b < a for a, b in zip(masses, masses[1:]))

    def test_splitter_stats_content(self, small_shards):
        run = Sorter("hss", eps=0.05).run(small_shards)
        stats = run.splitter_stats
        assert stats.all_finalized
        assert stats.satisfies_tolerance()
        assert stats.total_sample == sum(r.sample_size for r in stats.rounds)
        assert stats.nparts == len(small_shards)


class TestAdversarialInputs:
    def test_presorted_input(self, rng):
        keys = np.sort(rng.integers(0, 10**9, 4000))
        inputs = list(np.array_split(keys, 8))
        run = Sorter("hss", eps=0.05).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.05)

    def test_reversed_input(self, rng):
        keys = np.sort(rng.integers(0, 10**9, 4000))[::-1]
        inputs = [x.copy() for x in np.array_split(keys, 8)]
        run = Sorter("hss", eps=0.05).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.05)

    def test_skewed_distribution(self, rng):
        inputs = [
            (rng.lognormal(0, 4, 2000) * 1e6).astype(np.int64) for _ in range(8)
        ]
        run = Sorter("hss", eps=0.05).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.05)

    def test_tiny_per_rank(self, rng):
        inputs = [rng.permutation(np.arange(r * 20, (r + 1) * 20)) for r in range(4)]
        run = Sorter("hss", eps=1.0).run(inputs)
        verify_sorted_output(inputs, run.shards)

    def test_too_few_keys_raises(self):
        inputs = [
            np.array([1]),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
        ]
        with pytest.raises(ConfigError):
            Sorter("hss", eps=0.5).run(inputs)


class TestDuplicateTagging:
    @pytest.mark.parametrize(
        "maker",
        ["constant_shards", "hotspot_shards", "few_distinct_shards"],
    )
    def test_tagged_balances_duplicates(self, maker):
        from repro.workloads import duplicates as dup

        shards = getattr(dup, maker)(8, 500, 3)
        cfg = HSSConfig(eps=0.05, tag_duplicates=True, seed=1)
        run = Sorter("hss", config=cfg).run(shards)
        verify_sorted_output(shards, run.shards, 0.05)

    def test_untagged_fails_on_constant(self):
        from repro.workloads.duplicates import constant_shards

        shards = constant_shards(8, 500)
        from repro.errors import VerificationError

        with pytest.raises(VerificationError):
            Sorter("hss", config=HSSConfig(eps=0.05, seed=1)).run(shards)

    def test_tagged_no_duplicates_still_works(self, small_shards):
        cfg = HSSConfig(eps=0.05, tag_duplicates=True)
        run = Sorter("hss", config=cfg).run(small_shards)
        verify_sorted_output(small_shards, run.shards, 0.05)


class TestApproximateHistograms:
    def test_sorts_within_eps(self, rng):
        inputs = [rng.integers(0, 10**9, 4000) for _ in range(8)]
        cfg = HSSConfig(eps=0.05, approximate_histograms=True, seed=4)
        run = Sorter("hss", config=cfg).run(inputs)
        verify_sorted_output(inputs, run.shards, 0.05)

    def test_incompatible_with_tagging(self, small_shards):
        cfg = HSSConfig(
            eps=0.05, approximate_histograms=True, tag_duplicates=True
        )
        with pytest.raises(ConfigError, match="cannot be combined"):
            Sorter("hss", config=cfg).run(small_shards)


class TestPhaseTrace:
    def test_three_phases_present(self, small_shards):
        run = Sorter("hss", eps=0.05).run(small_shards)
        breakdown = run.breakdown()
        for phase in ("local sort", "histogramming", "data exchange"):
            assert phase in breakdown.phases()
            assert breakdown.total(phase) > 0

    def test_collective_counts(self, small_shards):
        run = Sorter("hss", eps=0.05).run(small_shards)
        trace = run.engine_result.trace
        rounds = run.splitter_stats.num_rounds
        # Per round: bcast(cmd) + gather + bcast(probes) + reduce; plus the
        # final command bcast, stats bcast, size allreduce and alltoallv.
        assert trace.count_collectives("gather") == rounds
        assert trace.count_collectives("alltoallv") == 1
