"""Tests for parallel-sample PSRS (Goodrich-style, §4.1.2)."""

import numpy as np
import pytest

from repro.baselines.sample_sort_parallel import (
    sample_sort_regular_parallel_program,
)
from repro.bsp import BSPEngine
from repro.errors import ConfigError
from repro.metrics import check_load_balance, verify_sorted_output


def run_parallel(inputs, **kwargs):
    engine = BSPEngine(len(inputs))
    res = engine.run(
        sample_sort_regular_parallel_program,
        rank_args=[(x,) for x in inputs],
        **kwargs,
    )
    return res, [r[0].keys for r in res.returns], res.returns[0][1]


class TestCorrectness:
    def test_sorts(self, small_shards):
        _, outs, _ = run_parallel(small_shards, eps=0.1)
        verify_sorted_output(small_shards, outs)

    def test_balance_guarantee(self, rng):
        inputs = [rng.integers(0, 10**9, 2000) for _ in range(8)]
        _, outs, _ = run_parallel(inputs, eps=0.05)
        check_load_balance(outs, 0.05)

    def test_agrees_with_central_variant_shape(self, rng):
        """Both PSRS variants produce the same global order."""
        from repro.baselines.sample_sort import sample_sort_regular_program

        inputs = [rng.integers(0, 10**9, 800) for _ in range(4)]
        _, outs_p, _ = run_parallel(inputs, eps=0.2)
        engine = BSPEngine(4)
        res = engine.run(
            sample_sort_regular_program,
            rank_args=[(x,) for x in inputs],
            eps=0.2,
        )
        outs_c = [r[0].keys for r in res.returns]
        assert np.array_equal(
            np.concatenate(outs_p), np.concatenate(outs_c)
        )

    def test_float_keys(self, rng):
        inputs = [rng.normal(size=600) for _ in range(4)]
        _, outs, _ = run_parallel(inputs, eps=0.2)
        verify_sorted_output(inputs, outs)

    def test_single_rank(self, rng):
        inputs = [rng.integers(0, 1000, 300)]
        _, outs, stats = run_parallel(inputs, eps=0.2)
        assert np.array_equal(outs[0], np.sort(inputs[0]))
        assert stats.bitonic_exchanges == 0


class TestScalabilityProperties:
    def test_sample_never_centralized(self, rng):
        """Per-rank sample memory stays O(s) = O(p/ε), not the central
        variant's O(p·s) = O(p²/ε) at the root."""
        inputs = [rng.integers(0, 10**9, 2000) for _ in range(8)]
        res, _, stats = run_parallel(inputs, eps=0.05)
        # The resident block each rank ever holds is one sample block (the
        # bitonic compare-exchange keeps exactly `block` keys).
        assert stats.sample_block <= 2 * stats.oversample
        assert stats.sample_block * 8 < stats.total_sample * 8 / 2
        # And no gather collective appears in the splitting phase at all.
        gathers = [
            r for r in res.trace.records
            if r.op == "gather" and r.phase == "splitting"
        ]
        assert not gathers

    def test_exchange_rounds_log_squared(self, rng):
        inputs = [rng.integers(0, 10**9, 600) for _ in range(16)]
        _, _, stats = run_parallel(inputs, eps=0.2)
        assert stats.bitonic_exchanges == 4 * 5 // 2  # log²p pattern

    def test_non_power_of_two_rejected(self, rng):
        inputs = [rng.integers(0, 100, 50) for _ in range(3)]
        with pytest.raises(ConfigError, match="power of two"):
            run_parallel(inputs, eps=0.2)

    def test_sentinel_collision_rejected(self):
        info = np.iinfo(np.int64)
        inputs = [np.array([1, 2, info.max]), np.array([3, 4, 5])]
        with pytest.raises(ConfigError, match="sentinel"):
            run_parallel(inputs, eps=0.9)

    def test_registry(self, rng):
        from repro.algorithms import Sorter

        inputs = [rng.integers(0, 10**9, 500) for _ in range(4)]
        run = Sorter("sample-regular-parallel", eps=0.1).run(inputs)
        assert run.imbalance <= 1.1 + 1e-9
