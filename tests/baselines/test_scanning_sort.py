"""Tests for the full scanning-based sort (§3.2 end-to-end)."""

import numpy as np

from repro.baselines.scanning_sort import scanning_sort_program
from repro.bsp import BSPEngine
from repro.core.config import HSSConfig
from repro.metrics import check_load_balance, verify_sorted_output


def run_scanning(inputs, eps=0.1, seed=0, **cfg_kwargs):
    engine = BSPEngine(len(inputs))
    cfg = HSSConfig(eps=eps, seed=seed, **cfg_kwargs)
    res = engine.run(scanning_sort_program, rank_args=[(x,) for x in inputs], cfg=cfg)
    return res, [r[0].keys for r in res.returns], res.returns[0][1]


class TestScanningSort:
    def test_sorts(self, small_shards):
        _, outs, _ = run_scanning(small_shards)
        verify_sorted_output(small_shards, outs)

    def test_single_round(self, small_shards):
        _, _, stats = run_scanning(small_shards)
        assert stats.num_rounds == 1
        assert stats.method == "scanning"
        assert stats.all_finalized

    def test_theorem_balance(self, rng):
        inputs = [rng.integers(0, 10**9, 4000) for _ in range(8)]
        _, outs, _ = run_scanning(inputs, eps=0.1, seed=7)
        check_load_balance(outs, 0.1)

    def test_sample_size_near_2p_over_eps(self, rng):
        inputs = [rng.integers(0, 10**9, 4000) for _ in range(8)]
        eps = 0.1
        _, _, stats = run_scanning(inputs, eps=eps, seed=1)
        expected = 2 * 8 / eps
        assert 0.5 * expected <= stats.total_sample <= 2.0 * expected

    def test_smaller_sample_than_one_round_hss(self, rng):
        """§3.2: the scan needs 2p/eps vs HSS's 2p·ln p/eps."""
        from repro.algorithms import Sorter

        inputs = [rng.integers(0, 10**9, 4000) for _ in range(8)]
        _, _, scan_stats = run_scanning(inputs, eps=0.05, seed=1)
        hss = Sorter("hss", config=HSSConfig.one_round(0.05, seed=1)).run(inputs)
        assert scan_stats.total_sample < hss.splitter_stats.total_sample

    def test_duplicates_with_tagging(self):
        from repro.workloads.duplicates import hotspot_shards

        shards = hotspot_shards(8, 500, 3)
        _, outs, _ = run_scanning(shards, eps=0.1, seed=1, tag_duplicates=True)
        verify_sorted_output(shards, outs, 0.1)

    def test_skewed(self, rng):
        inputs = [
            (rng.lognormal(0, 5, 2000) * 1e4).astype(np.int64) for _ in range(8)
        ]
        _, outs, _ = run_scanning(inputs, eps=0.1, seed=2)
        verify_sorted_output(inputs, outs, 0.1)
