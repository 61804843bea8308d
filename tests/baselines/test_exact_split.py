"""Tests for the exact-splitting baseline (Cheng et al., §2.1)."""

import numpy as np

from repro.baselines.exact_split import exact_split_sort_program
from repro.bsp import BSPEngine
from repro.metrics import verify_sorted_output


def run_exact(inputs, **kwargs):
    engine = BSPEngine(len(inputs))
    res = engine.run(
        exact_split_sort_program, rank_args=[(x,) for x in inputs], **kwargs
    )
    return res, [r[0].keys for r in res.returns], res.returns[0][1]


def unique_shards(rng, p, n_per):
    keys = rng.permutation(np.arange(p * n_per, dtype=np.int64) * 7 + 3)
    return [chunk.copy() for chunk in np.array_split(keys, p)]


class TestPerfectBalance:
    def test_loads_differ_by_at_most_one(self, rng):
        inputs = unique_shards(rng, 8, 1000)
        _, outs, stats = run_exact(inputs)
        loads = [len(o) for o in outs]
        assert max(loads) - min(loads) <= 1
        assert stats.all_exact
        verify_sorted_output(inputs, outs)

    def test_uneven_inputs_still_perfect(self, rng):
        keys = rng.permutation(np.arange(3000, dtype=np.int64) * 11)
        sizes = [100, 1400, 500, 1000]
        inputs = []
        start = 0
        for s in sizes:
            inputs.append(keys[start:start + s].copy())
            start += s
        _, outs, _ = run_exact(inputs)
        loads = [len(o) for o in outs]
        assert max(loads) - min(loads) <= 1
        verify_sorted_output(inputs, outs)

    def test_float_keys(self, rng):
        inputs = [np.unique(rng.normal(size=1200))[:1000] for _ in range(4)]
        # Ensure global uniqueness by offsetting each rank.
        inputs = [x + 10.0 * r for r, x in enumerate(inputs)]
        _, outs, stats = run_exact(inputs)
        loads = [len(o) for o in outs]
        assert max(loads) - min(loads) <= 1
        assert stats.all_exact

    def test_single_rank(self, rng):
        inputs = [rng.permutation(np.arange(500, dtype=np.int64))]
        _, outs, _ = run_exact(inputs)
        assert np.array_equal(outs[0], np.arange(500))


class TestRounds:
    def test_rounds_bounded_by_log_keyrange(self, rng):
        inputs = unique_shards(rng, 8, 2000)
        _, _, stats = run_exact(inputs)
        key_range = 8 * 2000 * 7
        assert stats.rounds <= np.log2(key_range) + 2

    def test_probes_per_round_at_most_p(self, rng):
        inputs = unique_shards(rng, 16, 500)
        _, _, stats = run_exact(inputs)
        assert stats.probes_total <= stats.rounds * 15

    def test_more_rounds_than_hss(self, rng):
        """The trade-off the paper maps: exactness costs log N rounds."""
        from repro.algorithms import Sorter
        from repro.core.config import HSSConfig

        inputs = unique_shards(rng, 8, 2000)
        _, _, exact_stats = run_exact(inputs)
        hss = Sorter("hss", config=HSSConfig(eps=0.05, seed=1)).run(inputs)
        assert exact_stats.rounds > hss.splitter_stats.num_rounds


class TestFailureModes:
    def test_heavy_duplicates_break_exactness(self):
        """A constant input cannot be split exactly: the pinch resolves to
        the hot key and one rank receives everything (the §2.1 algorithm
        presumes distinct keys; tag upstream per §4.3)."""
        inputs = [np.full(500, 7, dtype=np.int64) for _ in range(4)]
        _, outs, stats = run_exact(inputs, max_rounds=80)
        verify_sorted_output(inputs, outs)  # still a sorted permutation
        loads = sorted(len(o) for o in outs)
        assert loads[-1] == 2000  # all keys collapse onto one bucket

    def test_registry_entry(self, rng):
        from repro.algorithms import Sorter

        inputs = unique_shards(rng, 4, 500)
        run = Sorter("exact-split", eps=0.05).run(inputs)
        assert run.imbalance <= 1.01
