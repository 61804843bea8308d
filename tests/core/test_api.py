"""Tests for the public API: ``Sorter`` over every registered algorithm."""

import numpy as np
import pytest

from repro.algorithms import REGISTRY, Sorter
from repro.errors import ConfigError
from repro.metrics import verify_sorted_output


class TestRegistry:
    def test_expected_algorithms_present(self):
        expected = {
            "hss",
            "hss-1round",
            "hss-2round",
            "scanning",
            "sample-regular",
            "sample-random",
            "histogram",
            "over-partition",
            "bitonic",
            "radix",
        }
        assert expected <= set(REGISTRY)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            Sorter("quicksort")

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_algorithm_sorts(self, name, rng):
        inputs = [rng.integers(0, 10**7, 600) for _ in range(8)]
        config = REGISTRY.get(name).legacy_config(eps=0.1, seed=5)
        run = Sorter(name, config=config).run(inputs)
        verify_sorted_output(inputs, run.shards)
        assert run.algorithm == name

    def test_splitter_stats_only_for_histogramming_algorithms(self, rng):
        inputs = [rng.integers(0, 10**7, 400) for _ in range(4)]
        hss = Sorter("hss", eps=0.1).run(inputs)
        assert hss.splitter_stats is not None
        bitonic = Sorter("bitonic").run(inputs)
        assert bitonic.splitter_stats is None


class TestHssSortInput:
    def test_mixed_dtypes_rejected(self, rng):
        inputs = [rng.integers(0, 100, 50), rng.normal(size=50)]
        with pytest.raises(ConfigError, match="dtype"):
            Sorter("hss", eps=0.5).run(inputs)

    def test_empty_rank_list_rejected(self):
        with pytest.raises(ConfigError):
            Sorter("hss").run([])

    def test_payload_rank_mismatch(self, small_shards):
        with pytest.raises(ConfigError, match="payloads"):
            Sorter("hss").run(small_shards, payloads=[np.arange(5)])

    def test_verify_false_skips_checks(self, rng):
        # verify=False must not raise even for configs that would trip the
        # balance check (eps tiny with a sloppy schedule is hard to build,
        # so just confirm the flag path executes).
        inputs = [rng.integers(0, 10**7, 300) for _ in range(4)]
        run = Sorter("hss", eps=0.2, verify=False).run(inputs)
        assert sum(len(s) for s in run.shards) == 1200

    def test_sortrun_accessors(self, small_shards):
        run = Sorter("hss", eps=0.05).run(small_shards)
        assert run.makespan > 0
        assert run.imbalance >= 1.0
        assert run.breakdown().total() == pytest.approx(run.makespan)


class TestCrossAlgorithmAgreement:
    def test_all_algorithms_produce_identical_global_order(self, rng):
        inputs = [rng.integers(0, 10**7, 500) for _ in range(8)]
        reference = np.sort(np.concatenate(inputs))
        for name in ("hss", "scanning", "sample-regular", "histogram", "radix"):
            config = REGISTRY.get(name).legacy_config(eps=0.1, seed=2)
            run = Sorter(name, config=config).run(inputs)
            assert np.array_equal(np.concatenate(run.shards), reference), name
