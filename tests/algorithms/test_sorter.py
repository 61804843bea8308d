"""Tests for the Sorter front end: capabilities, payloads, config handling."""

import numpy as np
import pytest

from repro.algorithms import Dataset, Sorter
from repro.core.config import HSSConfig
from repro.errors import CapabilityError, ConfigError
from repro.metrics import verify_sorted_output

PAYLOAD_CAPABLE = ["hss", "sample-regular", "sample-random", "histogram"]


def _unique_key_dataset(p: int = 8, n_per: int = 300) -> Dataset:
    """Distinct keys so key->payload association is checkable exactly."""
    rng = np.random.default_rng(77)
    keys = rng.permutation(p * n_per * 4)[: p * n_per].astype(np.int64)
    shards = np.array_split(keys, p)
    # Payload = the key itself: after a correct round trip the output
    # payload array must equal the output key array on every rank.
    return Dataset.from_arrays(shards, payloads=[s.copy() for s in shards])


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("name", PAYLOAD_CAPABLE)
    def test_payload_follows_its_key(self, name):
        ds = _unique_key_dataset()
        run = Sorter(name, eps=0.2).run(ds)
        verify_sorted_output(ds.shards, run.shards)
        assert run.payloads is not None
        for keys, payload in zip(run.shards, run.payloads):
            if payload is None:
                assert len(keys) == 0
                continue
            assert np.array_equal(keys, payload)

    def test_payloadless_run_returns_none(self, small_shards):
        run = Sorter("sample-regular", eps=0.2).run(small_shards)
        assert run.payloads is None

    def test_payloads_kwarg_on_plain_arrays(self, small_shards):
        payloads = [np.arange(len(s)) for s in small_shards]
        run = Sorter("hss", eps=0.1).run(small_shards, payloads=payloads)
        got = np.sort(np.concatenate([v for v in run.payloads if v is not None]))
        assert np.array_equal(got, np.sort(np.concatenate(payloads)))


class TestCapabilityValidation:
    def test_bitonic_rejects_payloads(self):
        ds = _unique_key_dataset()
        with pytest.raises(CapabilityError, match="does not support payloads"):
            Sorter("bitonic").run(ds)

    @pytest.mark.parametrize("name", ["sample-regular-parallel", "radix",
                                      "over-partition", "exact-split",
                                      "scanning", "hss-node"])
    def test_other_non_payload_algorithms_reject_payloads(self, name):
        ds = _unique_key_dataset()
        with pytest.raises(CapabilityError):
            Sorter(name, machine=None).run(ds)

    def test_hss_node_rejects_single_core_machine(self, small_shards):
        from repro.machines import get_machine

        flat = get_machine("laptop", overrides={"cores_per_node": 1})
        with pytest.raises(CapabilityError, match="multicore"):
            Sorter("hss-node", machine=flat).run(small_shards)

    def test_capability_error_is_config_error(self):
        assert issubclass(CapabilityError, ConfigError)

    def test_meaningless_eps_rejected_for_bitonic_and_radix(self):
        with pytest.raises(ConfigError, match="valid keys"):
            Sorter("bitonic", eps=0.05)
        with pytest.raises(ConfigError, match="valid keys"):
            Sorter("radix", eps=0.05)

    def test_unknown_algorithm(self, small_shards):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            Sorter("quicksort")


class TestConfigHandling:
    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            Sorter("hss", config=HSSConfig(), eps=0.1)

    def test_prebuilt_config_type_checked(self):
        with pytest.raises(ConfigError, match="expects"):
            Sorter("radix", config=HSSConfig())

    def test_typed_knobs_reach_the_program(self, rng):
        inputs = [rng.integers(0, 10**7, 200) for _ in range(4)]
        run = Sorter("histogram", eps=0.2, probes_per_splitter=7).run(inputs)
        assert run.stats.probes_per_round[1] > 0


class TestUniformStatsExtraction:
    def test_rank_stats_collected_from_every_rank(self, small_shards):
        run = Sorter("hss", eps=0.1).run(small_shards)
        assert len(run.rank_stats) == len(small_shards)
        # HSS broadcasts the central stats, so every rank reports them.
        assert all(s is not None for s in run.rank_stats)
        assert run.stats is run.rank_stats[0]

    def test_splitter_stats_property_gates_on_type(self, small_shards):
        hss = Sorter("hss", eps=0.1).run(small_shards)
        assert hss.splitter_stats is not None
        bitonic = Sorter("bitonic").run(small_shards)
        assert bitonic.splitter_stats is None and bitonic.stats is None
        histogram = Sorter("histogram", eps=0.1).run(small_shards)
        # Histogram sort has stats — just not SplitterStats.
        assert histogram.splitter_stats is None
        assert histogram.stats is not None


class TestBackendSelection:
    def test_default_backend_is_simulated(self):
        run = Sorter("hss", eps=0.2).run(
            Dataset.from_workload("uniform", p=4, n_per=200, seed=0)
        )
        assert run.backend == "simulated"
        assert run.measured is not None
        assert run.measured.backend == "simulated"

    def test_backend_by_name_and_instance(self):
        from repro.runtime import ProcessBackend

        ds = Dataset.from_workload("uniform", p=4, n_per=200, seed=0)
        by_name = Sorter("hss", eps=0.2, backend="process").run(ds)
        by_instance = Sorter(
            "hss", eps=0.2, backend=ProcessBackend(workers=2)
        ).run(ds)
        assert by_name.backend == by_instance.backend == "process"
        for a, b in zip(by_name.shards, by_instance.shards):
            np.testing.assert_array_equal(a, b)

    def test_unknown_backend_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            Sorter("hss", backend="quantum")

    def test_verification_applies_on_process_backend(self):
        # verify=True runs the standard output checks regardless of the
        # executing backend.
        ds = Dataset.from_workload("uniform", p=4, n_per=200, seed=1)
        run = Sorter("hss", eps=0.2, backend="process", verify=True).run(ds)
        verify_sorted_output(ds.shards, run.shards, 0.2)
