"""Property-based tests: every sorter satisfies the §2.1 contract.

Hypothesis generates adversarial shard layouts (uneven sizes, duplicates,
extreme values, empty ranks) and we assert the three problem-statement
predicates on the output.  These are the tests most likely to find
rendezvous bugs, boundary-condition bugs in bucketing, and off-by-ones in
splitter selection.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import Sorter
from repro.core.config import HSSConfig
from repro.metrics import verify_sorted_output

COMMON = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def shard_layouts(draw, min_ranks=2, max_ranks=8, max_keys=300, allow_empty=True):
    """Random per-rank int64 arrays with adversarial values."""
    p = draw(st.integers(min_ranks, max_ranks))
    sizes = draw(
        st.lists(
            st.integers(0 if allow_empty else 1, max_keys),
            min_size=p,
            max_size=p,
        )
    )
    if sum(sizes) < p:  # need at least one key per part for splitters
        sizes = [s + 1 for s in sizes]
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    style = draw(st.sampled_from(["uniform", "narrow", "clustered", "sorted"]))
    shards = []
    for n in sizes:
        if style == "uniform":
            keys = rng.integers(-(2**60), 2**60, n)
        elif style == "narrow":
            keys = rng.integers(0, 50, n)
        elif style == "clustered":
            centers = rng.integers(-(2**50), 2**50, 3)
            keys = rng.choice(centers, n) + rng.integers(0, 1000, n)
        else:
            keys = np.sort(rng.integers(0, 2**40, n))
        shards.append(keys.astype(np.int64))
    return shards


def balance_is_feasible(shards, eps: float) -> bool:
    """Whether any output meets the ``(1+eps)N/p`` cap.

    Some rank holds at least ``ceil(N/p)`` keys, so a layout whose cap is
    below that (N=3 keys on p=2 at eps=0.25: cap 1.875 < 2) has no valid
    output for any sorter.
    """
    n, p = sum(len(s) for s in shards), len(shards)
    return -(-n // p) <= (1.0 + eps) * n / p


class TestHSSContract:
    EPS = 0.25

    def test_infeasible_layout_is_recognised(self):
        assert not balance_is_feasible([[1], [2, 3]], self.EPS)
        assert balance_is_feasible([[1, 4], [2, 3]], self.EPS)

    @given(shard_layouts())
    @settings(**COMMON)
    def test_sorted_permutation_balanced(self, shards):
        assume(balance_is_feasible(shards, self.EPS))
        cfg = HSSConfig(eps=self.EPS, seed=7, tag_duplicates=True)
        run = Sorter("hss", config=cfg, verify=False).run(shards)
        verify_sorted_output(shards, run.shards, self.EPS)

    @given(shard_layouts(), st.integers(0, 3))
    @settings(**COMMON)
    def test_seed_only_changes_internals_not_contract(self, shards, seed):
        assume(balance_is_feasible(shards, self.EPS))
        cfg = HSSConfig(eps=self.EPS, seed=seed, tag_duplicates=True)
        run = Sorter("hss", config=cfg, verify=False).run(shards)
        verify_sorted_output(shards, run.shards, self.EPS)


class TestBaselineContracts:
    @given(shard_layouts())
    @settings(**COMMON)
    def test_sample_regular(self, shards):
        run = Sorter("sample-regular", eps=0.3, verify=False).run(shards)
        verify_sorted_output(shards, run.shards)

    @given(shard_layouts())
    @settings(**COMMON)
    def test_over_partition(self, shards):
        run = Sorter("over-partition", verify=False).run(shards)
        verify_sorted_output(shards, run.shards)

    @given(shard_layouts(allow_empty=False))
    @settings(**COMMON)
    def test_radix(self, shards):
        run = Sorter("radix", verify=False).run(shards)
        verify_sorted_output(shards, run.shards)

    @given(st.integers(0, 2**31), st.integers(0, 2), st.integers(16, 64))
    @settings(**COMMON)
    def test_bitonic_power_of_two(self, seed, logp_minus_1, n_per):
        p = 2 ** (logp_minus_1 + 1)
        rng = np.random.default_rng(seed)
        shards = [rng.integers(-(2**50), 2**50, n_per) for _ in range(p)]
        run = Sorter("bitonic", verify=False).run(shards)
        verify_sorted_output(shards, run.shards)


class TestCrossAlgorithmEquivalence:
    @given(shard_layouts(max_ranks=6, max_keys=150))
    @settings(**COMMON)
    def test_hss_and_sample_sort_agree(self, shards):
        reference = np.sort(np.concatenate(shards))
        a = Sorter(
            "hss",
            config=HSSConfig(eps=0.3, seed=1, tag_duplicates=True),
            verify=False,
        ).run(shards)
        b = Sorter("sample-regular", eps=0.3, verify=False).run(shards)
        assert np.array_equal(np.concatenate(a.shards), reference)
        assert np.array_equal(np.concatenate(b.shards), reference)
