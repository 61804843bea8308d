"""Tests for output verification predicates."""

import numpy as np
import pytest

from repro.errors import LoadBalanceError, VerificationError
from repro.metrics.verify import (
    check_globally_sorted,
    check_load_balance,
    check_permutation,
    load_imbalance,
    verify_sorted_output,
)


class TestGloballySorted:
    def test_accepts_sorted(self):
        check_globally_sorted([np.array([1, 2]), np.array([3, 4])])

    def test_accepts_empty_shards(self):
        check_globally_sorted(
            [np.array([1, 2]), np.array([], dtype=np.int64), np.array([3])]
        )

    def test_rejects_local_disorder(self):
        with pytest.raises(VerificationError, match="locally"):
            check_globally_sorted([np.array([2, 1])])

    def test_rejects_cross_shard_disorder(self):
        with pytest.raises(VerificationError, match="below"):
            check_globally_sorted([np.array([5, 6]), np.array([4, 7])])

    def test_boundary_equality_allowed(self):
        check_globally_sorted([np.array([1, 3]), np.array([3, 4])])


class TestPermutation:
    def test_accepts_rearrangement(self):
        check_permutation(
            [np.array([3, 1]), np.array([2])],
            [np.array([1, 2]), np.array([3])],
        )

    def test_rejects_lost_key(self):
        with pytest.raises(VerificationError, match="count"):
            check_permutation([np.array([1, 2])], [np.array([1])])

    def test_rejects_changed_key(self):
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation([np.array([1, 2])], [np.array([1, 3])])

    def test_duplicates_counted(self):
        with pytest.raises(VerificationError):
            check_permutation([np.array([1, 1, 2])], [np.array([1, 2, 2])])

    def test_empty(self):
        check_permutation(
            [np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)]
        )

    # The outputs are sorted only when a linear scan finds them out of
    # order; each verdict below is pinned on both paths.
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(3)
        return [rng.integers(0, 100, 500).astype(np.uint64) for _ in range(4)]

    def test_sorted_permutation_passes(self):
        inputs = self._inputs()
        everything = np.sort(np.concatenate(inputs))
        check_permutation(inputs, np.array_split(everything, 4))

    def test_unsorted_permutation_passes(self):
        inputs = self._inputs()
        check_permutation(inputs, list(reversed(inputs)))

    @pytest.mark.parametrize("in_order", [True, False])
    def test_one_changed_key_fails(self, in_order):
        inputs = self._inputs()
        everything = np.concatenate(inputs)
        out = np.sort(everything) if in_order else everything.copy()
        out[-1] += np.uint64(1)  # still in order when in_order
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation(inputs, [out])

    @pytest.mark.parametrize(
        "out", [[1.0, 2.0, np.nan], [np.nan, 2.0, 1.0]], ids=["last", "first"]
    )
    def test_nan_keys_fail(self, out):
        # NaN never equals NaN, so a NaN-bearing multiset never matches.
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation([np.array([2.0, np.nan, 1.0])], [np.array(out)])

    def test_structured_keys(self):
        dtype = np.dtype([("a", "<u4"), ("b", "<i8")])
        keys = np.array([(2, 1), (1, 5), (1, -3)], dtype=dtype)
        check_permutation([keys], [keys[::-1]])
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation([keys], [keys[[0, 0, 1]]])


class TestLoadBalance:
    def test_within_cap(self):
        check_load_balance([np.zeros(10), np.zeros(11)], eps=0.1)

    def test_violation(self):
        with pytest.raises(LoadBalanceError):
            check_load_balance([np.zeros(15), np.zeros(5)], eps=0.1)

    def test_explicit_total(self):
        check_load_balance([np.zeros(5), np.zeros(5)], eps=0.1, total_keys=100)

    def test_imbalance_metric(self):
        assert load_imbalance([np.zeros(10), np.zeros(10)]) == 1.0
        assert load_imbalance([np.zeros(30), np.zeros(10)]) == pytest.approx(1.5)
        assert load_imbalance([np.zeros(0)]) == 1.0


class TestVerifyAll:
    def test_full_pass(self):
        inputs = [np.array([3, 1]), np.array([4, 2])]
        outputs = [np.array([1, 2]), np.array([3, 4])]
        verify_sorted_output(inputs, outputs, eps=0.1)

    def test_eps_none_skips_balance(self):
        inputs = [np.array([1, 2, 3]), np.array([4])]
        outputs = [np.array([1, 2, 3]), np.array([4])]
        verify_sorted_output(inputs, outputs)  # imbalance 1.5, no check
