"""Tests for output verification predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Dataset
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


class TestVerifyComparesShardsInPlace:
    """``verify_sorted_output`` compares each shard with its slice of the
    sorted inputs; every verdict and message is ``check_permutation``'s."""

    INPUTS = [np.array([3, 1, 4]), np.array([2, 6, 5])]
    EMPTY = np.array([], dtype=np.int64)
    PERMUTATION = "output keys are not a permutation of the input"

    @pytest.mark.parametrize(
        "inputs, outputs, message",
        [
            (INPUTS, [np.array([1, 2, 3]), np.array([4, 5])],
             "key count changed: 6 in, 5 out"),
            (INPUTS, [np.array([1, 2, 2]), np.array([4, 5, 6])], PERMUTATION),
            (INPUTS, [EMPTY, np.array([1, 2, 3]), EMPTY, np.array([4, 5, 7])],
             PERMUTATION),
            ([np.array([2.0, np.nan, 1.0])],
             [np.array([1.0]), np.array([2.0, np.nan])], PERMUTATION),
            ([np.array([2.0, np.nan, 1.0])],
             [np.array([np.nan, 1.0]), np.array([2.0])], PERMUTATION),
        ],
        ids=["count", "duplicate", "empty-shards", "nan-last", "nan-first"],
    )
    def test_permutation_verdicts(self, inputs, outputs, message):
        for check in (verify_sorted_output, check_permutation):
            with pytest.raises(VerificationError) as err:
                check(inputs, outputs)
            assert str(err.value) == message

    def test_swap_across_a_shard_boundary(self):
        outputs = [np.array([1, 2, 4]), np.array([3, 5, 6])]
        with pytest.raises(VerificationError) as err:
            verify_sorted_output(self.INPUTS, outputs)
        assert str(err.value) == (
            "shard 1 starts below the previous shard's maximum "
            f"({np.int64(3)!r} < {np.int64(4)!r})"
        )
        check_permutation(self.INPUTS, outputs)  # the same multiset

    @pytest.mark.parametrize(
        "outputs",
        [
            [EMPTY, np.array([1, 2, 3]), EMPTY, np.array([4, 5, 6])],
            [np.array([1, 2, 3, 4, 5, 6]), EMPTY, EMPTY],
            [EMPTY, EMPTY],
        ],
        ids=["interleaved", "trailing", "no-keys"],
    )
    def test_empty_shards_pass(self, outputs):
        inputs = self.INPUTS if sum(map(len, outputs)) else [self.EMPTY]
        verify_sorted_output(inputs, outputs)
        check_permutation(inputs, outputs)

    def test_outputs_are_not_concatenated(self, monkeypatch):
        inputs = self.INPUTS
        outputs = [np.array([1, 2, 3]), np.array([4, 5, 6])]
        real = np.concatenate
        joined = []

        def counting(arrays, *args, **kwargs):
            arrays = list(arrays)
            joined.append(sum(len(a) for a in arrays))
            return real(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        verify_sorted_output(inputs, outputs)
        assert joined == [6]  # the inputs, once
        check_permutation(inputs, outputs)
        assert joined == [6, 6, 6]  # check_permutation also joins outputs

    def test_structured_keys_keep_the_sort_path(self):
        dtype = np.dtype([("a", "<u4"), ("b", "<i8")])
        keys = np.array([(2, 1), (1, 5), (1, -3)], dtype=dtype)
        check_permutation([keys], [keys[:1], keys[1:][::-1]])
        with pytest.raises(VerificationError) as err:
            check_permutation([keys], [keys[[0, 0]], keys[1:2]])
        assert str(err.value) == self.PERMUTATION

    def test_check_permutation_alone_sorts_unsorted_outputs(self):
        rng = np.random.default_rng(7)
        inputs = [rng.integers(0, 50, 40) for _ in range(3)]
        shuffled = rng.permutation(np.concatenate(inputs))
        check_permutation(inputs, np.array_split(shuffled, 5))
        shuffled[0] = 99  # out of the input range: a changed key
        with pytest.raises(VerificationError, match="permutation"):
            check_permutation(inputs, np.array_split(shuffled, 5))


# --------------------------------------------------------------------- #
# verify_sorted_output against the composed public checks


def _composed(inputs, outputs, eps):
    """What ``check_globally_sorted`` + ``check_permutation`` +
    ``check_load_balance`` raise in turn, as ``(type, message)``."""
    try:
        check_globally_sorted(outputs)
        check_permutation(inputs, outputs)
        if eps is not None:
            total = sum(len(x) for x in inputs)
            check_load_balance(outputs, eps, total_keys=total)
    except VerificationError as exc:
        return type(exc), str(exc)
    return None


def _verdict(inputs, outputs, eps, **memo):
    try:
        verify_sorted_output(inputs, outputs, eps, **memo)
    except VerificationError as exc:
        return type(exc), str(exc)
    return None


CORRUPTIONS = (
    "none", "swap", "drop", "duplicate", "nan", "unsorted", "extra", "changed",
)


@st.composite
def verify_cases(draw):
    """Inputs plus outputs: sorted shards, then at most one corruption."""
    p = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(0, 12), min_size=p, max_size=p))
    corruption = draw(st.sampled_from(CORRUPTIONS))
    dtype = np.float64 if corruption == "nan" or draw(st.booleans()) else np.int64
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    high = draw(st.sampled_from([3, 1000]))  # few or many duplicates
    inputs = [rng.integers(0, high, n).astype(dtype) for n in sizes]
    flat = np.sort(np.concatenate(inputs))
    n = len(flat)
    if n and corruption in ("swap", "duplicate", "nan", "changed"):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if corruption == "swap":
            flat[[i, j]] = flat[[j, i]]
        elif corruption == "duplicate":
            flat[i] = flat[j]
        elif corruption == "nan":
            flat[i] = np.nan
        else:
            flat[i] += 1
    elif n and corruption == "drop":
        flat = np.delete(flat, int(rng.integers(0, n)))
    elif corruption == "extra":
        flat = np.sort(np.append(flat, flat[-1] if n else 0))
    cuts = np.sort(rng.integers(0, len(flat) + 1, draw(st.integers(0, 5))))
    outputs = np.split(flat, cuts)
    if corruption == "unsorted":
        k = int(np.argmax([len(o) for o in outputs]))
        outputs[k] = outputs[k][::-1].copy()
    eps = draw(st.sampled_from([None, 0.1, 1.0]))
    return inputs, outputs, eps


@given(verify_cases())
@settings(max_examples=300, deadline=None)
def test_verdicts_equal_the_composed_checks(case):
    inputs, outputs, eps = case
    expected = _composed(inputs, outputs, eps)
    memo = Dataset.from_arrays(inputs).sorted_keys
    assert _verdict(inputs, outputs, eps) == expected
    assert _verdict(inputs, outputs, eps, sorted_inputs=memo) == expected
    assert _verdict(
        inputs, outputs, eps, sorted_inputs=lambda: memo
    ) == expected


def test_memo_accessor_called_once_and_only_on_matching_counts():
    inputs = [np.array([3, 1]), np.array([2])]
    calls = []

    def memo():
        calls.append(1)
        return np.array([1, 2, 3])

    verify_sorted_output(inputs, [np.array([1, 2]), np.array([3])],
                         sorted_inputs=memo)
    assert calls == [1]
    with pytest.raises(VerificationError, match="key count changed"):
        verify_sorted_output(inputs, [np.array([1, 2])], sorted_inputs=memo)
    assert calls == [1]


def test_matching_memo_skips_the_order_scan(monkeypatch):
    """Outputs equal to the memo's slices are sorted: no separate scan."""
    import repro.metrics.verify as verify

    scans = []
    monkeypatch.setattr(
        verify, "check_globally_sorted", lambda shards: scans.append(1)
    )
    inputs = [np.array([3, 1]), np.array([2, 0])]
    memo = np.array([0, 1, 2, 3])
    outputs = [np.array([0, 1]), np.array([2, 3])]
    verify.verify_sorted_output(inputs, outputs, sorted_inputs=memo)
    assert scans == []
    with pytest.raises(VerificationError, match="permutation"):
        verify.verify_sorted_output(
            inputs, [np.array([0, 1]), np.array([2, 4])], sorted_inputs=memo
        )
    assert scans == [1]
