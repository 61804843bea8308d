"""Verification predicates for distributed sorted outputs."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import LoadBalanceError, VerificationError

__all__ = [
    "check_globally_sorted",
    "check_permutation",
    "check_load_balance",
    "verify_sorted_output",
    "load_imbalance",
]


def check_globally_sorted(shards: Sequence[np.ndarray]) -> None:
    """Raise unless shards form a global ascending order.

    Requires each shard sorted internally and every key on shard ``k`` to be
    ≥ the last key of the previous non-empty shard.
    """
    last = None
    for k, shard in enumerate(shards):
        if len(shard) == 0:
            continue
        if np.any(shard[1:] < shard[:-1]):
            raise VerificationError(f"shard {k} is not locally sorted")
        if last is not None and shard[0] < last:
            raise VerificationError(
                f"shard {k} starts below the previous shard's maximum "
                f"({shard[0]!r} < {last!r})"
            )
        last = shard[-1]


_NOT_A_PERMUTATION = "output keys are not a permutation of the input"


def _check_counts(
    inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]
) -> None:
    """Raise unless the outputs hold as many keys as the inputs."""
    total_in = sum(len(x) for x in inputs)
    total_out = sum(len(x) for x in outputs)
    if total_in != total_out:
        raise VerificationError(
            f"key count changed: {total_in} in, {total_out} out"
        )


def _sorted_inputs(inputs: Sequence[np.ndarray]) -> np.ndarray | None:
    """All input keys in one sorted array; ``None`` when there are none."""
    if not any(len(x) for x in inputs):
        return None
    # The concatenation is a fresh array: sort it in place, not a copy.
    all_in = np.concatenate([np.asarray(x) for x in inputs if len(x)])
    all_in.sort()
    return all_in


def check_permutation(
    inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]
) -> None:
    """Raise unless outputs are exactly the input multiset of keys.

    The concatenated outputs are sorted only when a linear scan finds them
    out of order.  The verdict is the same either way: any NaN fails, as
    ``array_equal`` never matches NaN.
    """
    _check_counts(inputs, outputs)
    all_in = _sorted_inputs(inputs)
    if all_in is None:
        return
    all_out = np.concatenate([np.asarray(x) for x in outputs if len(x)])
    # Structured dtypes have no ``<``; they always take the sort.
    if all_out.dtype.names is not None or np.any(all_out[1:] < all_out[:-1]):
        all_out = np.sort(all_out)
    if not np.array_equal(all_in, all_out):
        raise VerificationError(_NOT_A_PERMUTATION)


def load_imbalance(shards: Sequence[np.ndarray]) -> float:
    """The paper's load-imbalance metric: max load / average load."""
    loads = np.array([len(s) for s in shards], dtype=np.float64)
    if loads.sum() == 0:
        return 1.0
    return float(loads.max() / loads.mean())


def check_load_balance(
    shards: Sequence[np.ndarray], eps: float, *, total_keys: int | None = None
) -> None:
    """Raise unless every shard holds ≤ ``N(1+ε)/p`` keys."""
    p = len(shards)
    n = total_keys if total_keys is not None else sum(len(s) for s in shards)
    cap = (1.0 + eps) * n / p
    for k, shard in enumerate(shards):
        if len(shard) > cap:
            raise LoadBalanceError(
                f"shard {k} holds {len(shard)} keys > cap {cap:.1f} "
                f"(N={n}, p={p}, eps={eps})"
            )


def _matches_sorted(
    sorted_inputs: np.ndarray | None, outputs: Sequence[np.ndarray]
) -> bool:
    """Whether the outputs, in rank order, are exactly ``sorted_inputs``.

    The key counts must already match; ``None`` stands for no keys.
    Structured keys never match: :func:`check_globally_sorted` has no
    ``<`` for them, and only it may give their verdict.
    """
    lo = 0
    for shard in outputs:
        hi = lo + len(shard)
        if hi > lo and (
            np.asarray(shard).dtype.names is not None
            or not np.array_equal(sorted_inputs[lo:hi], shard)
        ):
            return False
        lo = hi
    return True


def verify_sorted_output(
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
    eps: float | None = None,
    *,
    sorted_inputs: np.ndarray | Callable[[], np.ndarray | None] | None = None,
) -> None:
    """All three §2.1 checks in one call (eps=None skips load balance).

    ``sorted_inputs`` is all input keys in one sorted array (``None`` when
    there are none), or a zero-argument callable returning it, called at
    most once and only when the key counts match.  Pass
    ``lambda: dataset.sorted_keys`` so that a
    :class:`~repro.algorithms.Dataset` sorted again and again sorts its
    keys once (:attr:`~repro.algorithms.Dataset.sorted_keys`).  Omitted,
    the inputs are concatenated and sorted here.

    When the key counts match and every output shard equals its slice of
    the sorted inputs, the outputs in rank order *are* the sorted inputs:
    globally sorted and a permutation, shown in one linear pass with no
    concatenation.  Any mismatch runs :func:`check_globally_sorted`, the
    key-count check and the slice comparison in that order, so every
    verdict and message is that of :func:`check_globally_sorted` followed
    by :func:`check_permutation`.  :func:`check_load_balance` comes last.

    >>> import numpy as np
    >>> inputs = [np.array([3, 1]), np.array([4, 2])]
    >>> verify_sorted_output(inputs, [np.array([1, 2]), np.array([3, 4])])
    >>> verify_sorted_output(inputs, [np.array([1, 2]), np.array([3, 5])])
    Traceback (most recent call last):
    ...
    repro.errors.VerificationError: output keys are not a permutation of the input
    """
    total_in = sum(len(x) for x in inputs)
    matched = False
    if total_in == sum(len(x) for x in outputs):
        if sorted_inputs is None:
            sorted_inputs = _sorted_inputs(inputs)
        elif callable(sorted_inputs):
            sorted_inputs = sorted_inputs()
        matched = _matches_sorted(sorted_inputs, outputs)
    if not matched:
        check_globally_sorted(outputs)
        _check_counts(inputs, outputs)
        raise VerificationError(_NOT_A_PERMUTATION)
    if eps is not None:
        check_load_balance(outputs, eps, total_keys=total_in)
