"""Verification predicates for distributed sorted outputs."""

from __future__ import annotations

from typing import Sequence

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


def _sorted_inputs(
    inputs: Sequence[np.ndarray], outputs: Sequence[np.ndarray]
) -> np.ndarray | None:
    """All input keys in one sorted array; ``None`` when there are none.

    Raises first if the outputs hold a different number of keys.
    """
    total_in = sum(len(x) for x in inputs)
    total_out = sum(len(x) for x in outputs)
    if total_in != total_out:
        raise VerificationError(
            f"key count changed: {total_in} in, {total_out} out"
        )
    if total_in == 0:
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
    all_in = _sorted_inputs(inputs, outputs)
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


def verify_sorted_output(
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
    eps: float | None = None,
) -> None:
    """All three §2.1 checks in one call (eps=None skips load balance).

    Once :func:`check_globally_sorted` passes, the outputs in rank order
    are the sorted inputs, so each shard is compared with its slice of
    them where it lies: no concatenation, no second scan for order.  The
    verdicts are :func:`check_permutation`'s.
    """
    check_globally_sorted(outputs)
    all_in = _sorted_inputs(inputs, outputs)
    if all_in is not None:
        lo = 0
        for shard in outputs:
            hi = lo + len(shard)
            if not np.array_equal(all_in[lo:hi], shard):
                raise VerificationError(_NOT_A_PERMUTATION)
            lo = hi
    if eps is not None:
        check_load_balance(outputs, eps, total_keys=sum(len(x) for x in inputs))
