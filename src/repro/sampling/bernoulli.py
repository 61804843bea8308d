"""Bernoulli (binomial-trial) sampling — the paper's Sampling Method 1.

    *"Every key in G is independently chosen to be a part of the sample with
    probability ps/N, where we refer to s as the sampling ratio."*

Two entry points: :func:`bernoulli_sample` draws from an entire local array,
:func:`bernoulli_sample_in_intervals` restricts the candidate set ``G`` to the
union of the current splitter intervals (HSS rounds ≥ 2), which is where the
sample-size savings of multi-round HSS come from.  Both reduce to
:func:`sample_ranges`, the one index-range sampler (the tagged key space of
§4.3 uses it too).

Cost: two array ``searchsorted`` calls find every range, O(#intervals ·
log n); each non-empty range then costs one ``binomial`` and one ``choice``
draw, O(sample size) except when ``choice`` takes a large share of a range.

Endpoint dtype rule: endpoints are cast to the key dtype before searching,
so they must be exactly representable in it (HSS's always are: they are
keys).  A Python ``int`` searched against ``uint64`` keys would promote to
float64, copying the whole array per search and misplacing endpoints above
2**53.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "bernoulli_sample",
    "bernoulli_sample_in_intervals",
    "expected_total_sample",
    "sample_ranges",
]


def _clip(prob: float) -> float:
    return min(1.0, max(0.0, float(prob)))


def sample_ranges(
    starts: Sequence[int] | np.ndarray,
    stops: Sequence[int] | np.ndarray,
    prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bernoulli-sample positions from half-open index ranges.

    Every position in ``[starts[t], stops[t])`` is selected independently
    with probability ``prob`` (clipped to [0, 1]).  Ranges are drawn in
    order; each non-empty range costs one ``binomial`` and one ``choice``
    draw when ``0 < prob < 1`` and none otherwise, so the RNG stream depends
    only on the range widths.  Returns ``int64`` positions, ascending within
    each range, ranges concatenated in order.
    """
    prob = _clip(prob)
    picks: list[np.ndarray] = []
    if prob > 0.0:
        for start, stop in zip(
            np.asarray(starts).tolist(), np.asarray(stops).tolist()
        ):
            width = stop - start
            if width <= 0:
                continue
            if prob >= 1.0:
                picks.append(np.arange(start, stop, dtype=np.int64))
                continue
            # Drawing the count first (binomial) then positions is
            # equivalent to ``width`` independent coin flips but touches
            # O(count) memory instead of O(width).
            count = rng.binomial(width, prob)
            if count == 0:
                continue
            idx = rng.choice(width, size=count, replace=False)
            idx.sort()
            picks.append(idx + start)
    if not picks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(picks)


def bernoulli_sample(
    keys: np.ndarray, prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Select each key independently with probability ``prob``.

    Parameters
    ----------
    keys:
        Local keys (any order, any dtype).
    prob:
        Inclusion probability ``p·s/N``; clipped to [0, 1].
    rng:
        Source of randomness (rank-local, seeded).

    Returns
    -------
    The selected keys, in their original relative order.
    """
    return keys[sample_ranges([0], [len(keys)], prob, rng)]


def bernoulli_sample_in_intervals(
    sorted_keys: np.ndarray,
    intervals: Sequence[tuple],
    prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bernoulli-sample only keys falling in the union of key intervals.

    ``intervals`` is a sequence of ``(lo, hi)`` *closed* key intervals whose
    endpoints are exactly representable in ``sorted_keys.dtype`` (see the
    module docstring).  Interval endpoints are usually keys whose global
    rank is already known from a previous histogramming round; including
    them is harmless (their rank is simply re-derived) and closed semantics
    keep the first round correct when the endpoints are dtype-extreme
    sentinels (e.g. 0 for unsigned keys).

    ``sorted_keys`` must be ascending (the HSS local input is sorted before
    splitter determination starts, as in the paper's implementation).
    """
    bounds = np.array(intervals, dtype=sorted_keys.dtype).reshape(-1, 2)
    starts = np.searchsorted(sorted_keys, bounds[:, 0], side="left")
    stops = np.searchsorted(sorted_keys, bounds[:, 1], side="right")
    return sorted_keys[sample_ranges(starts, stops, prob, rng)]


def expected_total_sample(total_keys: int, prob: float) -> float:
    """Expected overall sample size across all processors: ``|G| · prob``."""
    return float(total_keys) * _clip(prob)
