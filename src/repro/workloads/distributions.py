"""Parametric key distributions, distributed over ``p`` ranks.

Every generator returns ``p`` NumPy arrays of ``n_per`` keys each.  Keys are
drawn globally and dealt to ranks randomly (the paper's §2.1 model: evenly
sized but otherwise arbitrary local inputs), except for the structured
layouts (`nearly_sorted`, `reversed`) whose *placement* is the stress.

The continuous distributions intentionally span very different CDF shapes:
splitter-based algorithms that probe *key space* (classic histogram sort)
slow down as density concentrates, while sampling-based methods (HSS,
sample sort) are distribution-free — the contrast behind Fig 6.2.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.utils.rng import rng_or_default
from repro.workloads.registry import register_workload

__all__ = [
    "uniform_shards",
    "normal_shards",
    "exponential_shards",
    "lognormal_shards",
    "staircase_shards",
    "nearly_sorted_shards",
    "reversed_shards",
]

#: Span of integer key space used by default (keeps clear of int64 extremes
#: so dtype-sentinel splitter intervals stay safe).
KEY_SPAN = 2**62


def _deal(
    global_keys: np.ndarray, p: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffle and deal a global key array into ``p`` equal shards."""
    rng.shuffle(global_keys)
    return [chunk.copy() for chunk in np.array_split(global_keys, p)]


def _to_int_keys(values: np.ndarray) -> np.ndarray:
    """Map continuous values monotonically onto the integer key span.

    Rank order is preserved exactly (stable argsort double-inversion), so
    distribution shape carries over to integer keys without collisions
    dominating.
    """
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros(len(values), dtype=np.int64)
    scaled = (values - lo) / (hi - lo) * (KEY_SPAN - 1)
    return scaled.astype(np.int64)


@register_workload(
    "uniform",
    description="Uniform 62-bit integer keys — the benign baseline",
    paper_section="6.2",
)
def uniform_shards(
    p: int, n_per: int, rng: np.random.Generator | int | None = 0
) -> list[np.ndarray]:
    """Uniform 62-bit integer keys — the benign baseline workload."""
    rng = rng_or_default(rng)
    keys = rng.integers(0, KEY_SPAN, size=p * n_per, dtype=np.int64)
    return _deal(keys, p, rng)


@register_workload(
    "normal",
    description="Gaussian-density keys (mild central concentration)",
    paper_section="6.2",
)
def normal_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    sigma: float = 1.0,
) -> list[np.ndarray]:
    """Gaussian-density keys (mild central concentration)."""
    rng = rng_or_default(rng)
    keys = _to_int_keys(rng.normal(0.0, sigma, size=p * n_per))
    return _deal(keys, p, rng)


@register_workload(
    "exponential",
    description="Exponential-density keys (one-sided skew)",
    paper_section="6.2",
)
def exponential_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    scale: float = 1.0,
) -> list[np.ndarray]:
    """Exponential-density keys (one-sided skew)."""
    rng = rng_or_default(rng)
    keys = _to_int_keys(rng.exponential(scale, size=p * n_per))
    return _deal(keys, p, rng)


@register_workload(
    "lognormal",
    description="Log-normal keys — heavy tail, strong density concentration",
    paper_section="6.2",
)
def lognormal_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    sigma: float = 3.0,
) -> list[np.ndarray]:
    """Log-normal keys — heavy right tail, strong density concentration."""
    rng = rng_or_default(rng)
    keys = _to_int_keys(rng.lognormal(0.0, sigma, size=p * n_per))
    return _deal(keys, p, rng)


@register_workload(
    "staircase",
    description="Adversarial staircase: mass clusters at exponentially spread scales",
    paper_section="6.2",
)
def staircase_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    steps: int = 8,
    ratio: float = 1e6,
) -> list[np.ndarray]:
    """Adversarial staircase: clusters of mass at exponentially spread scales.

    Step ``t`` holds ``1/steps`` of the keys uniformly inside a window
    ``ratio``× narrower than the span between steps.  Key-space bisection
    needs ~``log2(ratio)`` extra rounds per step to focus in; sampling-based
    splitter determination is unaffected.
    """
    if steps < 1:
        raise WorkloadError(f"steps must be >= 1, got {steps}")
    rng = rng_or_default(rng)
    n = p * n_per
    step_of = rng.integers(0, steps, size=n)
    base = (KEY_SPAN // (steps + 1)) * (step_of + 1)
    width = max(2, int(KEY_SPAN / (steps + 1) / ratio))
    keys = base + rng.integers(0, width, size=n)
    return _deal(keys.astype(np.int64), p, rng)


@register_workload(
    "nearly-sorted",
    description="Already-sorted placement with a sprinkling of out-of-place keys",
    paper_section="6.2",
)
def nearly_sorted_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    swap_fraction: float = 0.01,
) -> list[np.ndarray]:
    """Already-sorted placement with a sprinkling of out-of-place keys.

    Shard ``k`` holds (mostly) the ``k``-th quantile of the key space — the
    "nothing should move" best case that also exercises empty-message paths
    in the all-to-all.
    """
    rng = rng_or_default(rng)
    n = p * n_per
    keys = np.sort(rng.integers(0, KEY_SPAN, size=n, dtype=np.int64))
    nswap = int(swap_fraction * n)
    if nswap:
        a = rng.integers(0, n, size=nswap)
        b = rng.integers(0, n, size=nswap)
        keys[a], keys[b] = keys[b], keys[a]
    return [chunk.copy() for chunk in np.array_split(keys, p)]


@register_workload(
    "reversed",
    description="Globally descending placement — every key crosses the machine",
    paper_section="6.2",
)
def reversed_shards(
    p: int, n_per: int, rng: np.random.Generator | int | None = 0
) -> list[np.ndarray]:
    """Globally descending placement — every key must cross the machine."""
    rng = rng_or_default(rng)
    keys = np.sort(rng.integers(0, KEY_SPAN, size=p * n_per, dtype=np.int64))[::-1]
    return [chunk.copy() for chunk in np.array_split(keys, p)]
