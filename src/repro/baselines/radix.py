"""Distributed LSD radix sort (§4.2).

Keys are routed by successive digit groups, least-significant first; every
pass performs a full personalized all-to-all — the ``Θ(b/log p)`` rounds of
complete data movement that the paper gives as radix sort's scalability
problem (besides being restricted to integer keys).  Each pass is *stable*
(ranks partition their current data in order; receivers concatenate source
runs in rank order), so after the most-significant pass the data is globally
sorted.

Digits are ``⌊log₂ p⌋`` bits wide so the ``2^b`` digit values map onto the
``p`` processors one-to-one per pass; ``key_bits`` is detected from the
data by default (a global max-reduction), so small key ranges take few
passes — benchmark configs can force the full 64-bit behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.bsp.engine import Context
from repro.core.data_movement import _sort_keys
from repro.errors import ConfigError

__all__ = ["RadixConfig", "RadixStats", "radix_sort_program"]


@dataclass(frozen=True)
class RadixConfig:
    """Typed knobs for distributed LSD radix sort (integer keys only)."""

    #: Significant bits to process; None = detected from the data (a
    #: global max/min reduction).  Benchmarks force 64 for worst-case runs.
    key_bits: int | None = None


@dataclass
class RadixStats:
    """Pass count and movement accounting for a radix run."""

    passes: int
    bits_per_pass: int
    key_bits: int


def _to_unsigned(keys: np.ndarray) -> tuple[np.ndarray, bool]:
    """Map signed integers to order-preserving unsigned (flip the sign bit)."""
    if keys.dtype.kind == "u":
        return keys, False
    if keys.dtype.kind != "i":
        raise ConfigError(
            f"radix sort needs integer keys, got dtype {keys.dtype}"
        )
    bits = keys.dtype.itemsize * 8
    unsigned = keys.astype(np.dtype(f"uint{bits}"))
    return unsigned ^ np.uint64(1 << (bits - 1)).astype(unsigned.dtype), True


def _from_unsigned(keys: np.ndarray, was_signed: bool, dtype: np.dtype) -> np.ndarray:
    if not was_signed:
        return keys.astype(dtype, copy=False)
    bits = dtype.itemsize * 8
    return (keys ^ np.uint64(1 << (bits - 1)).astype(keys.dtype)).astype(dtype)


@register_algorithm(
    name="radix",
    config_cls=RadixConfig,
    balanced=False,
    duplicate_tolerant=True,
    paper_section="4.2",
    description="parallel LSD radix sort (integer keys, full data movement)",
)
def radix_sort_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    eps: float = 0.05,
    seed: int = 0,
    key_bits: int | None = None,
) -> Generator:
    """SPMD LSD radix sort; returns ``(np.ndarray, RadixStats)``.

    ``key_bits`` limits the digit passes (default: detected from the global
    maximum key — the number of significant bits actually present).
    """
    del eps, seed  # radix is deterministic; balance is input-determined
    p = ctx.nprocs
    dtype = keys.dtype
    work, was_signed = _to_unsigned(keys)

    if p == 1:
        out = _sort_keys(work)
        ctx.charge_sort(len(out), key_bytes=dtype.itemsize)
        return _from_unsigned(out, was_signed, dtype), RadixStats(0, 0, 0)

    bits_per_pass = max(1, int(np.log2(p)))
    if (1 << bits_per_pass) > p:
        bits_per_pass -= 1
    nbuckets = 1 << bits_per_pass

    max_bits = dtype.itemsize * 8
    if key_bits is None:
        # Only bits where keys actually differ need processing: bits above
        # bit_length(max XOR min) are constant across the input, and a pass
        # over a constant digit would route every key to one rank.
        local_max = work.max() if len(work) else work.dtype.type(0)
        local_min = work.min() if len(work) else ~work.dtype.type(0)
        global_max = yield from ctx.allreduce(local_max, op="max")
        global_min = yield from ctx.allreduce(local_min, op="min")
        key_bits = max(1, (int(global_max) ^ int(global_min)).bit_length())
    key_bits = min(key_bits, max_bits)
    passes = -(-key_bits // bits_per_pass)

    with ctx.phase("radix passes"):
        shift = 0
        for _ in range(passes):
            digits = (work >> work.dtype.type(shift)) & work.dtype.type(
                nbuckets - 1
            )
            # Stable partition by digit: counting sort order.
            order = np.argsort(digits, kind="stable")
            work = work[order]
            ctx.charge_sort(len(work), key_bytes=dtype.itemsize)
            # Digit d goes to rank d (nbuckets <= p); ranks past the last
            # digit receive nothing.
            counts = np.bincount(digits.astype(np.intp), minlength=p)
            (work,) = yield from ctx.alltoallv(counts, work)
            ctx.charge_bytes(len(work) * dtype.itemsize)
            shift += bits_per_pass

    return (
        _from_unsigned(work, was_signed, dtype),
        RadixStats(passes=passes, bits_per_pass=bits_per_pass, key_bits=key_bits),
    )
