"""Small shared utilities: seeded RNG trees, bit tricks, validation helpers
and the :class:`Registry` every named plugin catalog is an instance of."""

from repro.utils.rng import RngTree, spawn_rngs
from repro.utils.bits import (
    interleave_bits_3d,
    deinterleave_bits_3d,
    morton_encode_3d,
    morton_decode_3d,
    part1by2,
    compact1by2,
)
from repro.utils.registry import Registry
from repro.utils.validation import (
    check_positive_int,
    check_probability,
    check_epsilon,
    require,
)

__all__ = [
    "RngTree",
    "spawn_rngs",
    "interleave_bits_3d",
    "deinterleave_bits_3d",
    "morton_encode_3d",
    "morton_decode_3d",
    "part1by2",
    "compact1by2",
    "check_positive_int",
    "check_probability",
    "check_epsilon",
    "require",
    "Registry",
]
