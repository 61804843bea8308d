"""Synthetic ChaNGa-like particle workloads (§6.3 substitute).

ChaNGa sorts particles by space-filling-curve key every simulation step; its
Dwarf and Lambb datasets are proprietary simulation snapshots we cannot
ship.  What the *sorting* algorithm sees, though, is only the key
distribution, and for tree codes that distribution is fully characterized
by: (a) strong spatial clustering (halos), (b) huge dynamic range, and
(c) Morton/Peano keys that map spatial density directly onto key-space
density.  We synthesize both regimes:

* :func:`dwarf_like_shards` — a single dominant Plummer-sphere halo plus a
  thin background: extreme central concentration (the "dwarf galaxy"
  snapshot regime).  Most keys collapse into a tiny fraction of key space.
* :func:`lambb_like_shards` — a cosmological-web analog: many halos with a
  power-law mass function, filaments connecting them, and a diffuse
  background (the "Lambda-CDM box" regime): multi-scale clustering.

Both map positions to 63-bit Morton keys with
:func:`repro.utils.bits.morton_encode_3d` and deal particles to ranks
randomly (ChaNGa's virtual processors are placed arbitrarily — §6.3).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.records import RecordSchema
from repro.utils.bits import morton_encode_3d
from repro.utils.rng import rng_or_default
from repro.workloads.distributions import _deal
from repro.workloads.registry import register_workload

#: The record layout a ChaNGa particle exchange actually moves: the Morton
#: key routes the particle, the payload columns ride along (24 payload
#: bytes; 32-byte records with the 8-byte key).
PARTICLE_SCHEMA = RecordSchema.from_mapping(
    {"mass": "f8", "vx": "f4", "vy": "f4", "vz": "f4", "id": "u4"}
)

__all__ = [
    "plummer_positions",
    "soneira_peebles_positions",
    "morton_keys_from_positions",
    "dwarf_like_shards",
    "lambb_like_shards",
    "fractal_dwarf_shards",
    "fractal_lambb_shards",
]


def plummer_positions(
    n: int,
    rng: np.random.Generator,
    *,
    center: tuple[float, float, float] = (0.5, 0.5, 0.5),
    scale: float = 0.01,
) -> np.ndarray:
    """Sample ``n`` positions from a Plummer sphere (standard halo model).

    Radius is drawn by inverting the Plummer cumulative mass profile
    ``M(r) ∝ r³/(r²+a²)^{3/2}``: ``r = a/√(u^{-2/3} − 1)``; directions are
    isotropic.  Positions are clipped into the unit box.
    """
    if n < 0:
        raise WorkloadError(f"n must be >= 0, got {n}")
    # In place throughout, columns written straight into the result: the
    # values and the draw order (u, cos θ, φ) are those of the plain
    # expressions in the docstring.
    r = rng.random(n)
    np.clip(r, 1e-12, 1 - 1e-12, out=r)
    np.power(r, -2.0 / 3.0, out=r)
    r -= 1.0
    np.sqrt(r, out=r)
    np.divide(scale, r, out=r)
    # Isotropic directions.
    xyz = np.empty((n, 3))
    cos_t = rng.uniform(-1.0, 1.0, n)
    np.multiply(r, cos_t, out=xyz[:, 2])
    np.square(cos_t, out=cos_t)
    np.subtract(1.0, cos_t, out=cos_t)
    np.sqrt(cos_t, out=cos_t)
    r *= cos_t  # r sin θ
    del cos_t
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    np.cos(phi, out=xyz[:, 0])
    np.sin(phi, out=xyz[:, 1])
    del phi
    xyz[:, 0] *= r
    xyz[:, 1] *= r
    xyz += np.asarray(center, dtype=np.float64)
    return np.clip(xyz, 0.0, 1.0, out=xyz)


def soneira_peebles_positions(
    n: int,
    rng: np.random.Generator,
    *,
    levels: int = 7,
    eta: int = 4,
    ratio: float = 0.4,
    center: tuple[float, float, float] = (0.5, 0.5, 0.5),
    size: float = 0.45,
) -> np.ndarray:
    """Hierarchically clustered positions (Soneira & Peebles 1978).

    The classic fractal galaxy-distribution model: starting from one sphere
    of radius ``size``, each level places ``eta`` child spheres of radius
    ``ratio`` times the parent's at random positions inside it; particles
    scatter inside the leaf spheres.  Real N-body snapshots are hierarchical
    like this (halos within halos within filaments), which is exactly what
    makes key-space bisection expensive: every zoom level re-exposes skew.
    A single-scale halo underestimates that cost — this model is the
    faithful substitute for Fig 6.2's datasets.

    ``eta**levels`` leaf clusters are materialized; keep ``levels ≤ 9`` for
    ``eta = 4``.
    """
    if n < 0:
        raise WorkloadError(f"n must be >= 0, got {n}")
    if levels < 1 or eta < 1:
        raise WorkloadError("levels and eta must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise WorkloadError(f"ratio must be in (0, 1), got {ratio}")
    if eta**levels > 2_000_000:
        raise WorkloadError(
            f"eta**levels = {eta**levels} leaf clusters is too many"
        )

    centers = np.asarray([center], dtype=np.float64)
    radius = size
    for _ in range(levels):
        child_r = radius * ratio
        # eta children per current center, uniformly inside the parent.
        dirs = rng.normal(size=(len(centers), eta, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        dist = (radius - child_r) * rng.random((len(centers), eta, 1)) ** (1 / 3)
        centers = (centers[:, None, :] + dirs * dist).reshape(-1, 3)
        radius = child_r

    leaf = rng.integers(0, len(centers), n)
    pts = centers[leaf]
    pts += rng.normal(0.0, radius / 2.0, size=(n, 3))
    return np.clip(pts, 0.0, 1.0, out=pts)


def _filament_positions(
    n: int,
    rng: np.random.Generator,
    a: np.ndarray,
    b: np.ndarray,
    thickness: float,
) -> np.ndarray:
    """Particles scattered around the segment ``a→b`` (a cosmic filament)."""
    t = rng.random((n, 1))
    pts = a + t * (b - a)
    pts += rng.normal(0.0, thickness, size=(n, 3))
    return np.clip(pts, 0.0, 1.0, out=pts)


#: Rows Morton-encoded at a time: bounds the encoder's temporaries.
_MORTON_CHUNK = 1 << 16


def morton_keys_from_positions(*blocks: np.ndarray) -> np.ndarray:
    """63-bit Morton keys for ``(m, 3)`` position arrays in the unit box.

    Several blocks are encoded as if stacked row-wise, without the stack.
    Rows go through the encoder in chunks, so its temporaries stay small
    whatever the input size.
    """
    blocks = tuple(np.asarray(b, dtype=np.float64) for b in blocks)
    for xyz in blocks:
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise WorkloadError(f"positions must be (n, 3), got {xyz.shape}")
    keys = np.empty(sum(len(b) for b in blocks), dtype=np.uint64)
    at = 0
    for xyz in blocks:
        for lo in range(0, len(xyz), _MORTON_CHUNK):
            part = xyz[lo:lo + _MORTON_CHUNK]
            keys[at:at + len(part)] = morton_encode_3d(
                part[:, 0], part[:, 1], part[:, 2]
            )
            at += len(part)
    return keys


@register_workload(
    "changa-dwarf",
    description="Single-halo particle Morton keys (extreme central concentration)",
    paper_section="6.3",
    record_schema=PARTICLE_SCHEMA,
)
def dwarf_like_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    *,
    halo_fraction: float = 0.9,
    halo_scale: float = 0.004,
) -> list[np.ndarray]:
    """Single-halo ("Dwarf") particle keys: extreme central concentration.

    ``halo_fraction`` of particles sit in one Plummer sphere of scale radius
    ``halo_scale`` (fraction of the box); the rest are a uniform background.
    With the defaults, ~90% of keys land in ≪1% of key space.
    """
    rng = rng_or_default(rng)
    n = p * n_per
    n_halo = int(halo_fraction * n)
    halo = plummer_positions(n_halo, rng, scale=halo_scale)
    background = rng.random((n - n_halo, 3))
    keys = morton_keys_from_positions(halo, background)
    del halo, background
    return _deal(keys, p, rng)


@register_workload(
    "changa-lambb",
    description="Cosmological-web particle Morton keys (multi-scale clustering)",
    paper_section="6.3",
    record_schema=PARTICLE_SCHEMA,
)
def lambb_like_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    *,
    nhalos: int = 48,
    halo_fraction: float = 0.6,
    filament_fraction: float = 0.25,
    mass_slope: float = 1.8,
) -> list[np.ndarray]:
    """Cosmological-web ("Lambb") particle keys: multi-scale clustering.

    ``nhalos`` Plummer halos with power-law masses (``∝ rank^{-mass_slope}``)
    hold ``halo_fraction`` of the particles; ``filament_fraction`` trace
    segments between nearby halos; the remainder is a diffuse background.
    """
    rng = rng_or_default(rng)
    if nhalos < 2:
        raise WorkloadError(f"nhalos must be >= 2, got {nhalos}")
    n = p * n_per
    n_halo = int(halo_fraction * n)
    n_fil = int(filament_fraction * n)
    n_bg = n - n_halo - n_fil

    centers = rng.random((nhalos, 3))
    masses = (np.arange(1, nhalos + 1, dtype=np.float64)) ** (-mass_slope)
    masses /= masses.sum()
    counts = rng.multinomial(n_halo, masses)
    scales = 0.002 + 0.02 * masses / masses.max()

    chunks: list[np.ndarray] = []
    for h in range(nhalos):
        if counts[h]:
            chunks.append(
                plummer_positions(
                    int(counts[h]),
                    rng,
                    center=tuple(centers[h]),
                    scale=float(scales[h]),
                )
            )

    # Filaments between each halo and its nearest more-massive neighbour.
    if n_fil:
        per_fil = np.full(nhalos - 1, n_fil // (nhalos - 1), dtype=np.int64)
        per_fil[: n_fil % (nhalos - 1)] += 1
        for h in range(1, nhalos):
            if per_fil[h - 1] == 0:
                continue
            d = np.linalg.norm(centers[:h] - centers[h], axis=1)
            mate = int(np.argmin(d))
            chunks.append(
                _filament_positions(
                    int(per_fil[h - 1]), rng, centers[h], centers[mate], 0.004
                )
            )

    if n_bg:
        chunks.append(rng.random((n_bg, 3)))

    keys = morton_keys_from_positions(*chunks)
    del chunks
    return _deal(keys, p, rng)


@register_workload(
    "fractal-dwarf",
    description="Fig 6.2 Dwarf analog: one deep Soneira-Peebles hierarchy",
    paper_section="6.2",
    record_schema=PARTICLE_SCHEMA,
)
def fractal_dwarf_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    *,
    levels: int = 9,
    cluster_fraction: float = 0.92,
) -> list[np.ndarray]:
    """Fig 6.2 "Dwarf" analog: one deep Soneira–Peebles hierarchy.

    ``levels = 9`` with ``ratio = 0.4`` spans a density contrast of
    ``(1/0.4³)⁹ ≈ 10¹²`` — the hierarchical-substructure regime of a real
    dwarf-galaxy snapshot, which is what Fig 6.2's "Old" histogram sort
    pays for round by round.
    """
    rng = rng_or_default(rng)
    n = p * n_per
    n_cluster = int(cluster_fraction * n)
    pts = soneira_peebles_positions(n_cluster, rng, levels=levels, eta=4, ratio=0.4)
    background = rng.random((n - n_cluster, 3))
    keys = morton_keys_from_positions(pts, background)
    del pts, background
    return _deal(keys, p, rng)


@register_workload(
    "fractal-lambb",
    description="Fig 6.2 Lambb analog: shallow hierarchies plus filaments",
    paper_section="6.2",
    record_schema=PARTICLE_SCHEMA,
)
def fractal_lambb_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    *,
    nclusters: int = 6,
    levels: int = 6,
) -> list[np.ndarray]:
    """Fig 6.2 "Lambb" analog: several shallower hierarchies + filaments.

    A cosmological box has many moderately deep structures rather than one
    very deep one, so its key distribution is *less* adversarial for
    key-space bisection than the dwarf's — the ordering Fig 6.2 shows.
    """
    rng = rng_or_default(rng)
    n = p * n_per
    n_cluster = int(0.62 * n)
    n_fil = int(0.18 * n)
    centers = rng.random((nclusters, 3))
    counts = rng.multinomial(n_cluster, np.full(nclusters, 1.0 / nclusters))
    chunks = [
        soneira_peebles_positions(
            int(c),
            rng,
            levels=levels,
            eta=4,
            ratio=0.42,
            center=tuple(centers[i]),
            size=0.12,
        )
        for i, c in enumerate(counts)
        if c
    ]
    per_fil = max(1, n_fil // max(1, nclusters - 1))
    for i in range(1, nclusters):
        chunks.append(
            _filament_positions(per_fil, rng, centers[i - 1], centers[i], 0.004)
        )
    placed = sum(len(c) for c in chunks)
    if n - placed > 0:
        chunks.append(rng.random((n - placed, 3)))
    keys = morton_keys_from_positions(*chunks)[:n]
    del chunks
    return _deal(keys, p, rng)
