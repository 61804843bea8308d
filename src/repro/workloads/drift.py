"""Adversarial and time-evolving workload generators.

Three registered workloads stress what the static catalog cannot:

* ``drifting-mixture`` — a Gaussian bump sweeping across a uniform
  background, its position a function of the *timestep* (derived from
  the seed unless passed explicitly).  Consecutive timesteps change the
  distribution's **shape**, not just its scale, so the key sketch of
  :mod:`repro.service.fingerprint` moves across quantization cells and
  warm-started jobs must notice the drift.
* ``staircase-duplicates`` — the §6.2 staircase's exponentially spread
  steps, but each step holds only a handful of distinct values: the
  worst case for splitter determination (skew) and the §4.3 duplicate
  tagging machinery at the same time.
* ``changa-drift`` — a replayed multi-timestep ChaNGa-like trace: one
  Plummer halo that contracts and migrates between timesteps, as a
  gravitating system does between simulation steps.  Submitting the
  trace's timesteps as successive service jobs exercises the PR 7
  warm-start path under exactly the drift it will see in production.

The drifting generators share one convention: ``timestep`` defaults to
``seed % period`` when the workload is driven through surfaces that only
expose a seed (``Scenario``, the service, sweeps), and can be passed
explicitly when a caller replays a trace step by step.  Either way the
output is a pure function of ``(p, n_per, rng, timestep)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.utils.rng import rng_or_default
from repro.workloads.changa import (
    PARTICLE_SCHEMA,
    morton_keys_from_positions,
    plummer_positions,
)
from repro.workloads.distributions import KEY_SPAN, _deal, _to_int_keys
from repro.workloads.registry import register_workload

__all__ = [
    "drifting_mixture_shards",
    "staircase_duplicate_shards",
    "changa_drift_shards",
]


def _resolve_timestep(rng, timestep, period: int) -> int:
    """The trace position: explicit ``timestep`` wins, else seed-derived."""
    if period < 1:
        raise WorkloadError(f"period must be >= 1, got {period}")
    if timestep is not None:
        if timestep < 0:
            raise WorkloadError(f"timestep must be >= 0, got {timestep}")
        return int(timestep) % period
    if isinstance(rng, (int, np.integer)):
        return int(rng) % period
    return 0


@register_workload(
    "drifting-mixture",
    description="Time-evolving mixture: a Gaussian bump sweeps across a "
                "uniform background (timestep = seed mod period)",
    paper_section="6.2",
)
def drifting_mixture_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    timestep: int | None = None,
    period: int = 8,
    bump_weight: float = 0.6,
    bump_width: float = 0.02,
) -> list[np.ndarray]:
    """A drifting two-component mixture over the unit interval.

    ``bump_weight`` of the keys concentrate in a Gaussian bump of width
    ``bump_width`` whose center walks from 0.1 to 0.9 across the
    ``period`` timesteps; the rest are a uniform background.  The bump
    *moves*, so the shape (and every interior quantile) changes between
    timesteps — redrawing the same timestep with a fresh generator keeps
    the shape and only resamples it.
    """
    if not 0.0 <= bump_weight <= 1.0:
        raise WorkloadError(
            f"bump_weight must be in [0, 1], got {bump_weight}"
        )
    if bump_width <= 0.0:
        raise WorkloadError(f"bump_width must be > 0, got {bump_width}")
    step = _resolve_timestep(rng, timestep, period)
    rng = rng_or_default(rng)
    center = 0.1 + 0.8 * (step / period)
    n = p * n_per
    n_bump = int(bump_weight * n)
    values = np.concatenate([
        rng.random(n - n_bump),
        rng.normal(center, bump_width, size=n_bump),
    ])
    return _deal(_to_int_keys(values), p, rng)


@register_workload(
    "staircase-duplicates",
    description="Worst-case staircase whose steps each hold only a few "
                "distinct heavy-duplicate values",
    paper_section="4.3",
)
def staircase_duplicate_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    steps: int = 8,
    distinct_per_step: int = 4,
) -> list[np.ndarray]:
    """Staircase skew and heavy duplication composed.

    Like the §6.2 ``staircase``, mass clusters at ``steps`` exponentially
    spread scales — but inside each step the keys take only
    ``distinct_per_step`` distinct values, so roughly ``n / (steps *
    distinct_per_step)`` copies of every value.  Splitter candidates keep
    landing *on* duplicated keys, which is precisely the case the §4.3
    tagging machinery exists for.
    """
    if steps < 1:
        raise WorkloadError(f"steps must be >= 1, got {steps}")
    if distinct_per_step < 1:
        raise WorkloadError(
            f"distinct_per_step must be >= 1, got {distinct_per_step}"
        )
    rng = rng_or_default(rng)
    n = p * n_per
    step_of = rng.integers(0, steps, size=n)
    level = rng.integers(0, distinct_per_step, size=n)
    base = (KEY_SPAN // (steps + 1)) * (step_of + 1)
    keys = base + level
    return _deal(keys.astype(np.int64), p, rng)


@register_workload(
    "changa-drift",
    description="Replayed multi-timestep ChaNGa-like trace: the halo "
                "contracts and migrates between timesteps",
    paper_section="6.3",
    record_schema=PARTICLE_SCHEMA,
)
def changa_drift_shards(
    p: int,
    n_per: int,
    rng: np.random.Generator | int | None = 0,
    timestep: int | None = None,
    period: int = 8,
    halo_fraction: float = 0.85,
) -> list[np.ndarray]:
    """A gravitating halo replayed across simulation timesteps.

    Timestep ``t`` places a Plummer halo holding ``halo_fraction`` of the
    particles at a center migrating along the box diagonal while its
    scale radius contracts (collapse), over a uniform background.  Morton
    keys follow the moving density peak, so key-space shape drifts
    between timesteps exactly the way ChaNGa's per-step sorts see it.
    """
    if not 0.0 <= halo_fraction <= 1.0:
        raise WorkloadError(
            f"halo_fraction must be in [0, 1], got {halo_fraction}"
        )
    step = _resolve_timestep(rng, timestep, period)
    rng = rng_or_default(rng)
    frac = step / period
    center = (0.25 + 0.5 * frac,) * 3
    scale = 0.03 * (1.0 - 0.9 * frac) + 0.003
    n = p * n_per
    n_halo = int(halo_fraction * n)
    halo = plummer_positions(n_halo, rng, center=center, scale=scale)
    background = rng.random((n - n_halo, 3))
    keys = morton_keys_from_positions(halo, background)
    del halo, background
    return _deal(keys, p, rng)
