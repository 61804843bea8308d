"""repro.chaos — fault injection, adversarial workloads, jittered networks.

The paper's central claim is *robustness*: Histogram Sort with Sampling
keeps its splitting guarantees under skew, duplicates, and imperfect
information.  This subsystem makes the repo test that claim instead of
assuming it, by feeding the machinery adversarial inputs on all three
registry axes at once:

* **runtime** — :class:`~repro.chaos.backend.ChaosBackend` (spelled
  ``chaos:<inner>``, e.g. ``--backend chaos:process``) wraps any inner
  backend and applies a deterministic, seeded :class:`FaultPlan`:
  straggler delays, rank kills, and dropped-then-retried collectives.
  Fault metrics (slowdown vs fault-free, retries, injected delay) land
  in ``Measured.chaos``.
* **workloads** — :mod:`repro.chaos.workloads` registers drifting,
  duplicate-heavy, and multi-timestep trace generators that stress the
  splitter-cache/fingerprint path under distribution drift.
* **machines** — :mod:`repro.chaos.jitter` registers jittered fat-tree
  and dragonfly topologies whose per-link α–β factors vary
  deterministically with a jitter seed, so the network presets stop
  being deterministic best cases.

This module exports only the plan layer; the backend, workload, and
topology modules self-register when :mod:`repro.runtime`,
:mod:`repro.workloads`, and :mod:`repro.machines` import them (import
order matters — see each module's docstring).
"""

from repro.chaos.plan import (
    FAULT_PLANS,
    FaultPlan,
    make_fault_plan,
    register_fault_plan,
    resolve_fault_plan,
)

__all__ = [
    "FaultPlan",
    "FAULT_PLANS",
    "register_fault_plan",
    "make_fault_plan",
    "resolve_fault_plan",
]
