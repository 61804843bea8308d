"""repro.chaos — seeded fault plans and their injection into a run.

The paper's central claim is *robustness*: Histogram Sort with Sampling
keeps its splitting guarantees under skew, duplicates, and imperfect
information.  This subsystem makes the repo test that claim instead of
assuming it.  A :class:`FaultPlan` (registered in :data:`FAULT_PLANS`,
listed by ``repro chaos``) names deterministic, seeded faults —
straggler delays, rank kills, and dropped-then-retried collectives — and
:class:`~repro.chaos.backend.ChaosBackend` injects them into a run on any
transport.  A plan is requested on the run, never as a backend:
``Scenario(chaos=PLAN)``, ``--chaos PLAN`` or a job's ``scenario.chaos``.
Fault metrics (slowdown vs fault-free, retries, injected delay) land in
``Measured.chaos``.

The adversarial inputs that go with it live on their own axes: the
drifting and duplicate-heavy generators in :mod:`repro.workloads.drift`,
the jittered topologies in :mod:`repro.machines.jitter`.
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
