"""Superstep traces and phase breakdowns.

Each BSP superstep (all computation since the previous rendezvous plus one
collective) is recorded as a :class:`SuperstepRecord`.  Aggregating records by
their *phase label* reproduces the stacked-bar structure of the paper's
Figure 6.1 (local sort / histogramming / data exchange).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["SuperstepRecord", "Trace", "PhaseBreakdown"]


@dataclass(frozen=True)
class SuperstepRecord:
    """One rendezvous of the simulated machine.

    ``compute_by_phase`` is the *critical-path* computation accumulated since
    the previous rendezvous (taken from the slowest rank — BSP supersteps wait
    for the slowest processor), split by the phase labels under which it was
    charged.  ``comm_seconds`` is the modeled cost of the collective that
    ended the superstep, attributed to ``phase`` — the label active at the
    collective call site.
    """

    index: int
    op: str
    phase: str
    compute_by_phase: dict[str, float]
    comm_seconds: float
    nbytes: int
    messages: int
    endpoints: int

    @property
    def compute_seconds(self) -> float:
        return sum(self.compute_by_phase.values())

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds


@dataclass
class PhaseBreakdown:
    """Seconds spent per phase, split into compute and communication."""

    compute: dict[str, float] = field(default_factory=dict)
    comm: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, compute: float, comm: float) -> None:
        self.compute[phase] = self.compute.get(phase, 0.0) + compute
        self.comm[phase] = self.comm.get(phase, 0.0) + comm

    def phases(self) -> list[str]:
        seen: dict[str, None] = {}
        for key in list(self.compute) + list(self.comm):
            seen.setdefault(key)
        return list(seen)

    def total(self, phase: str | None = None) -> float:
        """Total seconds, overall or for one phase."""
        if phase is not None:
            return self.compute.get(phase, 0.0) + self.comm.get(phase, 0.0)
        return sum(self.compute.values()) + sum(self.comm.values())

    def merged(self, other: "PhaseBreakdown") -> "PhaseBreakdown":
        out = PhaseBreakdown(dict(self.compute), dict(self.comm))
        for phase in other.phases():
            out.add(phase, other.compute.get(phase, 0.0), other.comm.get(phase, 0.0))
        return out

    def table(self) -> str:
        """Render as an aligned text table (used by benchmark harnesses)."""
        rows = [("phase", "compute (s)", "comm (s)", "total (s)")]
        for phase in self.phases():
            rows.append(
                (
                    phase,
                    f"{self.compute.get(phase, 0.0):.6f}",
                    f"{self.comm.get(phase, 0.0):.6f}",
                    f"{self.total(phase):.6f}",
                )
            )
        rows.append(("TOTAL", "", "", f"{self.total():.6f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        return "\n".join(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        )


class Trace:
    """Ordered collection of superstep records for one engine run."""

    def __init__(self) -> None:
        self.records: list[SuperstepRecord] = []

    def append(self, record: SuperstepRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterable[SuperstepRecord]:
        return iter(self.records)

    @property
    def makespan(self) -> float:
        """Modeled end-to-end execution time in seconds."""
        return sum(r.total_seconds for r in self.records)

    def breakdown(self) -> PhaseBreakdown:
        """Aggregate compute/comm seconds by phase label."""
        out = PhaseBreakdown()
        for r in self.records:
            out.add(r.phase, 0.0, r.comm_seconds)
            for phase, seconds in r.compute_by_phase.items():
                out.add(phase, seconds, 0.0)
        return out

    def count_collectives(self, op: str | None = None) -> int:
        """Number of collectives executed (optionally of one kind)."""
        if op is None:
            return sum(1 for r in self.records if r.op != "__final__")
        return sum(1 for r in self.records if r.op == op)

    def total_bytes(self) -> int:
        """Total bytes moved over the simulated network."""
        return sum(r.nbytes for r in self.records)

    def total_messages(self) -> int:
        """Total network messages injected."""
        return sum(r.messages for r in self.records)
