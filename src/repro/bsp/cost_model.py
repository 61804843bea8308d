"""BSP cost model: prices every collective with the paper's Chapter-5 formulas.

The paper evaluates both *binomial-tree* and *pipelined* collective
algorithms (citing Pjesivac-Grbovic et al. and Thakur & Gropp):

====================  =============================  ==========================
collective            binomial                       pipelined
====================  =============================  ==========================
broadcast(S)          ``(α + Sβ)·log₂p``             ``α·log₂p + 2Sβ``
reduce(S)             ``(α + Sβ + Sγ)·log₂p``        ``α·log₂p + 2Sβ + Sγ``
gather/scatter(T)     —                              ``α·log₂p + Tβ``
all-to-all-v(V)       pairwise: ``α(e−1) + Vβc``     Bruck: ``α⌈log₂e⌉ + (V/2)β·log₂e·c``
====================  =============================  ==========================

``S`` = message bytes, ``T`` = total gathered bytes, ``V`` = max per-endpoint
send+receive volume, ``e`` = number of network endpoints (nodes when the
§6.1.1 message-combining optimization is on, cores otherwise), ``c`` = the
topology's all-to-all contention factor.  Where two algorithms exist the model
takes the cheaper one, which is what a tuned MPI/Charm++ runtime does.

The model also counts messages and bytes so experiments can report, e.g., the
``~cores²`` message-reduction factor of node combining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bsp.node import NodeLayout

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machines import MachineSpec

__all__ = ["CollectiveCost", "CommStats", "CostModel"]


@dataclass(frozen=True)
class CollectiveCost:
    """Priced outcome of one collective superstep."""

    comm_seconds: float
    compute_seconds: float
    nbytes: int
    messages: int
    endpoints: int
    algorithm: str


@dataclass
class CommStats:
    """Running totals of simulated network activity."""

    collectives: int = 0
    messages: int = 0
    bytes: int = 0
    comm_seconds: float = 0.0
    by_op: dict[str, int] = field(default_factory=dict)

    def record(self, op: str, cost: CollectiveCost) -> None:
        self.collectives += 1
        self.messages += cost.messages
        self.bytes += cost.nbytes
        self.comm_seconds += cost.comm_seconds
        self.by_op[op] = self.by_op.get(op, 0) + 1


def _log2p(p: int) -> float:
    return math.log2(max(2, p))


class CostModel:
    """Prices collectives for a given machine and (optional) node layout."""

    def __init__(
        self,
        machine: MachineSpec,
        nprocs: int,
        node_layout: NodeLayout | None = None,
    ) -> None:
        self.machine = machine
        #: Pricing view with every "0 means inherit" fallback applied
        #: (:meth:`MachineSpec.resolved` — the one place those rules live).
        self._m = machine.resolved()
        self.nprocs = nprocs
        self.node_layout = node_layout

    # ------------------------------------------------------------------ #
    def endpoints(self, node_combining: bool) -> int:
        """Network endpoints participating in a collective."""
        if node_combining and self.node_layout is not None:
            return self.node_layout.nnodes
        return self.nprocs

    # ------------------------------------------------------------------ #
    def price(
        self,
        op: str,
        *,
        max_bytes: int,
        total_bytes: int,
        node_combining: bool = False,
        scope: str = "global",
        group_size: int | None = None,
    ) -> CollectiveCost:
        """Price one collective.

        Parameters
        ----------
        op:
            Collective name (``'bcast'``, ``'gather'``, ``'alltoallv'``, ...).
        max_bytes:
            Largest per-rank payload (``S`` or ``V`` in the table above).
        total_bytes:
            Sum of all payload bytes (``T``); drives rooted collectives and
            byte accounting.
        node_combining:
            Price the op as if per-node message combining were applied.
        scope:
            ``'global'`` — over the interconnect; ``'node'`` — intra-node
            shared memory (§6.1.1): memcpy-rate bandwidth, negligible
            latency, no topology contention, and zero *network* messages.
        group_size:
            Participant count for node-scoped collectives.
        """
        m = self._m
        if scope == "node":
            if group_size is None:
                raise ValueError("node-scoped pricing needs group_size")
            e = max(1, group_size)
            a, b = m.node_alpha, m.gamma_byte
        elif scope == "global":
            e = self.endpoints(node_combining)
            a, b = m.alpha, m.beta
        else:
            raise ValueError(f"unknown scope {scope!r}")
        lg = _log2p(e)
        S, T = float(max_bytes), float(total_bytes)

        cost = self._price_formulas(op, a, b, e, lg, S, T, scope)
        if scope == "node":
            # Intra-node traffic never reaches the network: report zero
            # network messages/bytes while keeping the modeled time.
            cost = CollectiveCost(
                cost.comm_seconds,
                cost.compute_seconds,
                0,
                0,
                e,
                "shared-memory",
            )
        return cost

    def _price_formulas(
        self,
        op: str,
        a: float,
        b: float,
        e: int,
        lg: float,
        S: float,
        T: float,
        scope: str,
    ) -> CollectiveCost:
        m = self._m

        if op == "barrier":
            return CollectiveCost(a * lg, 0.0, 0, 2 * (e - 1), e, "tree")

        if op in ("bcast", "probe_bcast"):
            binomial = (a + S * b) * lg
            pipelined = a * lg + 2 * S * b
            comm, algo = min((binomial, "binomial"), (pipelined, "pipelined"))
            return CollectiveCost(comm, 0.0, int(S) * (e - 1), e - 1, e, algo)

        if op in ("reduce", "histogram_reduce"):
            binomial = (a + S * b) * lg
            pipelined = a * lg + 2 * S * b
            comm, algo = min((binomial, "binomial"), (pipelined, "pipelined"))
            compute = S * m.gamma_byte * (lg if algo == "binomial" else 1.0)
            return CollectiveCost(comm, compute, int(S) * (e - 1), e - 1, e, algo)

        if op == "allreduce":
            comm = 2.0 * (a * lg + 2 * S * b)
            compute = S * m.gamma_byte
            return CollectiveCost(
                comm, compute, 2 * int(S) * (e - 1), 2 * (e - 1), e, "pipelined"
            )

        if op in ("gather", "gatherv", "scatter", "scatterv", "sample_gather"):
            comm = a * lg + T * b
            return CollectiveCost(comm, 0.0, int(T), e - 1, e, "pipelined-tree")

        if op in ("allgather", "allgatherv"):
            # Ring allgather: e-1 steps, each forwarding one block.
            ring = a * (e - 1) + T * b
            tree = a * lg + T * b * 2
            comm, algo = min((ring, "ring"), (tree, "bcast-tree"))
            return CollectiveCost(comm, 0.0, int(T) * 2, 2 * (e - 1), e, algo)

        if op == "scan":
            comm = a * lg + S * b * lg
            compute = S * m.gamma_byte * lg
            return CollectiveCost(comm, compute, int(S) * (e - 1), e - 1, e, "tree")

        if op == "alltoallv":
            c = 1.0 if scope == "node" else m.network.alltoall_contention(e)
            pairwise = a * max(1, e - 1) + S * b * c
            bruck = a * math.ceil(_log2p(e)) + (S / 2.0) * b * _log2p(e) * c
            comm, algo = min((pairwise, "pairwise"), (bruck, "bruck"))
            messages = (
                e * (e - 1)
                if algo == "pairwise"
                else e * math.ceil(_log2p(e))
            )
            # Local bucket copy in/out of the network buffers.
            compute = 2.0 * S * m.gamma_byte
            return CollectiveCost(comm, compute, int(T), messages, e, algo)

        if op == "exchange":
            # Symmetric pairwise exchange between partner ranks.
            comm = a + S * b
            return CollectiveCost(comm, 0.0, int(T), e, e, "pairwise")

        raise ValueError(f"unknown collective op: {op!r}")
