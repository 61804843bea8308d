"""One cell of an experiment grid: algorithm x workload x machine x layout.

A :class:`Scenario` is fully described by names resolved through the three
plugin registries (algorithms, workloads, machines) plus scalar knobs — so
it serializes to a flat JSON object and validates *eagerly* at
construction, before any simulation runs.  :meth:`Scenario.run` executes
the cell through the standard :class:`~repro.algorithms.Sorter` plumbing
and returns the modeled metrics the benchmark suites record.  ``eps`` and
``seed`` are axes of every cell; an algorithm without that knob (bitonic,
radix) ignores them.

Examples
--------
>>> from repro.experiments import Scenario
>>> cell = Scenario(algorithm="hss", workload="uniform",
...                 machine="mira-like-bgq", procs=4, keys_per_rank=300)
>>> cell.name
'uniform/hss@mira-like-bgq/flat/p4'
>>> Scenario.from_dict(cell.to_dict()) == cell
True
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

from repro.errors import ConfigError

__all__ = ["Scenario", "LAYOUTS"]

#: How simulated ranks map onto the machine's nodes:
#: ``flat`` — one rank per network endpoint (cores_per_node forced to 1);
#: ``node`` — keep the machine's multicore structure (enables the §6.1
#: message-combining path for node-aware algorithms).
LAYOUTS = ("flat", "node")


@dataclass(frozen=True)
class Scenario:
    """One validated grid cell.

    All axes are registry *names*; resolution happens at :meth:`run` time,
    so a scenario built on one host means the same thing on another.
    """

    algorithm: str
    workload: str
    machine: str = "laptop"
    procs: int = 8
    keys_per_rank: int = 1_000
    eps: float = 0.05
    seed: int = 0
    layout: str = "flat"
    #: Execution backend (:mod:`repro.runtime` registry name).  Modeled
    #: metrics are bit-identical across backends; sweeping a non-default
    #: backend changes only the measured wall-clock provenance.
    backend: str = "simulated"
    #: Record payload columns for the cell: ``""`` (key-only, the
    #: default), a compact schema like ``"mass:f8,id:u4"`` (see
    #: :func:`repro.records.parse_schema`), or ``"workload"`` to use the
    #: workload's declared record schema.  Payload bytes flow into the
    #: cost model, so record-carrying cells price real record traffic.
    payloads: str = ""
    #: Fault plan for the cell: ``""`` (fault-free, the default) or a
    #: registered :mod:`repro.chaos` plan name — the plan is then
    #: injected into the run on :attr:`backend` and fault metrics
    #: (``chaos_slowdown``, ``chaos_retries``, ...) join the cell's
    #: modeled metrics.
    chaos: str = ""

    def __post_init__(self) -> None:
        from repro.algorithms import REGISTRY
        from repro.chaos import FAULT_PLANS
        from repro.machines import MACHINES
        from repro.runtime import BACKENDS
        from repro.workloads import WORKLOAD_SPECS

        # Each lookup raises the registry's ConfigError for unknown names.
        REGISTRY.get(self.algorithm)
        WORKLOAD_SPECS.get(self.workload)
        MACHINES.get(self.machine)
        if self.layout not in LAYOUTS:
            raise ConfigError(
                f"unknown layout {self.layout!r}; choose from {list(LAYOUTS)}"
            )
        BACKENDS.get(self.backend)
        if self.chaos:
            FAULT_PLANS.get(self.chaos)
        if self.procs < 1:
            raise ConfigError(f"procs must be >= 1, got {self.procs}")
        if self.keys_per_rank < 1:
            raise ConfigError(
                f"keys_per_rank must be >= 1, got {self.keys_per_rank}"
            )
        schema = None
        if self.payloads and self.payloads != "workload":
            # Syntax-eager: a malformed compact schema fails the whole
            # grid expansion.  Feasibility (does the workload declare a
            # schema, does the algorithm carry payloads) is checked at
            # run() time as CapabilityError so mixed grids skip those
            # cells instead of dying.
            from repro.records import parse_schema

            schema = parse_schema(self.payloads)
        # Parsed once per cell; kept beside the fields, not as one.
        object.__setattr__(self, "_schema", schema)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Stable cell key: ``workload/algorithm@machine/layout/pN``.

        A non-default backend is appended (``.../pN/process``) so mixed
        sweeps stay unambiguous; default-backend names are unchanged from
        pre-runtime documents.
        """
        base = (
            f"{self.workload}/{self.algorithm}@{self.machine}/"
            f"{self.layout}/p{self.procs}"
        )
        if self.payloads:
            base = f"{base}/rec[{self.payloads}]"
        if self.chaos:
            base = f"{base}/chaos[{self.chaos}]"
        if self.backend != "simulated":
            return f"{base}/{self.backend}"
        return base

    def resolved_machine(self):
        """The machine this cell prices against (layout applied)."""
        from repro.machines import get_machine

        overrides = {"cores_per_node": 1} if self.layout == "flat" else None
        return get_machine(self.machine, overrides)

    def run(self, *, trace_sink: Any = None) -> dict[str, Any]:
        """Execute the cell; returns ``{scenario, machine, metrics}``.

        Runs through ``Dataset.from_workload`` + ``Sorter`` — exactly the
        shootout benchmark suites' call — with verification off (imbalance
        is a *measured* metric here, not an assertion).
        """
        return self.execute(trace_sink=trace_sink)[1]

    def build_dataset(self) -> Any:
        """The cell's input :class:`~repro.algorithms.Dataset`.

        Exposed separately from :meth:`execute` so callers that need the
        input before running — e.g. the service layer's workload
        fingerprinting — generate it exactly once.
        """
        from repro.algorithms import Dataset

        payloads: Any = None
        if self.payloads == "workload":
            from repro.errors import CapabilityError
            from repro.workloads import WORKLOAD_SPECS

            if WORKLOAD_SPECS[self.workload].record_schema is None:
                # CapabilityError so grid sweeps record the cell as
                # skipped rather than aborting on an infeasible corner.
                raise CapabilityError(
                    f"payloads='workload' but workload {self.workload!r} "
                    f"declares no record schema; use an explicit compact "
                    f"schema like 'mass:f8,id:u4'"
                )
            payloads = True
        elif self.payloads:
            payloads = self._schema
        return Dataset.from_workload(
            self.workload, p=self.procs, n_per=self.keys_per_rank,
            seed=self.seed, payloads=payloads,
        )

    def execute(
        self,
        *,
        initial_intervals: Any = None,
        dataset: Any = None,
        trace_sink: Any = None,
        workers: int | None = None,
        knobs: Mapping[str, Any] | None = None,
    ) -> tuple[Any, dict[str, Any]]:
        """Like :meth:`run`, but also return the underlying ``SortRun``.

        The service layer uses this to extract warm-start material (final
        shard boundaries) and measured latency from the run;
        ``initial_intervals`` forwards splitter-interval hints to
        :meth:`Sorter.run <repro.algorithms.Sorter.run>`; ``dataset``
        supplies a pre-built input (from :meth:`build_dataset`, possibly
        with index payloads attached); ``trace_sink`` forwards a
        :class:`~repro.telemetry.TraceSink` collecting span telemetry.
        ``workers`` sizes the backend, and ``knobs`` adds algorithm config
        keys beyond ``eps``/``seed`` (``repro sort --tag-duplicates``,
        ``strict=False``) or overrides them; an unknown key raises
        :class:`~repro.errors.ConfigError`.
        Neither is part of the cell.
        """
        from repro.algorithms import REGISTRY, Sorter
        from repro.runtime import get_backend

        machine = self.resolved_machine()
        if dataset is None:
            dataset = self.build_dataset()
        # eps and seed are axes of every cell; an algorithm without that
        # knob (bitonic, radix) ignores them.
        valid = REGISTRY.get(self.algorithm).config_keys()
        axes = {"eps": self.eps, "seed": self.seed}
        config = {k: v for k, v in axes.items() if k in valid}
        config.update(knobs or {})
        options = {} if workers is None else {"workers": workers}
        backend = get_backend(self.backend, **options)
        if self.chaos:
            from repro.chaos.backend import ChaosBackend

            backend = ChaosBackend(inner=backend, plan=self.chaos)
        run = Sorter(
            self.algorithm,
            machine=machine,
            backend=backend,
            verify=False,
            **config,
        ).run(
            dataset,
            initial_intervals=initial_intervals,
            trace_sink=trace_sink,
        )
        metrics: dict[str, Any] = {
            "makespan_s": run.makespan,
            "net_bytes": run.engine_result.stats.bytes,
            "net_messages": run.engine_result.stats.messages,
            "imbalance": run.imbalance,
        }
        chaos_info = getattr(run.engine_result.measured, "chaos", None)
        if chaos_info is not None:
            metrics["chaos_slowdown"] = chaos_info["slowdown"]
            metrics["chaos_stragglers"] = chaos_info["stragglers"]
            metrics["chaos_retries"] = chaos_info["retries"]
            metrics["chaos_delay_s"] = chaos_info["delay_injected_s"]
        if dataset.has_payloads and dataset.record_nbytes() is not None:
            metrics["record_bytes"] = dataset.record_nbytes()
        if run.splitter_stats is not None:
            metrics["rounds"] = run.splitter_stats.num_rounds
            metrics["total_sample"] = run.splitter_stats.total_sample
        return run, {
            "scenario": self.to_dict(),
            "machine": machine.describe(),
            "metrics": metrics,
        }

    # ------------------------------------------------------------------ #
    def replace(self, **changes: Any) -> "Scenario":
        """A copy with some axes replaced (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown scenario field(s) {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        missing = [k for k in ("algorithm", "workload") if k not in data]
        if missing:
            raise ConfigError(f"scenario missing required keys {missing}")
        return cls(**dict(data))
