"""The uniform, capability-checked execution front end for every algorithm.

``Sorter`` resolves an algorithm name through the plugin registry, builds
(or accepts) its typed config, validates the request against the
algorithm's declared capabilities *before* any simulation runs, executes
the SPMD program on the chosen :class:`~repro.runtime.Backend`, and extracts
shards / payloads / stats uniformly from every rank's return.

    >>> from repro.algorithms import Dataset, Sorter
    >>> ds = Dataset.from_workload("uniform", p=4, n_per=400, seed=7)
    >>> run = Sorter("hss", eps=0.1).run(ds)
    >>> run.algorithm, run.imbalance <= 1.1
    ('hss', True)
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.algorithms.dataset import Dataset
from repro.algorithms.registry import REGISTRY
from repro.algorithms.result import SortRun
from repro.errors import CapabilityError, ConfigError
from repro.machines import MachineSpec, resolve_machine
from repro.runtime import Backend, resolve_backend

__all__ = ["Sorter"]


class Sorter:
    """Run one registered algorithm on :class:`Dataset` inputs.

    Parameters
    ----------
    algorithm:
        Registered algorithm name (see ``repro algorithms`` or
        :data:`repro.algorithms.REGISTRY`).
    machine:
        Simulated machine: a registered name (``"mira-like-bgq"``, see
        ``repro machines``) or a :class:`~repro.machines.MachineSpec`.
        Defaults to the ``"laptop"`` preset.
    config:
        A pre-built instance of the algorithm's typed config class.
        Mutually exclusive with keyword knobs.
    backend:
        Execution backend: a registered name (``"simulated"`` — the
        default — ``"thread"`` or ``"process"``; see ``repro backends``)
        or a pre-built :class:`~repro.runtime.Backend` instance.  Sorted
        output, comm stats and modeled times are bit-identical across
        backends; ``SortRun.measured`` records the backend's real
        wall-clock observations.
    verify:
        Check sortedness, permutation and (for balanced algorithms) the
        load bound on every run's output.
    **config_kwargs:
        Typed config knobs (e.g. ``eps=0.02`` for HSS,
        ``probes_per_splitter=5`` for classic histogram sort).  Unknown
        keys raise :class:`~repro.errors.ConfigError` naming the valid
        ones — nothing is forwarded blind.
    """

    def __init__(
        self,
        algorithm: str,
        *,
        machine: str | MachineSpec | None = None,
        config: Any | None = None,
        backend: str | Backend | None = None,
        verify: bool = True,
        **config_kwargs: Any,
    ) -> None:
        self.spec = REGISTRY.get(algorithm)
        if config is not None and config_kwargs:
            raise ConfigError(
                "pass either a pre-built config or keyword knobs, not both"
            )
        if config is not None:
            self.config = self.spec.check_config(config)
        else:
            self.config = self.spec.build_config(**config_kwargs)
        self.machine = resolve_machine(machine)
        self.backend = resolve_backend(backend)
        self.verify = verify

    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> str:
        return self.spec.name

    def _check_capabilities(self, dataset: Dataset) -> None:
        spec = self.spec
        if dataset.has_payloads and not spec.supports_payloads:
            capable = [n for n, s in REGISTRY.items() if s.supports_payloads]
            raise CapabilityError(
                f"algorithm {spec.name!r} does not support payloads "
                f"(AlgorithmSpec.supports_payloads is False); use a "
                f"payload-capable algorithm ({', '.join(capable)}) or drop "
                f"the payloads"
            )
        if spec.needs_multicore and self.machine.cores_per_node < 2:
            raise CapabilityError(
                f"{spec.name} needs a multicore machine "
                f"(machine.cores_per_node > 1)"
            )

    # ------------------------------------------------------------------ #
    def run(
        self,
        data: Dataset | Sequence[np.ndarray],
        *,
        payloads: Sequence[np.ndarray] | None = None,
        initial_intervals: Sequence[tuple] | None = None,
        trace_sink: Any = None,
    ) -> SortRun:
        """Sort a dataset; returns a :class:`SortRun`.

        ``data`` may be a :class:`Dataset` or a plain sequence of per-rank
        key arrays (wrapped via :meth:`Dataset.from_arrays`, optionally
        with ``payloads``).

        ``initial_intervals`` warm-starts the histogram phase with cached
        ``(lo, hi)`` splitter-interval hints from a previous run on similar
        data (see :attr:`~repro.core.config.HSSConfig.initial_intervals`);
        only histogram-refining algorithms accept it
        (``AlgorithmSpec.supports_warm_start``).

        ``trace_sink`` (a :class:`~repro.telemetry.TraceSink`) receives
        the finished run's projection (:meth:`Backend.emit_spans
        <repro.runtime.Backend.emit_spans>`): modeled superstep/phase
        spans and measured per-rank compute/wait spans, on every built-in
        backend.  A run that raises emits nothing.
        """
        if isinstance(data, Dataset):
            if payloads is not None:
                data = data._with_payload_arrays(payloads)
            dataset = data
        else:
            dataset = Dataset.from_arrays(data, payloads=payloads)
        self._check_capabilities(dataset)

        config = self.config
        if initial_intervals is not None:
            if not self.spec.supports_warm_start:
                capable = [
                    n for n, s in REGISTRY.items() if s.supports_warm_start
                ]
                raise CapabilityError(
                    f"algorithm {self.spec.name!r} does not support "
                    f"initial_intervals warm starts "
                    f"(AlgorithmSpec.supports_warm_start is False); "
                    f"warm-capable algorithms: {', '.join(capable)}"
                )
            import dataclasses

            config = dataclasses.replace(
                config,
                initial_intervals=tuple(
                    (pair[0], pair[1]) for pair in initial_intervals
                ),
            )

        result = self.backend.run(
            self.spec.program,
            dataset.rank_args(),
            machine=self.machine,
            **self.spec.program_kwargs(config),
        )

        shards, out_payloads, rank_stats = self._extract(result.returns)
        if not dataset.has_payloads:
            out_payloads = None
        if self.verify:
            from repro.metrics.verify import verify_sorted_output

            verify_sorted_output(
                dataset.shards,
                shards,
                self.spec.verify_eps(self.config),
                sorted_inputs=lambda: dataset.sorted_keys,
            )
        if trace_sink is not None:
            self.backend.emit_spans(result, trace_sink)
        return SortRun(
            shards=shards,
            payloads=out_payloads,
            stats=rank_stats[0] if rank_stats else None,
            engine_result=result,
            algorithm=self.spec.name,
            rank_stats=rank_stats,
            machine=self.machine.describe(),
            backend=self.backend.name,
            schema=dataset.record_schema if dataset.has_payloads else None,
        )

    @staticmethod
    def _extract(returns: Sequence[Any]):
        """Normalize every rank's return to ``(keys, payload, stats)``.

        Programs return ``Shard | ndarray`` or ``(Shard | ndarray, stats)``
        per rank; extraction is uniform across all ranks rather than
        isinstance-sniffing rank 0.
        """
        from repro.core.data_movement import Shard

        shards: list[np.ndarray] = []
        payloads: list[np.ndarray | None] = []
        rank_stats: list[Any] = []
        for ret in returns:
            stats = None
            out = ret
            if isinstance(ret, tuple):
                out, stats = ret
            if isinstance(out, Shard):
                shards.append(out.keys)
                payloads.append(out.payload)
            else:
                shards.append(out)
                payloads.append(None)
            rank_stats.append(stats)
        return shards, payloads, rank_stats
