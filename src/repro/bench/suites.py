"""The registered benchmark suites.

Each suite here is the measurement loop that used to live inline in one
``benchmarks/test_*.py`` file, parameterized by tier.  The ``full`` tier
reproduces the paper-faithful operating points the pytest harness asserts
against; the ``quick`` tier runs the same sweep at CI-friendly scale.

Suites return :class:`~repro.bench.schema.CaseResult` lists — pure data —
and each registers a renderer that pivots those cases back into the text
tables persisted under ``benchmarks/results/``.  The JSON document and the
text artifact therefore can never disagree.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.bench.registry import register
from repro.bench.schema import CaseResult
from repro.perf.report import format_series_table, format_stacked_table

__all__: list[str] = []  # suites are reached through the registry


def _case(
    name: str, params: Mapping[str, Any], metrics: Mapping[str, Any]
) -> CaseResult:
    return CaseResult(name=name, params=dict(params), metrics=dict(metrics))


def _suite_machine(params: Mapping[str, Any]):
    """Resolve a suite's simulated machine from its tier parameters.

    Suites declare ``machine`` (a registry name) and optionally
    ``machine_overrides``; the runner records the same resolution in the
    suite's ``machine`` provenance block, so what the document *says* ran
    is what actually priced the cases.
    """
    from repro.machines import resolve_machine

    return resolve_machine(
        params.get("machine"), params.get("machine_overrides")
    )


def _suite_backend(params: Mapping[str, Any]) -> str:
    """Execution backend for Sorter-driven suites (a runtime param).

    Defaults to the simulator; absent from tier params so baselines are
    untouched.  ``repro bench --backend process`` overrides it on every
    suite that declares the ``backend`` runtime param — the modeled,
    gated metrics are bit-identical either way (that is the backend
    contract), so the gate still applies.
    """
    return params.get("backend", "simulated")


def _by_name(cases: Sequence[CaseResult]) -> dict[str, CaseResult]:
    return {c.name: c for c in cases}


def _morton_oracle(shards: Sequence[np.ndarray]):
    """Uniquified dataset + exact-rank oracle for the bisection baselines.

    Order-preserving uniquification (§4.3 implicit tagging analog): halve
    the Morton key (keys are < 2^63, so the result is < 2^62) and break
    ties by sorted position, giving the key-space bisection baseline a
    strict total order to probe.  Ranks are exact, via binary search on
    the full sorted dataset — no CDF smoothing.

    Returns ``(keys, rank_of, key_min, key_max)``.
    """
    keys = np.sort(np.concatenate(shards))
    keys = (
        (keys >> np.uint64(1)) + np.arange(len(keys), dtype=np.uint64)
    ).astype(np.int64)

    def rank_of(q: np.ndarray) -> np.ndarray:
        return np.searchsorted(
            keys, np.asarray(q, dtype=keys.dtype), side="left"
        ).astype(np.int64)

    return keys, rank_of, int(keys[0]), int(keys[-1])


# ===================================================================== #
# Shootout — every algorithm on shared workloads (Related Work in prose).
# ===================================================================== #
_SHOOTOUT_ALGORITHMS = [
    "hss",
    "hss-1round",
    "hss-2round",
    "scanning",
    "sample-regular",
    "sample-regular-parallel",
    "sample-random",
    "histogram",
    "over-partition",
    "exact-split",
    "bitonic",
    "radix",
]


@register(
    "shootout",
    description="All algorithms on shared workloads: makespan, bytes, imbalance",
    kind="shootout",
    tiers={
        "full": {
            "procs": 16,
            "keys_per_rank": 2_000,
            "eps": 0.1,
            "workloads": ["uniform", "staircase", "nearly-sorted"],
            "algorithms": list(_SHOOTOUT_ALGORITHMS),
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "workload_seed": 42,
            "sort_seed": 13,
        },
        "quick": {
            "procs": 8,
            "keys_per_rank": 500,
            "eps": 0.1,
            "workloads": ["uniform", "staircase"],
            "algorithms": list(_SHOOTOUT_ALGORITHMS),
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "workload_seed": 42,
            "sort_seed": 13,
        },
        "stress": {
            "procs": 32,
            "keys_per_rank": 2_000,
            "eps": 0.1,
            "workloads": ["uniform", "staircase", "nearly-sorted"],
            "algorithms": list(_SHOOTOUT_ALGORITHMS),
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "workload_seed": 42,
            "sort_seed": 13,
        },
    },
    render=lambda cases, params: _render_shootout(cases, params),
    runtime_params={"backend": "simulated"},
)
def _run_shootout(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.algorithms import REGISTRY, Dataset, Sorter

    p = params["procs"]
    n_per = params["keys_per_rank"]
    eps = params["eps"]
    machine = _suite_machine(params)
    cases = []
    for workload in params["workloads"]:
        dataset = Dataset.from_workload(
            workload, p=p, n_per=n_per, seed=params["workload_seed"]
        )
        for name in params["algorithms"]:
            # Fixed-round HSS variants give their balance guarantee only
            # w.h.p.; at small p the Theorem 3.2.2 failure budget is a few
            # percent, so run them best-effort and *report* imbalance.
            kwargs = {"strict": False} if name.startswith("hss-") else {}
            config = REGISTRY.get(name).legacy_config(
                eps=eps, seed=params["sort_seed"], **kwargs
            )
            run = Sorter(
                name,
                machine=machine,
                config=config,
                backend=_suite_backend(params),
                verify=False,
            ).run(dataset)
            metrics: dict[str, Any] = {
                "makespan_s": run.makespan,
                "net_bytes": run.engine_result.stats.bytes,
                "net_messages": run.engine_result.stats.messages,
                "imbalance": run.imbalance,
            }
            if run.splitter_stats is not None:
                metrics["rounds"] = run.splitter_stats.num_rounds
                metrics["total_sample"] = run.splitter_stats.total_sample
            cases.append(
                _case(
                    f"{workload}/{name}",
                    {"workload": workload, "algorithm": name, "procs": p,
                     "keys_per_rank": n_per},
                    metrics,
                )
            )
    return cases


def _render_shootout(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    by = _by_name(cases)
    names = params["algorithms"]
    blocks = []
    for w in params["workloads"]:
        rows = {
            "makespan (ms)": [
                round(by[f"{w}/{n}"].metrics["makespan_s"] * 1e3, 3) for n in names
            ],
            "net bytes (MB)": [
                round(by[f"{w}/{n}"].metrics["net_bytes"] / 1e6, 2) for n in names
            ],
            "imbalance": [
                round(by[f"{w}/{n}"].metrics["imbalance"], 3) for n in names
            ],
        }
        blocks.append(
            format_series_table("algorithm", names, rows, title=f"workload: {w}")
        )
    head = (
        f"Shootout — p={params['procs']}, N/p={params['keys_per_rank']}, "
        f"eps={params['eps']}, Mira-like (flat)"
    )
    return head + "\n\n" + "\n\n".join(blocks)


# ===================================================================== #
# Shootout (records) — payload-capable algorithms carrying 32-byte records.
# ===================================================================== #
_RECORD_ALGORITHMS = [
    "hss",
    "hss-1round",
    "hss-2round",
    "sample-regular",
    "sample-random",
    "histogram",
]

#: 8-byte key + 24 payload bytes = the 32-byte particle record the §6.3
#: ChaNGa workloads declare.
_RECORD_SCHEMA = "mass:f8,vx:f4,vy:f4,vz:f4,id:u4"


@register(
    "shootout_records",
    description="Payload-capable algorithms carrying 32-byte records: "
    "makespan, bytes, imbalance",
    kind="shootout",
    tiers={
        "full": {
            "procs": 16,
            "keys_per_rank": 2_000,
            "eps": 0.1,
            "workloads": ["uniform", "staircase"],
            "algorithms": list(_RECORD_ALGORITHMS),
            "schema": _RECORD_SCHEMA,
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "workload_seed": 42,
            "sort_seed": 13,
        },
        "quick": {
            "procs": 8,
            "keys_per_rank": 500,
            "eps": 0.1,
            "workloads": ["uniform", "staircase"],
            "algorithms": list(_RECORD_ALGORITHMS),
            "schema": _RECORD_SCHEMA,
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "workload_seed": 42,
            "sort_seed": 13,
        },
    },
    render=lambda cases, params: _render_shootout_records(cases, params),
    runtime_params={"backend": "simulated"},
)
def _run_shootout_records(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.algorithms import REGISTRY, Dataset, Sorter
    from repro.records import parse_schema

    p = params["procs"]
    n_per = params["keys_per_rank"]
    eps = params["eps"]
    machine = _suite_machine(params)
    schema = parse_schema(params["schema"])
    cases = []
    for workload in params["workloads"]:
        dataset = Dataset.from_workload(
            workload, p=p, n_per=n_per, seed=params["workload_seed"],
            payloads=schema,
        )
        for name in params["algorithms"]:
            kwargs = {"strict": False} if name.startswith("hss-") else {}
            config = REGISTRY.get(name).legacy_config(
                eps=eps, seed=params["sort_seed"], **kwargs
            )
            run = Sorter(
                name,
                machine=machine,
                config=config,
                backend=_suite_backend(params),
                verify=False,
            ).run(dataset)
            metrics: dict[str, Any] = {
                "makespan_s": run.makespan,
                "net_bytes": run.engine_result.stats.bytes,
                "net_messages": run.engine_result.stats.messages,
                "imbalance": run.imbalance,
                "record_bytes": dataset.record_nbytes(),
            }
            if run.splitter_stats is not None:
                metrics["rounds"] = run.splitter_stats.num_rounds
                metrics["total_sample"] = run.splitter_stats.total_sample
            cases.append(
                _case(
                    f"{workload}/{name}",
                    {"workload": workload, "algorithm": name, "procs": p,
                     "keys_per_rank": n_per, "schema": params["schema"]},
                    metrics,
                )
            )
    return cases


def _render_shootout_records(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    names = params["algorithms"]
    blocks = []
    for w in params["workloads"]:
        rows = {
            "makespan (ms)": [
                round(by[f"{w}/{n}"].metrics["makespan_s"] * 1e3, 3) for n in names
            ],
            "net bytes (MB)": [
                round(by[f"{w}/{n}"].metrics["net_bytes"] / 1e6, 2) for n in names
            ],
            "imbalance": [
                round(by[f"{w}/{n}"].metrics["imbalance"], 3) for n in names
            ],
        }
        blocks.append(
            format_series_table("algorithm", names, rows, title=f"workload: {w}")
        )
    record_bytes = next(iter(by.values())).metrics["record_bytes"]
    head = (
        f"Shootout (records) — p={params['procs']}, "
        f"N/p={params['keys_per_rank']}, eps={params['eps']}, "
        f"{record_bytes}-byte records ({params['schema']}), Mira-like (flat)"
    )
    return head + "\n\n" + "\n\n".join(blocks)


# ===================================================================== #
# Figure 3.1 — splitter intervals shrink geometrically round over round.
# ===================================================================== #
@register(
    "fig_3_1",
    description="Interval shrinkage per round vs the 6N/s_j envelope (Thm 3.3.2)",
    kind="figure",
    tiers={
        "full": {"procs": 4_096, "keys_per_proc": 10_000, "eps": 0.05,
                 "k": 4, "seed": 5},
        "quick": {"procs": 1_024, "keys_per_proc": 5_000, "eps": 0.05,
                  "k": 4, "seed": 5},
        "stress": {"procs": 8_192, "keys_per_proc": 10_000, "eps": 0.05,
                   "k": 4, "seed": 5},
    },
    render=lambda cases, params: _render_fig_3_1(cases, params),
)
def _run_fig_3_1(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import RankSpaceSimulator

    p = params["procs"]
    n = p * params["keys_per_proc"]
    eps = params["eps"]
    k = params["k"]
    cfg = HSSConfig.k_rounds(k, eps=eps, seed=params["seed"])
    stats = RankSpaceSimulator(n, p, cfg).run()
    s_ratios = [cfg.schedule.ratio(j, p, eps) for j in range(1, k + 1)]
    cases = []
    for r in stats.rounds:
        envelope = 6 * n / s_ratios[r.round_index - 1]
        cases.append(
            _case(
                f"round-{r.round_index}",
                {"round": r.round_index, "procs": p, "n": n},
                {
                    "sample_size": r.sample_size,
                    "candidate_mass_before": r.candidate_mass_before,
                    "mass_fraction": r.candidate_mass_before / n,
                    "max_width": r.max_interval_width_after,
                    "mean_width": r.mean_interval_width_after,
                    "open_intervals": r.open_intervals_after,
                    "envelope_6n_over_s": envelope,
                },
            )
        )
    cases.append(
        _case(
            "summary",
            {"procs": p, "n": n},
            {
                "rounds": stats.num_rounds,
                "total_sample": stats.total_sample,
                "all_finalized": stats.all_finalized,
            },
        )
    )
    return cases


def _render_fig_3_1(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    rounds = sorted(
        (c for c in cases if c.name.startswith("round-")),
        key=lambda c: c.params["round"],
    )
    n = params["procs"] * params["keys_per_proc"]
    idx = [c.params["round"] for c in rounds]
    rows = {
        "sample": [c.metrics["sample_size"] for c in rounds],
        "G_j before": [c.metrics["candidate_mass_before"] for c in rounds],
        "G_j/N": [round(c.metrics["mass_fraction"], 6) for c in rounds],
        "max width": [c.metrics["max_width"] for c in rounds],
        "mean width": [c.metrics["mean_width"] for c in rounds],
        "open splitters": [c.metrics["open_intervals"] for c in rounds],
        "6N/s_j": [round(c.metrics["envelope_6n_over_s"], 1) for c in rounds],
    }
    return format_series_table(
        "round",
        idx,
        rows,
        title=f"Fig 3.1 — interval shrinkage, p={params['procs']}, N={n:.0e}, "
        f"eps={params['eps']}, geometric k={params['k']}",
    )


# ===================================================================== #
# Figure 4.1 — overall sample size vs p, analytic + measured.
# ===================================================================== #
@register(
    "fig_4_1",
    description="Sample size vs p: sample sort vs HSS, analytic and measured",
    kind="figure",
    tiers={
        "full": {
            "eps": 0.05,
            "analytic_ps": [4**k for k in range(1, 10)],
            "measured_ps": [64, 1024, 8192, 65536],
            "keys_per_proc": 2_000,
            "seed": 3,
        },
        "quick": {
            "eps": 0.05,
            "analytic_ps": [4**k for k in range(1, 10)],
            "measured_ps": [64, 256, 1024],
            "keys_per_proc": 1_000,
            "seed": 3,
        },
        "stress": {
            "eps": 0.05,
            "analytic_ps": [4**k for k in range(1, 10)],
            "measured_ps": [64, 8_192, 131_072],
            "keys_per_proc": 2_000,
            "seed": 3,
        },
    },
    render=lambda cases, params: _render_fig_4_1(cases, params),
)
def _run_fig_4_1(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import RankSpaceSimulator
    from repro.theory.sample_sizes import (
        sample_size_hss,
        sample_size_hss_constant,
        sample_size_random,
        sample_size_regular,
    )

    eps = params["eps"]
    seed = params["seed"]
    keys_per_proc = params["keys_per_proc"]

    def n_of(p: int) -> float:
        return p * 1e6

    analytic = {
        "regular": lambda p: sample_size_regular(p, eps),
        "random": lambda p: sample_size_random(p, n_of(p), eps),
        "HSS-1round": lambda p: sample_size_hss(p, eps, 1),
        "HSS-2rounds": lambda p: sample_size_hss(p, eps, 2),
        "HSS-const": lambda p: sample_size_hss_constant(p, eps),
    }
    measured_cfgs = {
        "HSS-1 meas": lambda: HSSConfig.one_round(eps, seed=seed),
        "HSS-2 meas": lambda: HSSConfig.k_rounds(2, eps=eps, seed=seed),
        "HSS-const meas": lambda: HSSConfig.constant_oversampling(
            5.0, eps=eps, seed=seed
        ),
    }

    cases = []
    for series, fn in analytic.items():
        for p in params["analytic_ps"]:
            cases.append(
                _case(
                    f"analytic/{series}/p={p}",
                    {"series": series, "procs": p, "source": "analytic"},
                    {"sample_keys": fn(p)},
                )
            )
    for series, make_cfg in measured_cfgs.items():
        for p in params["measured_ps"]:
            sample = (
                RankSpaceSimulator(p * keys_per_proc, p, make_cfg())
                .run()
                .total_sample
            )
            cases.append(
                _case(
                    f"measured/{series}/p={p}",
                    {"series": series, "procs": p, "source": "measured"},
                    {"sample_keys": sample},
                )
            )
    return cases


def _render_fig_4_1(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    by = _by_name(cases)
    analytic_series = ["regular", "random", "HSS-1round", "HSS-2rounds", "HSS-const"]
    measured_series = ["HSS-1 meas", "HSS-2 meas", "HSS-const meas"]
    series = {
        s: [
            by[f"analytic/{s}/p={p}"].metrics["sample_keys"]
            for p in params["analytic_ps"]
        ]
        for s in analytic_series
    }
    measured = {
        s: [
            by[f"measured/{s}/p={p}"].metrics["sample_keys"]
            for p in params["measured_ps"]
        ]
        for s in measured_series
    }
    text = format_series_table(
        "p",
        params["analytic_ps"],
        series,
        title=f"Fig 4.1 — overall sample size (keys), eps={params['eps']}",
    )
    text += "\n\n" + format_series_table(
        "p",
        params["measured_ps"],
        measured,
        title="measured (rank-space execution)",
    )
    return text


# ===================================================================== #
# Figure 6.1 — weak scaling phase breakdown on a Mira-like machine.
# ===================================================================== #
@register(
    "fig_6_1",
    description="Weak-scaling phase breakdown (local sort / histogram / exchange)",
    kind="figure",
    tiers={
        "full": {"ps": [512, 2048, 8192, 32768], "keys_per_core": 1_000_000,
                 "eps": 0.02, "oversample": 5.0, "seed": 17,
                 "machine": "mira-like-bgq"},
        "quick": {"ps": [512, 2048, 8192], "keys_per_core": 1_000_000,
                  "eps": 0.02, "oversample": 5.0, "seed": 17,
                  "machine": "mira-like-bgq"},
    },
    render=lambda cases, params: _render_fig_6_1(cases, params),
)
def _run_fig_6_1(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import RankSpaceSimulator
    from repro.perf.model import model_weak_scaling

    machine = _suite_machine(params)
    cases = []
    for p in params["ps"]:
        nodes = max(2, p // machine.cores_per_node)
        cfg = HSSConfig.constant_oversampling(
            params["oversample"], eps=params["eps"], seed=params["seed"]
        )
        stats = RankSpaceSimulator(p * params["keys_per_core"], nodes, cfg).run()
        times = model_weak_scaling(
            machine,
            nprocs=p,
            keys_per_core=params["keys_per_core"],
            splitter_stats=stats,
            key_bytes=8,
            payload_bytes=4,
            node_level=True,
        )
        cases.append(
            _case(
                f"p={p}",
                {"procs": p, "nodes": nodes},
                {
                    "local_sort_s": times.local_sort,
                    "histogramming_s": times.histogramming,
                    "data_exchange_s": times.data_exchange,
                    "within_node_s": times.within_node,
                    "total_s": times.total,
                    "rounds": stats.num_rounds,
                    "total_sample": stats.total_sample,
                },
            )
        )
    return cases


def _render_fig_6_1(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    by = _by_name(cases)
    stacks = []
    for p in params["ps"]:
        m = by[f"p={p}"].metrics
        stacks.append(
            {
                "local sort": m["local_sort_s"],
                "histogramming": m["histogramming_s"],
                "data exchange": m["data_exchange_s"],
                "within-node sort": m["within_node_s"],
                "total": m["total_s"],
            }
        )
    return format_stacked_table(
        "p",
        params["ps"],
        stacks,
        title=(
            "Fig 6.1 — weak scaling, Mira-like BG/Q, node-level "
            f"partitioning, {params['keys_per_core']:,} keys/core (8B+4B), "
            f"eps={params['eps']}"
        ),
    )


# ===================================================================== #
# Figure 6.2 — ChaNGa splitting: HSS vs classic histogram sort ("Old").
# ===================================================================== #
@register(
    "fig_6_2",
    description="ChaNGa-like splitting time: HSS vs key-space bisection",
    kind="figure",
    tiers={
        "full": {"ps": [256, 1024, 4096, 16384, 65536], "n_total": 4_000_000,
                 "eps": 0.02, "max_old_rounds": 600, "oversample": 5.0,
                 "seed": 29, "dataset_seed": 21, "machine": "mira-like-bgq"},
        "quick": {"ps": [256, 1024, 4096], "n_total": 500_000,
                  "eps": 0.02, "max_old_rounds": 600, "oversample": 5.0,
                  "seed": 29, "dataset_seed": 21, "machine": "mira-like-bgq"},
    },
    render=lambda cases, params: _render_fig_6_2(cases, params),
)
def _run_fig_6_2(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import (
        RankSpaceSimulator,
        simulate_histogram_sort_rounds,
    )
    from repro.perf.model import model_splitting_time
    from repro.workloads.changa import fractal_dwarf_shards, fractal_lambb_shards

    n_total = params["n_total"]
    eps = params["eps"]
    machine = _suite_machine(params)
    shard_fns = {"dwarf": fractal_dwarf_shards, "lambb": fractal_lambb_shards}

    cases = []
    for name in ("dwarf", "lambb"):
        keys, rank_of, kmin, kmax = _morton_oracle(
            shard_fns[name](8, n_total // 8, params["dataset_seed"])
        )
        n = len(keys)
        for p in params["ps"]:
            cfg = HSSConfig.constant_oversampling(
                params["oversample"], eps=eps, seed=params["seed"]
            )
            hss_stats = RankSpaceSimulator(n, p, cfg).run()
            hss_seconds = model_splitting_time(
                machine,
                nprocs=p,
                nbuckets=p,
                rounds=[
                    (r.sample_size, max(1, r.open_intervals_after))
                    for r in hss_stats.rounds
                ],
                local_keys=n / p,
                style="hss",
            )
            # Volume-matched comparison: both algorithms histogram Θ(p)
            # probes per round with the same constant.
            old = simulate_histogram_sort_rounds(
                n, p, eps, rank_of, kmin, kmax,
                probes_per_splitter=int(params["oversample"]),
                max_rounds=params["max_old_rounds"],
                key_dtype=np.int64,
            )
            old_seconds = model_splitting_time(
                machine,
                nprocs=p,
                nbuckets=p,
                rounds=[(m, m) for m in old.probes_per_round],
                local_keys=n / p,
                style="bisect",
            )
            cases.append(
                _case(
                    f"{name}/p={p}",
                    {"dataset": name, "procs": p, "n": n},
                    {
                        "hss_seconds": hss_seconds,
                        "old_seconds": old_seconds,
                        "hss_rounds": hss_stats.num_rounds,
                        "old_rounds": old.rounds,
                    },
                )
            )
    return cases


def _render_fig_6_2(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    by = _by_name(cases)
    series: dict[str, list[Any]] = {}
    for name in ("dwarf", "lambb"):
        series[f"HSS {name} (s)"] = [
            round(by[f"{name}/p={p}"].metrics["hss_seconds"], 4)
            for p in params["ps"]
        ]
        series[f"Old {name} (s)"] = [
            round(by[f"{name}/p={p}"].metrics["old_seconds"], 4)
            for p in params["ps"]
        ]
        series[f"HSS {name} rounds"] = [
            by[f"{name}/p={p}"].metrics["hss_rounds"] for p in params["ps"]
        ]
        series[f"Old {name} rounds"] = [
            by[f"{name}/p={p}"].metrics["old_rounds"] for p in params["ps"]
        ]
    return format_series_table(
        "p",
        params["ps"],
        series,
        title=(
            f"Fig 6.2 — ChaNGa-like splitting time, N={params['n_total']:.0e}, "
            f"eps={params['eps']}, buckets=p, no node combining"
        ),
    )


# ===================================================================== #
# Table 5.1 + the §1 sample-size example (analytic).
# ===================================================================== #
_INTRO_ROWS = [
    ("sample sort (regular)", "655 GB"),
    ("sample sort (random)", "5 GB"),
    ("HSS 1 round", "250 MB"),
    ("HSS 2 rounds", "22 MB"),
]


@register(
    "table_5_1",
    description="Analytic running-time/sample-size table + intro example",
    kind="table",
    tiers={
        "full": {"procs": 64_000, "eps": 0.05, "keys_per_proc": 1_000_000},
        "quick": {"procs": 64_000, "eps": 0.05, "keys_per_proc": 1_000_000},
    },
    render=lambda cases, params: _render_table_5_1(cases, params),
)
def _run_table_5_1(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.theory.sample_sizes import (
        sample_bytes,
        sample_size_hss,
        sample_size_random,
        sample_size_regular,
    )

    p, eps = params["procs"], params["eps"]
    n = p * params["keys_per_proc"]
    sizes = {
        "sample sort (regular)": sample_size_regular(p, eps),
        "sample sort (random)": sample_size_random(p, n, eps),
        "HSS 1 round": sample_size_hss(p, eps, 1, constant=2.0),
        "HSS 2 rounds": sample_size_hss(p, eps, 2, constant=2.0),
    }
    return [
        _case(
            name,
            {"algorithm": name, "procs": p},
            {"sample_keys": keys, "sample_bytes": sample_bytes(keys)},
        )
        for name, keys in sizes.items()
    ]


def _render_table_5_1(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    from repro.theory.complexity import render_table_5_1
    from repro.theory.sample_sizes import format_bytes

    by = _by_name(cases)
    lines = [
        f"Intro example: p={params['procs']:,}, eps={params['eps']}, "
        f"N/p=1e6, 8-byte keys",
        f"{'algorithm':26s} {'sample bytes':>14s}   paper says",
    ]
    for name, expect in _INTRO_ROWS:
        nbytes = by[name].metrics["sample_bytes"]
        lines.append(f"{name:26s} {format_bytes(nbytes):>14s}   {expect}")
    return render_table_5_1() + "\n\n" + "\n".join(lines)


# ===================================================================== #
# Table 6.1 — observed histogramming rounds vs the analytic bound.
# ===================================================================== #
@register(
    "table_6_1",
    description="Observed rounds vs the §6.2 bound, constant oversampling",
    kind="table",
    tiers={
        "full": {"ps": [4_000, 8_000, 16_000, 32_000], "eps": 0.02,
                 "oversample": 5.0, "keys_per_proc": 100_000, "seed": 11},
        "quick": {"ps": [4_000, 8_000], "eps": 0.02,
                  "oversample": 5.0, "keys_per_proc": 50_000, "seed": 11},
        "stress": {"ps": [16_000, 64_000], "eps": 0.02,
                   "oversample": 5.0, "keys_per_proc": 100_000, "seed": 11},
    },
    render=lambda cases, params: _render_table_6_1(cases, params),
)
def _run_table_6_1(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import RankSpaceSimulator
    from repro.theory.rounds import round_bound_constant_oversampling

    cases = []
    for p in params["ps"]:
        cfg = HSSConfig.constant_oversampling(
            params["oversample"], eps=params["eps"], seed=params["seed"]
        )
        stats = RankSpaceSimulator(p * params["keys_per_proc"], p, cfg).run()
        cases.append(
            _case(
                f"p={p}",
                {"procs": p},
                {
                    "rounds": stats.num_rounds,
                    "round_bound": round_bound_constant_oversampling(
                        p, params["eps"], params["oversample"]
                    ),
                    "total_sample": stats.total_sample,
                    "sample_per_round_xp": stats.total_sample
                    / max(1, stats.num_rounds)
                    / p,
                    "all_finalized": stats.all_finalized,
                },
            )
        )
    return cases


def _render_table_6_1(cases: Sequence[CaseResult], params: Mapping[str, Any]) -> str:
    by = _by_name(cases)
    ps = params["ps"]
    rows = {
        "sample size/round (xp)": [
            round(by[f"p={p}"].metrics["sample_per_round_xp"], 1) for p in ps
        ],
        "rounds observed": [by[f"p={p}"].metrics["rounds"] for p in ps],
        "rounds (paper)": [4] * len(ps),
        "bound": [by[f"p={p}"].metrics["round_bound"] for p in ps],
        "bound (paper)": [8] * len(ps),
    }
    return format_series_table(
        "p",
        ps,
        rows,
        title=f"Table 6.1 — eps={params['eps']}, "
        f"{params['oversample']:g}p sample/round",
    )


# ===================================================================== #
# Ablation — §3.4 approximate histogramming vs exact histograms.
# ===================================================================== #
@register(
    "ablation_approx",
    description="Approximate (oracle) vs exact histogramming end-to-end",
    kind="ablation",
    tiers={
        "full": {"procs": 16, "keys_per_rank": 20_000, "eps": 0.05,
                 "seed": 7, "input_seed": 1234, "machine": "laptop"},
        "quick": {"procs": 8, "keys_per_rank": 5_000, "eps": 0.05,
                  "seed": 7, "input_seed": 1234, "machine": "laptop"},
    },
    render=lambda cases, params: _render_ablation_approx(cases, params),
    runtime_params={"backend": "simulated"},
)
def _run_ablation_approx(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.algorithms import Dataset, Sorter
    from repro.core.config import HSSConfig
    from repro.sampling.representative import representative_sample_size

    p = params["procs"]
    n_per = params["keys_per_rank"]
    eps = params["eps"]
    machine = _suite_machine(params)
    oracle_s = representative_sample_size(p, eps / 4)
    cases = []
    for mode, approx in (("exact", False), ("approx", True)):
        rng = np.random.default_rng(params["input_seed"])
        inputs = Dataset.from_arrays(
            [rng.integers(0, 2**60, n_per) for _ in range(p)]
        )
        cfg = HSSConfig(
            eps=eps, approximate_histograms=approx, seed=params["seed"]
        )
        run = Sorter(
            "hss",
            config=cfg,
            machine=machine,
            backend=_suite_backend(params),
        ).run(inputs)
        cases.append(
            _case(
                mode,
                {"mode": mode, "procs": p, "keys_per_rank": n_per},
                {
                    "imbalance": run.imbalance,
                    "rounds": run.splitter_stats.num_rounds,
                    "total_sample": run.splitter_stats.total_sample,
                    "resident_keys": oracle_s if approx else n_per,
                    "makespan_s": run.makespan,
                },
            )
        )
    return cases


def _render_ablation_approx(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    modes = ["exact", "approx"]
    rows = {
        "imbalance": [round(by[m].metrics["imbalance"], 4) for m in modes],
        "rounds": [by[m].metrics["rounds"] for m in modes],
        "total sample": [by[m].metrics["total_sample"] for m in modes],
        "resident keys/proc": [by[m].metrics["resident_keys"] for m in modes],
        "histogram haystack": [by[m].metrics["resident_keys"] for m in modes],
        "makespan (model s)": [
            f"{by[m].metrics['makespan_s']:.2e}" for m in modes
        ],
    }
    return format_series_table(
        "mode",
        modes,
        rows,
        title=f"Ablation — §3.4 approximate histogramming, p={params['procs']}, "
        f"N/p={params['keys_per_rank']}, eps={params['eps']}",
    )


# ===================================================================== #
# Ablation — §4.3 implicit tagging on duplicate-heavy inputs.
# ===================================================================== #
@register(
    "ablation_duplicates",
    description="Duplicate tagging on/off across hotspot intensities",
    kind="ablation",
    tiers={
        "full": {"procs": 16, "keys_per_rank": 2_000, "eps": 0.05,
                 "hot_fractions": [0.0, 0.2, 0.5, 0.8, 1.0],
                 "workload_seed": 7, "seed": 5, "machine": "laptop"},
        "quick": {"procs": 8, "keys_per_rank": 500, "eps": 0.05,
                  "hot_fractions": [0.0, 0.5, 1.0],
                  "workload_seed": 7, "seed": 5, "machine": "laptop"},
    },
    render=lambda cases, params: _render_ablation_duplicates(cases, params),
    runtime_params={"backend": "simulated"},
)
def _run_ablation_duplicates(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.algorithms import Dataset, Sorter
    from repro.core.config import HSSConfig
    from repro.errors import VerificationError
    from repro.metrics import load_imbalance

    p = params["procs"]
    n_per = params["keys_per_rank"]
    eps = params["eps"]
    machine = _suite_machine(params)
    cases = []
    for hot in params["hot_fractions"]:
        for tagged in (True, False):
            dataset = Dataset.from_workload(
                "hotspot",
                p=p,
                n_per=n_per,
                seed=params["workload_seed"],
                hot_fraction=hot,
            )
            cfg = HSSConfig(eps=eps, tag_duplicates=tagged, seed=params["seed"])
            strict_failed = False
            try:
                run = Sorter(
                    "hss",
                    config=cfg,
                    machine=machine,
                    backend=_suite_backend(params),
                ).run(dataset)
                imbalance = run.imbalance
            except VerificationError:
                # Without tagging the hot key cannot be split across
                # processors; measure the degradation best-effort.
                strict_failed = True
                relaxed = HSSConfig(
                    eps=eps,
                    tag_duplicates=tagged,
                    seed=params["seed"],
                    strict=False,
                )
                raw = Sorter(
                    "hss",
                    config=relaxed,
                    machine=machine,
                    backend=_suite_backend(params),
                    verify=False,
                ).run(dataset)
                imbalance = load_imbalance(raw.shards)
            label = "tagged" if tagged else "untagged"
            cases.append(
                _case(
                    f"hot={hot:g}/{label}",
                    {"hot_fraction": hot, "tagged": tagged, "procs": p},
                    {
                        "imbalance": imbalance,
                        "cap_breach": imbalance > 1 + eps + 1e-9,
                        "strict_failed": strict_failed,
                    },
                )
            )
    return cases


def _render_ablation_duplicates(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)

    def imb(hot: float, label: str) -> float:
        case = by[f"hot={hot:g}/{label}"]
        digits = 2 if case.metrics["strict_failed"] else 4
        return round(case.metrics["imbalance"], digits)

    fractions = params["hot_fractions"]
    return format_series_table(
        "hot fraction",
        fractions,
        {
            "imbalance tagged": [imb(h, "tagged") for h in fractions],
            "imbalance untagged": [imb(h, "untagged") for h in fractions],
            "untagged cap breach": [
                bool(by[f"hot={h:g}/untagged"].metrics["cap_breach"])
                for h in fractions
            ],
        },
        title=f"Ablation — §4.3 duplicate tagging, p={params['procs']}, "
        f"eps={params['eps']}, hotspot workload",
    )


# ===================================================================== #
# Ablation — §6.1 node-level partitioning vs flat core-level HSS.
# ===================================================================== #
@register(
    "ablation_node",
    description="Node-level partitioning vs flat HSS: messages, sample, time",
    kind="ablation",
    tiers={
        "full": {"procs": 64, "keys_per_rank": 4_000,
                 "eps": 0.02, "within_node_eps": 0.05,
                 "machine": "mira-like-bgq",
                 "machine_overrides": {"cores_per_node": 16},
                 "input_seed": 99, "seed": 3},
        "quick": {"procs": 32, "keys_per_rank": 1_000,
                  "eps": 0.02, "within_node_eps": 0.05,
                  "machine": "mira-like-bgq",
                  "machine_overrides": {"cores_per_node": 8},
                  "input_seed": 99, "seed": 3},
    },
    render=lambda cases, params: _render_ablation_node(cases, params),
)
def _run_ablation_node(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.bsp import BSPEngine
    from repro.core.config import HSSConfig
    from repro.core.hss import hss_sort_program
    from repro.core.node_sort import combined_eps, hss_node_sort_program
    from repro.metrics import verify_sorted_output

    p = params["procs"]
    n_per = params["keys_per_rank"]
    eps = params["eps"]
    within = params["within_node_eps"]
    machine = _suite_machine(params)

    cases = []
    for mode, node_level in (("core-level", False), ("node-level", True)):
        rng = np.random.default_rng(params["input_seed"])
        inputs = [rng.integers(0, 2**60, n_per) for _ in range(p)]
        engine = BSPEngine(p, machine=machine)
        if node_level:
            cfg = HSSConfig(
                eps=eps, within_node_eps=within, node_level=True,
                seed=params["seed"],
            )
            res = engine.run(
                hss_node_sort_program, rank_args=[(x,) for x in inputs], cfg=cfg
            )
            outs = [r[0].keys for r in res.returns]
            verify_sorted_output(inputs, outs, combined_eps(eps, within))
        else:
            cfg = HSSConfig(eps=eps, seed=params["seed"])
            res = engine.run(
                hss_sort_program,
                rank_args=[(x, None) for x in inputs],
                cfg=cfg,
            )
            outs = [r[0].keys for r in res.returns]
            verify_sorted_output(inputs, outs, eps)
        stats = res.returns[0][1]
        cases.append(
            _case(
                mode,
                {"mode": mode, "procs": p,
                 "cores_per_node": machine.cores_per_node},
                {
                    "splitters": stats.nparts - 1,
                    "nparts": stats.nparts,
                    "total_sample": stats.total_sample,
                    "net_messages": res.stats.messages,
                    "net_bytes": res.stats.bytes,
                    "makespan_s": res.makespan,
                    "histogramming_s": res.breakdown().total("histogramming"),
                },
            )
        )
    return cases


def _render_ablation_node(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    modes = ["core-level", "node-level"]
    rows = {
        "splitters": [by[m].metrics["splitters"] for m in modes],
        "total sample": [by[m].metrics["total_sample"] for m in modes],
        "network msgs": [by[m].metrics["net_messages"] for m in modes],
        "network bytes": [by[m].metrics["net_bytes"] for m in modes],
        "makespan (s)": [f"{by[m].metrics['makespan_s']:.3e}" for m in modes],
    }
    p = params["procs"]
    cores = params["machine_overrides"]["cores_per_node"]
    return format_series_table(
        "variant",
        modes,
        rows,
        title=f"Ablation — §6.1 node-level partitioning, p={p}, "
        f"{cores} cores/node ({p // cores} nodes)",
    )


# ===================================================================== #
# Ablation — probe-refinement policy for classic histogram sort.
# ===================================================================== #
@register(
    "ablation_refinement",
    description="Constant vs adaptive probe refinement vs HSS on clustered keys",
    kind="ablation",
    tiers={
        "full": {"n_total": 2_000_000, "ps": [1024, 4096, 16384], "eps": 0.02,
                 "probes_per_splitter": 5, "max_rounds": 600,
                 "oversample": 5.0, "dataset_seed": 33, "seed": 3},
        "quick": {"n_total": 500_000, "ps": [1024, 4096], "eps": 0.02,
                  "probes_per_splitter": 5, "max_rounds": 600,
                  "oversample": 5.0, "dataset_seed": 33, "seed": 3},
    },
    render=lambda cases, params: _render_ablation_refinement(cases, params),
)
def _run_ablation_refinement(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import (
        RankSpaceSimulator,
        simulate_histogram_sort_rounds,
    )
    from repro.workloads.changa import fractal_dwarf_shards

    n_total = params["n_total"]
    eps = params["eps"]
    keys, rank_of, kmin, kmax = _morton_oracle(
        fractal_dwarf_shards(8, n_total // 8, params["dataset_seed"])
    )
    n = len(keys)
    cases = []
    for p in params["ps"]:
        classic = simulate_histogram_sort_rounds(
            n, p, eps, rank_of, kmin, kmax,
            probes_per_splitter=params["probes_per_splitter"],
            max_rounds=params["max_rounds"], key_dtype=np.int64,
            adaptive=False,
        )
        adaptive = simulate_histogram_sort_rounds(
            n, p, eps, rank_of, kmin, kmax,
            probes_per_splitter=params["probes_per_splitter"],
            max_rounds=params["max_rounds"], key_dtype=np.int64,
            adaptive=True,
        )
        hss = RankSpaceSimulator(
            n, p,
            HSSConfig.constant_oversampling(
                params["oversample"], eps=eps, seed=params["seed"]
            ),
        ).run()
        cases.append(
            _case(
                f"p={p}",
                {"procs": p, "n": n},
                {
                    "classic_rounds": classic.rounds,
                    "adaptive_rounds": adaptive.rounds,
                    "hss_rounds": hss.num_rounds,
                    "classic_probes": classic.total_probes,
                    "adaptive_probes": adaptive.total_probes,
                    "hss_sample": hss.total_sample,
                    "classic_finalized": classic.all_finalized,
                    "adaptive_finalized": adaptive.all_finalized,
                },
            )
        )
    return cases


def _render_ablation_refinement(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    ps = params["ps"]
    return format_series_table(
        "p",
        ps,
        {
            "classic rounds": [by[f"p={p}"].metrics["classic_rounds"] for p in ps],
            "adaptive rounds": [
                by[f"p={p}"].metrics["adaptive_rounds"] for p in ps
            ],
            "HSS rounds": [by[f"p={p}"].metrics["hss_rounds"] for p in ps],
            "classic probes": [
                by[f"p={p}"].metrics["classic_probes"] for p in ps
            ],
            "adaptive probes": [
                by[f"p={p}"].metrics["adaptive_probes"] for p in ps
            ],
            "HSS sample": [by[f"p={p}"].metrics["hss_sample"] for p in ps],
        },
        title=(
            "Ablation — probe refinement policy, fractal-dwarf keys, "
            f"N={params['n_total']:.0e}, eps={params['eps']}"
        ),
    )


# ===================================================================== #
# Ablation — rounds k vs total sample size (§3.3 trade-off).
# ===================================================================== #
@register(
    "ablation_rounds",
    description="Geometric round count k vs measured total sample (Lemma 3.3.2)",
    kind="ablation",
    tiers={
        "full": {"procs": 8_192, "keys_per_proc": 10_000, "eps": 0.05,
                 "ks": [1, 2, 3, 4, 5, 6], "seed": 31},
        "quick": {"procs": 2_048, "keys_per_proc": 5_000, "eps": 0.05,
                  "ks": [1, 2, 3, 4], "seed": 31},
        "stress": {"procs": 16_384, "keys_per_proc": 10_000, "eps": 0.05,
                   "ks": [1, 2, 3, 4, 5, 6], "seed": 31},
    },
    render=lambda cases, params: _render_ablation_rounds(cases, params),
)
def _run_ablation_rounds(params: Mapping[str, Any]) -> list[CaseResult]:
    from repro.core.config import HSSConfig
    from repro.core.rankspace import RankSpaceSimulator
    from repro.theory.rounds import optimal_rounds
    from repro.theory.sample_sizes import sample_size_hss

    p = params["procs"]
    n = p * params["keys_per_proc"]
    eps = params["eps"]
    cases = []
    for k in params["ks"]:
        cfg = HSSConfig.k_rounds(k, eps=eps, seed=params["seed"])
        stats = RankSpaceSimulator(n, p, cfg).run()
        cases.append(
            _case(
                f"k={k}",
                {"k": k, "procs": p, "n": n},
                {
                    "total_sample": stats.total_sample,
                    "theory_sample": round(sample_size_hss(p, eps, k)),
                    "rounds_used": stats.num_rounds,
                    "finalized": stats.all_finalized,
                    "max_rank_error": stats.max_rank_error,
                },
            )
        )
    exact, k_star = optimal_rounds(p, eps)
    cases.append(
        _case(
            "optimum",
            {"procs": p},
            {"k_star_exact": exact, "k_star": k_star},
        )
    )
    return cases


def _render_ablation_rounds(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    ks = params["ks"]
    rows = {
        "total sample (meas)": [by[f"k={k}"].metrics["total_sample"] for k in ks],
        "total sample (theory)": [
            by[f"k={k}"].metrics["theory_sample"] for k in ks
        ],
        "rounds used": [by[f"k={k}"].metrics["rounds_used"] for k in ks],
        "finalized": [bool(by[f"k={k}"].metrics["finalized"]) for k in ks],
        "max rank err": [by[f"k={k}"].metrics["max_rank_error"] for k in ks],
    }
    exact = by["optimum"].metrics["k_star_exact"]
    return format_series_table(
        "k",
        ks,
        rows,
        title=(
            f"Ablation — rounds vs sample, p={params['procs']}, "
            f"eps={params['eps']}; optimal k* = {exact:.2f} (Lemma 3.3.2)"
        ),
    )


# ===================================================================== #
# Service latency — the sort-as-a-service job stream, cold vs warm.
# ===================================================================== #
@register(
    "service_latency",
    description="Sort service job stream: cold vs warm-start modeled "
    "latency per workload, stream p50/p99",
    kind="service",
    tiers={
        "full": {
            "procs": 16,
            "keys_per_rank": 2_000,
            "eps": 0.1,
            "workloads": ["uniform", "lognormal", "staircase"],
            "repeats": 8,
            "algorithm": "hss",
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "seed": 42,
        },
        "quick": {
            "procs": 8,
            "keys_per_rank": 600,
            "eps": 0.1,
            "workloads": ["uniform", "lognormal", "staircase"],
            "repeats": 4,
            "algorithm": "hss",
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "seed": 42,
        },
    },
    render=lambda cases, params: _render_service_latency(cases, params),
    runtime_params={"backend": "simulated"},
)
def _run_service_latency(params: Mapping[str, Any]) -> list[CaseResult]:
    """Replay a deterministic job stream through the sort service.

    ``repeats`` passes over the workload list, every pass submitting the
    *same* scenarios (same seed — identical data, identical fingerprint),
    interleaved so repeat jobs exercise the LRU splitter cache rather
    than intra-batch warm chaining.  Pass 0 is the cold baseline; later
    passes must warm-start.  Per-job latency is the modeled makespan —
    deterministic, so the stream's p50/p99 gate under the standard
    tolerances.
    """
    import json

    from repro.service import SortService

    service = SortService()
    replies: dict[tuple[str, int], Mapping[str, Any]] = {}
    for rep in range(params["repeats"]):
        for workload in params["workloads"]:
            job = {
                "id": f"{workload}-{rep}",
                "scenario": {
                    "algorithm": params["algorithm"],
                    "workload": workload,
                    "machine": params["machine"],
                    "procs": params["procs"],
                    "keys_per_rank": params["keys_per_rank"],
                    "eps": params["eps"],
                    "seed": params["seed"],
                    "backend": _suite_backend(params),
                },
            }
            reply = service.handle_line(json.dumps(job))
            if reply["status"] != "ok":
                raise RuntimeError(
                    f"service job {reply['id']} failed: {reply['error']}"
                )
            replies[(workload, rep)] = reply

    last = params["repeats"] - 1
    cases = []
    for workload in params["workloads"]:
        for label, rep in (("cold", 0), ("warm", last)):
            reply = replies[(workload, rep)]
            metrics = dict(reply["metrics"])
            metrics["cache_hit"] = int(reply["cache"]["hit"])
            cases.append(
                _case(
                    f"{label}/{workload}",
                    {"workload": workload, "pass": rep,
                     "procs": params["procs"],
                     "keys_per_rank": params["keys_per_rank"]},
                    metrics,
                )
            )

    latencies = sorted(
        reply["metrics"]["makespan_s"] for reply in replies.values()
    )
    stats = service.stats()
    for label, q in (("p50", 50.0), ("p99", 99.0)):
        cases.append(
            _case(
                f"stream/{label}",
                {"jobs": len(latencies), "quantile": q},
                {
                    "makespan_s": float(np.percentile(latencies, q)),
                    "cache_hits": stats["cache"]["hits"],
                    "cache_misses": stats["cache"]["misses"],
                },
            )
        )
    return cases


def _render_service_latency(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    workloads = params["workloads"]
    rows = {
        "cold makespan (ms)": [
            round(by[f"cold/{w}"].metrics["makespan_s"] * 1e3, 3)
            for w in workloads
        ],
        "warm makespan (ms)": [
            round(by[f"warm/{w}"].metrics["makespan_s"] * 1e3, 3)
            for w in workloads
        ],
        "cold rounds": [
            by[f"cold/{w}"].metrics.get("rounds") for w in workloads
        ],
        "warm rounds": [
            by[f"warm/{w}"].metrics.get("rounds") for w in workloads
        ],
        "warm cache hit": [
            bool(by[f"warm/{w}"].metrics["cache_hit"]) for w in workloads
        ],
    }
    p50 = by["stream/p50"].metrics
    p99 = by["stream/p99"].metrics
    jobs = by["stream/p50"].params["jobs"]
    head = (
        f"Service latency — p={params['procs']}, "
        f"N/p={params['keys_per_rank']}, eps={params['eps']}, "
        f"{params['algorithm']}, {jobs} jobs "
        f"({len(workloads)} workloads x {params['repeats']} passes), "
        f"Mira-like (flat)"
    )
    tail = (
        f"stream p50 = {p50['makespan_s'] * 1e3:.3f} ms, "
        f"p99 = {p99['makespan_s'] * 1e3:.3f} ms; "
        f"splitter cache {p50['cache_hits']} hits / "
        f"{p50['cache_misses']} misses"
    )
    return (
        head
        + "\n\n"
        + format_series_table("workload", workloads, rows)
        + "\n\n"
        + tail
    )


# ===================================================================== #
# Chaos resilience — straggler tolerance under seeded fault plans.
# ===================================================================== #
_CHAOS_PLANS = ["stragglers", "dropped-collectives", "mayhem"]


@register(
    "chaos_resilience",
    description="Straggler tolerance under seeded fault plans: slowdown "
    "vs fault-free, retries, supersteps to kill detection",
    kind="chaos",
    tiers={
        "full": {
            "procs": 16,
            "keys_per_rank": 2_000,
            "eps": 0.1,
            "workloads": ["drifting-mixture", "changa-drift"],
            "plans": list(_CHAOS_PLANS),
            "algorithm": "hss",
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "seed": 42,
        },
        "quick": {
            "procs": 8,
            "keys_per_rank": 600,
            "eps": 0.1,
            "workloads": ["drifting-mixture", "changa-drift"],
            "plans": list(_CHAOS_PLANS),
            "algorithm": "hss",
            "machine": "mira-like-bgq",
            "machine_overrides": {"cores_per_node": 1},
            "seed": 42,
        },
    },
    render=lambda cases, params: _render_chaos_resilience(cases, params),
    runtime_params={"backend": "simulated"},
)
def _run_chaos_resilience(params: Mapping[str, Any]) -> list[CaseResult]:
    """Every fault plan against every adversarial workload, plus a kill.

    Each (workload, plan) cell runs the standard ``Scenario`` plumbing
    wrapped in the chaos backend; the plan's faults are seeded, so the
    injected delays, retry counts and the resulting slowdown are exact
    reproducible numbers the baseline gate can hold.  The final cases run
    the deterministic ``kill-rank`` plan and record how many supersteps
    the engine's deadlock detection needed to catch the dead rank — the
    failure-*detection* latency, as opposed to the degradation metrics.
    """
    from repro.errors import DeadlockError
    from repro.experiments import Scenario

    def scenario(workload: str, plan: str) -> Scenario:
        return Scenario(
            algorithm=params["algorithm"],
            workload=workload,
            machine=params["machine"],
            procs=params["procs"],
            keys_per_rank=params["keys_per_rank"],
            eps=params["eps"],
            seed=params["seed"],
            backend=_suite_backend(params),
            chaos=plan,
        )

    cases = []
    for workload in params["workloads"]:
        baseline = scenario(workload, "").run()["metrics"]
        cases.append(
            _case(
                f"faultfree/{workload}",
                {"workload": workload, "plan": "none",
                 "procs": params["procs"],
                 "keys_per_rank": params["keys_per_rank"]},
                {"makespan_s": baseline["makespan_s"],
                 "rounds": baseline.get("rounds")},
            )
        )
        for plan in params["plans"]:
            metrics = scenario(workload, plan).run()["metrics"]
            cases.append(
                _case(
                    f"{plan}/{workload}",
                    {"workload": workload, "plan": plan,
                     "procs": params["procs"],
                     "keys_per_rank": params["keys_per_rank"]},
                    {
                        "makespan_s": metrics["makespan_s"],
                        "slowdown": metrics["chaos_slowdown"],
                        "stragglers": metrics["chaos_stragglers"],
                        "retries": metrics["chaos_retries"],
                        "delay_injected_s": metrics["chaos_delay_s"],
                    },
                )
            )
        try:
            scenario(workload, "kill-rank").run()
        except DeadlockError as exc:
            detail = getattr(exc, "chaos", {}) or {}
            cases.append(
                _case(
                    f"kill-rank/{workload}",
                    {"workload": workload, "plan": "kill-rank",
                     "procs": params["procs"],
                     "keys_per_rank": params["keys_per_rank"]},
                    {
                        "detected": 1,
                        "detected_superstep": detail.get(
                            "detected_superstep", -1
                        ),
                        "supersteps_to_detection": detail.get(
                            "supersteps_to_detection", -1
                        ),
                    },
                )
            )
        else:  # pragma: no cover - a kill must trip deadlock detection
            raise RuntimeError(
                "kill-rank plan completed without tripping deadlock "
                "detection"
            )
    return cases


def _render_chaos_resilience(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    workloads = params["workloads"]
    rows: dict[str, list[Any]] = {
        "fault-free makespan (ms)": [
            round(by[f"faultfree/{w}"].metrics["makespan_s"] * 1e3, 3)
            for w in workloads
        ],
    }
    for plan in params["plans"]:
        rows[f"{plan} slowdown"] = [
            round(by[f"{plan}/{w}"].metrics["slowdown"], 2)
            for w in workloads
        ]
    rows["stragglers (mayhem)"] = [
        by[f"mayhem/{w}"].metrics["stragglers"] for w in workloads
    ]
    rows["retries (dropped)"] = [
        by[f"dropped-collectives/{w}"].metrics["retries"] for w in workloads
    ]
    rows["kill detected at superstep"] = [
        by[f"kill-rank/{w}"].metrics["detected_superstep"] for w in workloads
    ]
    head = (
        f"Chaos resilience — p={params['procs']}, "
        f"N/p={params['keys_per_rank']}, eps={params['eps']}, "
        f"{params['algorithm']}, plans {', '.join(params['plans'])} "
        f"+ kill-rank, Mira-like (flat)"
    )
    tail = (
        "slowdown = chaos makespan / fault-free makespan on the same "
        "cell; kill detection is the engine's deadlock check, not a "
        "timeout"
    )
    return (
        head
        + "\n\n"
        + format_series_table("workload", workloads, rows)
        + "\n\n"
        + tail
    )


# ===================================================================== #
# Calibration quality — the fitter against known ground-truth constants.
# ===================================================================== #
@register(
    "calibration_quality",
    description="Constant-recovery error of the calibration fitter on "
    "synthetic measurements with known ground truth",
    kind="calibration",
    tiers={
        "full": {
            "profile": "default",
            "doe_seed": 0,
            "truth_machine": "laptop",
            "noise": 0.05,
            "noise_seed": 1234,
        },
        "quick": {
            "profile": "tiny",
            "doe_seed": 0,
            "truth_machine": "laptop",
            "noise": 0.05,
            "noise_seed": 1234,
        },
    },
    render=lambda cases, params: _render_calibration_quality(cases, params),
)
def _run_calibration_quality(params: Mapping[str, Any]) -> list[CaseResult]:
    """Fit synthetic measurements fabricated from a known machine.

    The ``exact`` case (zero noise) must recover every constant to
    solver precision — the ISSUE's 1%-recovery acceptance bound with two
    orders of margin; the ``noisy`` case perturbs each observation by
    seeded multiplicative noise and reports how gracefully the fit
    degrades.  Everything is deterministic: simulated features, seeded
    noise, no wall-clock anywhere.
    """
    from repro.calibrate import (
        constants_of,
        design_cells,
        extract_features,
        fit_constants,
        synthetic_measurements,
        total_abs_error,
    )
    from repro.machines import get_machine_spec

    cells = design_cells(seed=params["doe_seed"], profile=params["profile"])
    features = extract_features(cells)
    truth_spec = get_machine_spec(params["truth_machine"])
    truth = constants_of(truth_spec)
    cases = []
    for label, noise in (("exact", 0.0), ("noisy", params["noise"])):
        measurements = synthetic_measurements(
            features, truth_spec, noise=noise, seed=params["noise_seed"]
        )
        fit = fit_constants(features, measurements)
        metrics: dict[str, Any] = {
            "cells": fit.cells,
            "rows_compute": fit.rows["compute"],
            "r2_compute": fit.r2["compute"],
            "r2_comm": fit.r2["comm"],
            "total_abs_error_s": total_abs_error(
                measurements, features, fit.constants
            ),
            "within_1pct": True,
        }
        for name, value in fit.constants.items():
            rel = abs(value - truth[name]) / truth[name]
            metrics[f"rel_err_{name}"] = rel
            if noise == 0.0 and rel > 0.01:
                metrics["within_1pct"] = False
        cases.append(
            _case(
                label,
                {"noise": noise, "profile": params["profile"],
                 "truth_machine": params["truth_machine"]},
                metrics,
            )
        )
    return cases


def _render_calibration_quality(
    cases: Sequence[CaseResult], params: Mapping[str, Any]
) -> str:
    by = _by_name(cases)
    labels = ["exact", "noisy"]
    constants = ("alpha", "beta", "gamma_compare", "gamma_byte")
    rows: dict[str, list[Any]] = {
        f"rel err {name}": [
            float(f"{by[label].metrics[f'rel_err_{name}']:.3g}")
            for label in labels
        ]
        for name in constants
    }
    rows["compute R^2"] = [
        round(by[label].metrics["r2_compute"], 6) for label in labels
    ]
    rows["comm R^2"] = [
        round(by[label].metrics["r2_comm"], 6) for label in labels
    ]
    head = (
        f"Calibration quality — profile={params['profile']}, "
        f"truth={params['truth_machine']}, "
        f"{by['exact'].metrics['cells']} cells, synthetic measurements "
        f"(noisy: {params['noise']:g} multiplicative, "
        f"seed {params['noise_seed']})"
    )
    tail = (
        "exact-case recovery is gated at 1% per constant by "
        "benchmarks/test_calibration_quality.py"
    )
    return (
        head
        + "\n\n"
        + format_series_table("case", labels, rows)
        + "\n\n"
        + tail
    )
