"""The chaos backend: passthrough purity, determinism, fault surfacing.

The headline contracts pinned here:

* a **zero-fault plan is a literal passthrough** — bit-identical sorted
  output, stats and makespan to the wrapped backend across the full
  algorithm grid, including the error paths (SPMD violations surface
  with byte-identical messages);
* the **same plan seed reproduces everything** — fault schedule, chaos
  metrics, sorted output;
* **kills are detected, not hung**: a killed rank trips the engine's
  deadlock check and the raised error carries the plan's provenance;
* chaos metrics are **backend-independent** — `chaos:simulated` and
  `chaos:process` agree on every injected-fault number.
"""

import numpy as np
import pytest

from repro.algorithms import REGISTRY, Dataset, Sorter
from repro.chaos import FaultPlan, make_fault_plan
from repro.errors import (
    BSPError,
    CollectiveMismatchError,
    ConfigError,
    DeadlockError,
)
from repro.runtime import (
    BACKENDS,
    ChaosBackend,
    ProcessBackend,
    SimulatedBackend,
    get_backend,
)

P = 4
N_PER = 300
WORKLOAD_NAMES = ("uniform", "staircase")

GRID = [
    (algorithm, workload)
    for algorithm in sorted(REGISTRY)
    for workload in WORKLOAD_NAMES
]


def _run(algorithm: str, workload: str, backend) -> object:
    dataset = Dataset.from_workload(workload, p=P, n_per=N_PER, seed=11)
    kwargs = {"strict": False} if algorithm.startswith("hss-") else {}
    config = REGISTRY.get(algorithm).legacy_config(eps=0.2, seed=3, **kwargs)
    return Sorter(
        algorithm, config=config, backend=backend, verify=False
    ).run(dataset)


# --------------------------------------------------------------------- #
# Zero-fault passthrough: the full parity grid.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "algorithm,workload", GRID, ids=[f"{a}-{w}" for a, w in GRID]
)
def test_zero_fault_plan_is_bit_identical(algorithm, workload):
    plain = _run(algorithm, workload, SimulatedBackend())
    chaos = _run(
        algorithm, workload, ChaosBackend(inner="simulated", plan="none")
    )
    for rank, (a, b) in enumerate(zip(plain.shards, chaos.shards)):
        np.testing.assert_array_equal(a, b, err_msg=f"rank {rank} shard")
    assert plain.engine_result.stats == chaos.engine_result.stats
    assert plain.makespan == chaos.makespan
    # Passthrough means *no* chaos block either: the run is untouched.
    assert getattr(chaos.engine_result.measured, "chaos", None) is None


def _mismatch_program(ctx, keys):
    if ctx.rank == 0:
        yield from ctx.bcast(1, root=0)
    else:
        yield from ctx.gather(1, root=0)
    return keys


def _early_return_program(ctx, keys):
    if ctx.rank == 0:
        return keys
    yield from ctx.barrier()
    return keys


def _plain_function(ctx, keys):
    return keys


def _rank_args():
    return [(np.arange(10),) for _ in range(P)]


@pytest.mark.parametrize(
    "program,exc_type",
    [
        (_mismatch_program, CollectiveMismatchError),
        (_early_return_program, DeadlockError),
        (_plain_function, BSPError),
    ],
    ids=["mismatch", "deadlock", "plain-function"],
)
def test_zero_fault_error_paths_identical(program, exc_type):
    messages = []
    for backend in (
        SimulatedBackend(),
        ChaosBackend(inner="simulated", plan="none"),
        ChaosBackend(inner="simulated", plan="stragglers"),
    ):
        with pytest.raises(exc_type) as info:
            backend.run(program, _rank_args())
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]


# --------------------------------------------------------------------- #
# Determinism: the same seed reproduces the whole picture.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("plan", ["stragglers", "dropped-collectives", "mayhem"])
def test_same_seed_reproduces_metrics_and_output(plan):
    runs = [
        _run("hss", "uniform", ChaosBackend(inner="simulated", plan=plan))
        for _ in range(2)
    ]
    a, b = (r.engine_result.measured.chaos for r in runs)
    assert a == b
    assert runs[0].makespan == runs[1].makespan
    for x, y in zip(runs[0].shards, runs[1].shards):
        np.testing.assert_array_equal(x, y)


def test_different_seed_changes_fault_schedule():
    metrics = [
        _run(
            "hss", "uniform",
            ChaosBackend(
                inner="simulated",
                plan=make_fault_plan("stragglers", seed=seed),
            ),
        ).engine_result.measured.chaos
        for seed in (0, 1)
    ]
    assert metrics[0]["seed"] != metrics[1]["seed"]
    assert (
        metrics[0]["stragglers"] != metrics[1]["stragglers"]
        or metrics[0]["delay_injected_s"] != metrics[1]["delay_injected_s"]
    )


def test_faults_never_corrupt_output():
    plain = _run("hss", "uniform", SimulatedBackend())
    chaos = _run(
        "hss", "uniform", ChaosBackend(inner="simulated", plan="mayhem")
    )
    # Faults perturb time and traffic, never the sort itself.
    for a, b in zip(plain.shards, chaos.shards):
        np.testing.assert_array_equal(a, b)
    info = chaos.engine_result.measured.chaos
    assert info["slowdown"] > 1.0
    assert chaos.makespan == pytest.approx(
        info["fault_free_makespan_s"] * info["slowdown"]
    )
    assert plain.makespan == info["fault_free_makespan_s"]


# --------------------------------------------------------------------- #
# Kills: detection as a feature.
# --------------------------------------------------------------------- #
def test_kill_trips_deadlock_with_provenance():
    with pytest.raises(DeadlockError) as info:
        _run(
            "hss", "uniform",
            ChaosBackend(inner="simulated", plan="kill-rank"),
        )
    exc = info.value
    message = str(exc)
    assert "superstep" in message and "not SPMD" in message
    assert exc.superstep == 2
    assert 1 in exc.finished_ranks
    assert exc.chaos["plan"] == "kill-rank"
    assert exc.chaos["detected_superstep"] == 2
    assert exc.chaos["kill_superstep"] == 2
    assert exc.chaos["supersteps_to_detection"] == 0


def test_kill_detection_identical_across_backends():
    details = []
    for inner in ("simulated", "process"):
        with pytest.raises(DeadlockError) as info:
            _run(
                "hss", "uniform",
                ChaosBackend(inner=inner, plan="kill-rank", workers=2),
            )
        details.append((str(info.value), info.value.chaos))
    assert details[0] == details[1]


# --------------------------------------------------------------------- #
# Backend independence of the injected-fault picture.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("plan", ["stragglers", "mayhem"])
def test_chaos_metrics_backend_independent(plan):
    sim = _run(
        "hss", "uniform", ChaosBackend(inner="simulated", plan=plan)
    )
    proc = _run(
        "hss", "uniform",
        ChaosBackend(inner="process", plan=plan, workers=2),
    )
    sim_info = dict(sim.engine_result.measured.chaos)
    proc_info = dict(proc.engine_result.measured.chaos)
    assert sim.engine_result.measured.backend == "chaos:simulated"
    assert proc.engine_result.measured.backend == "chaos:process"
    assert sim_info == proc_info
    assert sim.makespan == proc.makespan
    assert sim.engine_result.stats == proc.engine_result.stats
    for a, b in zip(sim.shards, proc.shards):
        np.testing.assert_array_equal(a, b)


def test_drop_retries_price_extra_traffic():
    plain = _run("hss", "uniform", SimulatedBackend())
    chaos = _run(
        "hss", "uniform",
        ChaosBackend(inner="simulated", plan="dropped-collectives"),
    )
    info = chaos.engine_result.measured.chaos
    assert info["retries"] > 0
    assert info["delay_injected_s"] == 0.0
    stats, base = chaos.engine_result.stats, plain.engine_result.stats
    assert stats.messages > base.messages
    assert stats.bytes > base.bytes


# --------------------------------------------------------------------- #
# Construction and the ':variant' spelling.
# --------------------------------------------------------------------- #
class TestConstruction:
    def test_variant_spelling_resolves_inner(self):
        backend = get_backend("chaos:process", workers=2)
        assert isinstance(backend, ChaosBackend)
        assert backend.inner.name == "process"
        assert get_backend("chaos").inner.name == "simulated"

    def test_registered_on_the_backend_axis(self):
        assert BACKENDS["chaos"] is ChaosBackend

    def test_cannot_wrap_itself(self):
        with pytest.raises(ConfigError, match="cannot wrap itself"):
            ChaosBackend(inner="chaos")
        with pytest.raises(ConfigError, match="cannot wrap itself"):
            ChaosBackend(inner="chaos:process")
        with pytest.raises(ConfigError, match="cannot wrap itself"):
            ChaosBackend(inner=ChaosBackend())

    def test_unknown_inner_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            ChaosBackend(inner="quantum")

    def test_variant_plus_inner_option_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            get_backend("chaos:process", inner="simulated")

    def test_non_chaos_backends_reject_variants(self):
        with pytest.raises(ConfigError, match="takes no ':variant'"):
            get_backend("simulated:fast")

    def test_unknown_plan_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault plan"):
            ChaosBackend(plan="storm")

    def test_inline_plan_accepted(self):
        plan = FaultPlan(straggler_prob=1.0, straggler_delay_s=1e-4)
        backend = ChaosBackend(plan=plan)
        assert backend.plan is plan
